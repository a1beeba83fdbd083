package experiments

import (
	"encoding/json"
	"fmt"
	"io"
)

// Experiments lists the experiment names in render order — the same
// names ccrp-bench accepts for -exp. Each has a renderer and datapoints.
var Experiments = []string{
	"fig5", "fig1", "fig2", "tables1-8", "tables9-10", "fig9",
	"tables11-13", "ablations", "extensions", "paging", "codepack", "rvc",
}

// renderers prints each experiment in the paper's layout.
var renderers = map[string]func(io.Writer) error{
	"fig5":        RenderFigure5,
	"fig1":        RenderFigure1,
	"fig2":        func(w io.Writer) error { return RenderFigure2(w, "eightq", 14) },
	"tables1-8":   RenderTables1to8,
	"tables9-10":  RenderTables9and10,
	"fig9":        RenderFigure9,
	"tables11-13": RenderTables11to13,
	"ablations":   RenderAblations,
	"extensions":  RenderExtensions,
	"paging":      RenderPaging,
	"codepack":    RenderCodePack,
	"rvc":         RenderRVC,
}

// Renderer returns the function that prints the named experiment, and
// whether the name is one of Experiments.
func Renderer(name string) (func(io.Writer) error, bool) {
	r, ok := renderers[name]
	return r, ok
}

// figure2JSON is the machine-readable Figure 2 address pairing.
type figure2JSON struct {
	Program    string   `json:"program"`
	Original   []uint32 `json:"original"`
	Compressed []uint32 `json:"compressed"`
}

// ablationsJSON bundles the DESIGN.md §9 ablation studies.
type ablationsJSON struct {
	LAT       []LATRow       `json:"lat"`
	MultiCode []MultiCodeRow `json:"multi_code"`
	Overlap   []OverlapRow   `json:"overlap"`
	ISA       []ISARow       `json:"isa"`
}

// extensionsJSON bundles the future-work extension studies.
type extensionsJSON struct {
	Associativity []AssocRow     `json:"associativity"`
	DecodeRate    []RateRow      `json:"decode_rate"`
	BlockSize     []BlockSizeRow `json:"block_size"`
}

// codepackJSON bundles the CodePack comparison.
type codepackJSON struct {
	Compression []CodePackRow     `json:"compression"`
	Performance []CodePackPerfRow `json:"performance"`
}

// datapoints computes the structured rows behind one rendered experiment.
func datapoints(name string) (any, error) {
	switch name {
	case "fig5":
		return Figure5()
	case "fig1":
		return Figure1Alignment()
	case "fig2":
		orig, comp, err := Figure2Addresses("eightq", 14)
		if err != nil {
			return nil, err
		}
		return figure2JSON{Program: "eightq", Original: orig, Compressed: comp}, nil
	case "tables1-8":
		return Tables1to8()
	case "tables9-10":
		return Tables9and10()
	case "fig9":
		return Figure9()
	case "tables11-13":
		return Tables11to13()
	case "ablations":
		out := ablationsJSON{}
		var err error
		if out.LAT, err = LATAblation(); err != nil {
			return nil, err
		}
		if out.MultiCode, err = MultiCodeAblation(); err != nil {
			return nil, err
		}
		if out.Overlap, err = OverlapAblation("espresso"); err != nil {
			return nil, err
		}
		if out.ISA, err = ISAAblation(); err != nil {
			return nil, err
		}
		return out, nil
	case "extensions":
		out := extensionsJSON{}
		var err error
		if out.Associativity, err = AssociativityAblation("espresso"); err != nil {
			return nil, err
		}
		if out.DecodeRate, err = DecodeRateAblation("espresso"); err != nil {
			return nil, err
		}
		if out.BlockSize, err = BlockSizeAblation(); err != nil {
			return nil, err
		}
		return out, nil
	case "paging":
		return PagingStudy()
	case "rvc":
		return RVCComparison()
	case "codepack":
		out := codepackJSON{}
		var err error
		if out.Compression, err = CodePackStudy(); err != nil {
			return nil, err
		}
		if out.Performance, err = CodePackPerf(); err != nil {
			return nil, err
		}
		return out, nil
	default:
		return nil, fmt.Errorf("experiments: unknown experiment %q (have %v)", name, Experiments)
	}
}

// BenchJSON is the machine-readable form of the benchmark run: every
// table and figure datapoint of the selected experiments, keyed by
// experiment name. It is the source format for BENCH_*.json performance
// trajectories tracked across PRs.
type BenchJSON struct {
	Schema      int            `json:"schema"`
	Paper       string         `json:"paper"`
	Experiments map[string]any `json:"experiments"`
}

// BenchData computes the datapoints for the named experiments (all of
// them when names is empty).
func BenchData(names []string) (*BenchJSON, error) {
	if len(names) == 0 {
		names = Experiments
	}
	out := &BenchJSON{
		Schema:      1,
		Paper:       "Wolfe & Chanin, MICRO-25 1992",
		Experiments: make(map[string]any, len(names)),
	}
	for _, name := range names {
		data, err := datapoints(name)
		if err != nil {
			return nil, err
		}
		out.Experiments[name] = data
	}
	return out, nil
}

// WriteBenchJSON writes BenchData as indented JSON.
func WriteBenchJSON(w io.Writer, names []string) error {
	data, err := BenchData(names)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(data)
}
