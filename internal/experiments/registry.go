package experiments

import (
	"encoding/json"
	"fmt"
	"io"

	"ccrp/internal/decoder"
)

// experiment is one table or figure of the evaluation: its -exp name,
// the function that computes its datapoints, and a printer that lays out
// exactly those datapoints in the paper's format. ccrp-bench's tables
// are the printer's view of the values that -json writes, so the two
// cannot disagree.
type experiment struct {
	name  string
	data  func() (any, error)
	print func(io.Writer, any)
}

// entry builds an experiment whose printer takes what data returns.
func entry[T any](name string, data func() (T, error), printer func(io.Writer, T)) experiment {
	return experiment{
		name:  name,
		data:  func() (any, error) { return data() },
		print: func(w io.Writer, v any) { printer(w, v.(T)) },
	}
}

// table registers every experiment once, in render order.
var table = []experiment{
	entry("fig5", Figure5, printFigure5),
	entry("fig1", Figure1Alignment, printFigure1),
	entry("fig2", figure2, printFigure2),
	entry("tables1-8", Tables1to8, printTables1to8),
	entry("tables9-10", Tables9and10, printTables9and10),
	entry("fig9", Figure9, printFigure9),
	entry("tables11-13", Tables11to13, printTables11to13),
	entry("ablations", ablations, printAblations),
	entry("extensions", extensions, printExtensions),
	entry("paging", PagingStudy, printPaging),
	entry("codepack", codePack, printCodePack),
	entry("rvc", RVCComparison, printRVC),
}

// Names returns the experiment names in render order: the names
// ccrp-bench accepts for -exp.
func Names() []string {
	names := make([]string, len(table))
	for i, e := range table {
		names[i] = e.name
	}
	return names
}

// lookup finds the named experiment.
func lookup(name string) (experiment, error) {
	for _, e := range table {
		if e.name == name {
			return e, nil
		}
	}
	return experiment{}, fmt.Errorf("experiments: unknown experiment %q (have %v)", name, Names())
}

// Render computes the named experiment's datapoints and prints them in
// the paper's layout.
func Render(w io.Writer, name string) error {
	e, err := lookup(name)
	if err != nil {
		return err
	}
	v, err := e.data()
	if err != nil {
		return err
	}
	e.print(w, v)
	return nil
}

// figure2Data is the Figure 2 address pairing of eightq's first 14 lines.
type figure2Data struct {
	Program    string   `json:"program"`
	Original   []uint32 `json:"original"`
	Compressed []uint32 `json:"compressed"`
}

func figure2() (figure2Data, error) {
	orig, comp, err := Figure2Addresses("eightq", 14)
	return figure2Data{Program: "eightq", Original: orig, Compressed: comp}, err
}

// ablationData bundles the DESIGN.md §9 ablation studies.
type ablationData struct {
	LAT       []LATRow       `json:"lat"`
	MultiCode []MultiCodeRow `json:"multi_code"`
	Overlap   []OverlapRow   `json:"overlap"`
	ISA       []ISARow       `json:"isa"`
}

func ablations() (d ablationData, err error) {
	if d.LAT, err = LATAblation(); err != nil {
		return d, err
	}
	if d.MultiCode, err = MultiCodeAblation(); err != nil {
		return d, err
	}
	if d.Overlap, err = OverlapAblation("espresso"); err != nil {
		return d, err
	}
	d.ISA, err = ISAAblation()
	return d, err
}

// extensionData bundles the future-work extension studies and the
// decoder's hardware cost.
type extensionData struct {
	Associativity []AssocRow     `json:"associativity"`
	DecodeRate    []RateRow      `json:"decode_rate"`
	BlockSize     []BlockSizeRow `json:"block_size"`
	DecoderCost   decoder.Cost   `json:"decoder_cost"`
}

func extensions() (d extensionData, err error) {
	if d.Associativity, err = AssociativityAblation("espresso"); err != nil {
		return d, err
	}
	if d.DecodeRate, err = DecodeRateAblation("espresso"); err != nil {
		return d, err
	}
	if d.BlockSize, err = BlockSizeAblation(); err != nil {
		return d, err
	}
	d.DecoderCost, err = DecoderCost()
	return d, err
}

// codePackData bundles the CodePack comparison.
type codePackData struct {
	Compression []CodePackRow     `json:"compression"`
	Performance []CodePackPerfRow `json:"performance"`
}

func codePack() (d codePackData, err error) {
	if d.Compression, err = CodePackStudy(); err != nil {
		return d, err
	}
	d.Performance, err = CodePackPerf()
	return d, err
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
		names = Names()
	}
	out := &BenchJSON{
		Schema:      1,
		Paper:       "Wolfe & Chanin, MICRO-25 1992",
		Experiments: make(map[string]any, len(names)),
	}
	for _, name := range names {
		e, err := lookup(name)
		if err != nil {
			return nil, err
		}
		if out.Experiments[name], err = e.data(); err != nil {
			return nil, err
		}
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
