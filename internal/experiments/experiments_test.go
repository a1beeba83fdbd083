package experiments

import (
	"math"
	"sync"
	"testing"
)

// Shared expensive results, computed once per test binary.
var (
	t18Once sync.Once
	t18     map[string][]PerfPoint
	t18Err  error
)

func tables1to8(t *testing.T) map[string][]PerfPoint {
	t.Helper()
	t18Once.Do(func() { t18, t18Err = Tables1to8() })
	if t18Err != nil {
		t.Fatal(t18Err)
	}
	return t18
}

func TestPreselectedCode(t *testing.T) {
	code, err := PreselectedCode()
	if err != nil {
		t.Fatal(err)
	}
	if code.MaxLen() > HuffmanBound {
		t.Errorf("preselected code exceeds bound: %d bits", code.MaxLen())
	}
	for s := 0; s < 256; s++ {
		if code.Len(byte(s)) == 0 {
			t.Fatalf("preselected code missing codeword for byte %#02x", s)
		}
	}
	// Zero bytes dominate R2000 code; the preselected code must give
	// them one of its shortest codewords.
	if code.Len(0x00) > 4 {
		t.Errorf("byte 0x00 coded in %d bits", code.Len(0x00))
	}
}

func TestFigure5Claims(t *testing.T) {
	rows, err := Figure5()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 11 || rows[10].Program != "Weighted Average" {
		t.Fatalf("rows = %d, last = %q", len(rows), rows[len(rows)-1].Program)
	}
	avg := rows[10]
	// "often achieving more than 40% compression" for compress —
	// compressed size well below 70%.
	if avg.Compress > 0.70 {
		t.Errorf("weighted compress ratio = %.3f", avg.Compress)
	}
	// The paper's key claim: a single preselected code still provides a
	// significant reduction (stored size around 70-75% of original).
	if avg.Preselected > 0.80 || avg.Preselected < 0.55 {
		t.Errorf("weighted preselected ratio = %.3f outside the paper's regime", avg.Preselected)
	}
	for _, r := range rows {
		// Every method always shrinks every program.
		for name, v := range map[string]float64{
			"compress": r.Compress, "traditional": r.Traditional,
			"bounded": r.Bounded, "preselected": r.Preselected,
		} {
			if v >= 1.0 || v <= 0 {
				t.Errorf("%s/%s ratio = %.3f", r.Program, name, v)
			}
		}
		// Bounding the code can never beat the optimal unbounded code on
		// the blocks themselves; with the identical table accounting the
		// bounded column can never be smaller.
		if r.Bounded < r.Traditional-1e-9 {
			t.Errorf("%s: bounded %.4f beats traditional %.4f", r.Program, r.Bounded, r.Traditional)
		}
	}
	// On big programs whole-file LZW beats block-bounded Huffman (the
	// reason compress is the reference, and unusable, §2.1).
	for _, r := range rows[:10] {
		if r.OriginalBytes > 100000 && r.Compress >= r.Preselected {
			t.Errorf("%s: compress %.3f not better than preselected %.3f",
				r.Program, r.Compress, r.Preselected)
		}
	}
}

// TestLATOverhead: the grouped LAT costs the paper's ~3.125% of every
// Figure 5 program.
func TestLATOverhead(t *testing.T) {
	rows, err := LATAblation()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("rows = %d, want the 10 Figure 5 programs", len(rows))
	}
	for _, r := range rows {
		if math.Abs(r.GroupedOverhead-0.03125) > 0.002 {
			t.Errorf("%s: LAT overhead %.4f, want ~3.125%%", r.Program, r.GroupedOverhead)
		}
	}
}

func TestTables1to8Claims(t *testing.T) {
	res := tables1to8(t)
	if len(res) != len(PerfPrograms) {
		t.Fatalf("programs = %d", len(res))
	}
	for prog, pts := range res {
		perModel := map[string][]PerfPoint{}
		for _, p := range pts {
			perModel[p.Memory] = append(perModel[p.Memory], p)
			// §4.3: instruction memory traffic is reduced in all cases.
			if p.Traffic >= 1.0 {
				t.Errorf("%s/%s/%d: traffic ratio %.3f >= 1", prog, p.Memory, p.CacheBytes, p.Traffic)
			}
			if p.MissRate < 0 || p.MissRate > 0.5 {
				t.Errorf("%s: implausible miss rate %.4f", prog, p.MissRate)
			}
		}
		// EPROM always favors the CCRP more than burst EPROM does.
		for i, pe := range perModel["EPROM"] {
			pb := perModel["Burst EPROM"][i]
			if pe.RelPerf > pb.RelPerf+1e-9 {
				t.Errorf("%s @%d: EPROM relperf %.3f worse than burst %.3f",
					prog, pe.CacheBytes, pe.RelPerf, pb.RelPerf)
			}
			// Both systems share one cache: identical miss rates.
			if pe.MissRate != pb.MissRate {
				t.Errorf("%s @%d: miss rates differ across memory models", prog, pe.CacheBytes)
			}
		}
		// Miss rate is non-increasing in cache size.
		eprom := perModel["EPROM"]
		for i := 1; i < len(eprom); i++ {
			if eprom[i].MissRate > eprom[i-1].MissRate+1e-9 {
				t.Errorf("%s: miss rate rose from %d to %d bytes",
					prog, eprom[i-1].CacheBytes, eprom[i].CacheBytes)
			}
		}
	}
	// The fpppp cliff: high flat miss rate through 1KB, tiny from 2KB.
	var fp []PerfPoint
	for _, p := range res["fpppp"] {
		if p.Memory == "EPROM" {
			fp = append(fp, p)
		}
	}
	if fp[2].MissRate < 0.05 {
		t.Errorf("fpppp @1KB miss = %.4f, want the paper's >5%% plateau", fp[2].MissRate)
	}
	if fp[3].MissRate > 0.03 {
		t.Errorf("fpppp @2KB miss = %.4f, want the post-cliff drop", fp[3].MissRate)
	}
	// DRAM rows exist for matrix25a only and track burst EPROM.
	if len(res["matrix25a"]) != 15 {
		t.Errorf("matrix25a rows = %d, want 15 (3 models)", len(res["matrix25a"]))
	}
	for _, p := range res["nasa7"] {
		if p.Memory == "DRAM" {
			t.Error("nasa7 has DRAM rows; the paper includes DRAM for one program only")
		}
	}
	// espresso under EPROM: the CCRP wins (paper: 0.905-0.957).
	for _, p := range res["espresso"] {
		if p.Memory == "EPROM" && p.RelPerf >= 1.0 {
			t.Errorf("espresso/EPROM@%d relperf = %.3f, want < 1", p.CacheBytes, p.RelPerf)
		}
		if p.Memory == "Burst EPROM" && p.RelPerf <= 1.0 {
			t.Errorf("espresso/Burst@%d relperf = %.3f, want > 1", p.CacheBytes, p.RelPerf)
		}
	}
}

func TestTables9and10Claims(t *testing.T) {
	res, err := Tables9and10()
	if err != nil {
		t.Fatal(err)
	}
	for prog, pts := range res {
		type key struct {
			mem string
			cs  int
		}
		byCfg := map[key]map[int]float64{}
		for _, p := range pts {
			k := key{p.Memory, p.CacheBytes}
			if byCfg[k] == nil {
				byCfg[k] = map[int]float64{}
			}
			byCfg[k][p.CLBEntries] = p.RelPerf
		}
		for k, m := range byCfg {
			// A larger CLB can only help the CCRP.
			if m[16] > m[8]+1e-9 || m[8] > m[4]+1e-9 {
				t.Errorf("%s %v: relperf not monotone in CLB size: 16=%.4f 8=%.4f 4=%.4f",
					prog, k, m[16], m[8], m[4])
			}
			// The paper: variations with CLB size are minor.
			if m[4]-m[16] > 0.15 {
				t.Errorf("%s %v: CLB effect implausibly large: %.4f", prog, k, m[4]-m[16])
			}
		}
	}
}

func TestFigure9Claims(t *testing.T) {
	pts, err := Figure9()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != len(PerfPrograms)*3*len(CacheSizes) {
		t.Fatalf("points = %d", len(pts))
	}
	// The paper's correlation: for slow EPROM, higher miss rate means the
	// compressed model wins by more (relperf falls); for fast memory the
	// opposite. Check via covariance sign on each model's point cloud.
	cov := func(model string) float64 {
		var xs, ys []float64
		for _, p := range pts {
			if p.Memory == model {
				xs = append(xs, p.MissRate)
				ys = append(ys, p.RelPerf)
			}
		}
		var mx, my float64
		for i := range xs {
			mx += xs[i]
			my += ys[i]
		}
		mx /= float64(len(xs))
		my /= float64(len(ys))
		var c float64
		for i := range xs {
			c += (xs[i] - mx) * (ys[i] - my)
		}
		return c
	}
	if c := cov("EPROM"); c >= 0 {
		t.Errorf("EPROM miss-rate/relperf covariance = %g, want negative", c)
	}
	if c := cov("Burst EPROM"); c <= 0 {
		t.Errorf("Burst EPROM covariance = %g, want positive", c)
	}
	if c := cov("DRAM"); c <= 0 {
		t.Errorf("DRAM covariance = %g, want positive", c)
	}
}

func TestTables11to13Claims(t *testing.T) {
	res, err := Tables11to13()
	if err != nil {
		t.Fatal(err)
	}
	for prog, pts := range res {
		perModel := map[string][]PerfPoint{}
		for _, p := range pts {
			perModel[p.Memory] = append(perModel[p.Memory], p)
		}
		for model, series := range perModel {
			// §4.2.4: as the data cache miss rate increases, the CCRP's
			// effect on performance is diluted toward 1.0.
			for i := 1; i < len(series); i++ {
				prev := math.Abs(1 - series[i-1].RelPerf)
				cur := math.Abs(1 - series[i].RelPerf)
				if cur > prev+1e-9 {
					t.Errorf("%s/%s: |1-relperf| grew from dmiss %.0f%% to %.0f%%",
						prog, model, 100*series[i-1].DCacheMissRate, 100*series[i].DCacheMissRate)
				}
			}
		}
	}
}

func TestAblations(t *testing.T) {
	al, err := Figure1Alignment()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range al {
		if r.WordAligned < r.ByteAligned-1e-9 {
			t.Errorf("%s: word alignment %.4f beats byte alignment %.4f",
				r.Program, r.WordAligned, r.ByteAligned)
		}
	}
	lr, err := LATAblation()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range lr {
		if r.NaiveOverhead <= r.GroupedOverhead {
			t.Errorf("%s: naive LAT %.4f not worse than grouped %.4f",
				r.Program, r.NaiveOverhead, r.GroupedOverhead)
		}
		if math.Abs(r.NaiveOverhead-0.125) > 0.01 {
			t.Errorf("%s: naive overhead %.4f, want ~12.5%%", r.Program, r.NaiveOverhead)
		}
	}
	mc, err := MultiCodeAblation()
	if err != nil {
		t.Fatal(err)
	}
	better := 0
	for _, r := range mc {
		if r.TwoCodes < r.SingleCode {
			better++
		}
	}
	if better == 0 {
		t.Error("two-code scheme never beat the single code on any program")
	}
	ov, err := OverlapAblation("espresso")
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(ov); i++ {
		// Overlap hides refill cycles from both systems.
		if ov[i].CyclesCCRP >= ov[i-1].CyclesCCRP || ov[i].CyclesStd >= ov[i-1].CyclesStd {
			t.Errorf("overlap %d did not reduce cycles: ccrp %d->%d std %d->%d",
				ov[i].OverlapCycles, ov[i-1].CyclesCCRP, ov[i].CyclesCCRP,
				ov[i-1].CyclesStd, ov[i].CyclesStd)
		}
	}
	isa, err := ISAAblation()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range isa {
		if r.Stream == "dense-ISA" && r.Preselected < 0.95 {
			t.Errorf("dense stream compressed to %.3f under the R2000 code; it should not", r.Preselected)
		}
		if r.Preselected < r.StreamTuned-1e-9 {
			t.Errorf("%s: R2000 code %.4f beats the stream-tuned code %.4f",
				r.Stream, r.Preselected, r.StreamTuned)
		}
	}
	if _, err := OverlapAblation("nonexistent"); err == nil {
		t.Error("OverlapAblation accepted unknown workload")
	}
	if _, _, err := Figure2Addresses("nonexistent", 5); err == nil {
		t.Error("Figure2Addresses accepted unknown workload")
	}
}

func TestFigure2Addresses(t *testing.T) {
	orig, comp, err := Figure2Addresses("eightq", 12)
	if err != nil {
		t.Fatal(err)
	}
	if len(orig) != 12 || len(comp) != 12 {
		t.Fatalf("lengths %d/%d", len(orig), len(comp))
	}
	for i := 1; i < len(comp); i++ {
		if comp[i] <= comp[i-1] {
			t.Error("compressed addresses not strictly increasing")
		}
		if comp[i] > orig[i] {
			t.Error("compressed image larger than original prefix")
		}
	}
}

func TestExtensionAblations(t *testing.T) {
	// Decoder rate: §3.4's "decode speed is a major limiting factor" —
	// relative performance improves monotonically with decoder rate, and
	// a wide decoder turns the burst-EPROM penalty into a win.
	rates, err := DecodeRateAblation("espresso")
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(rates); i++ {
		if rates[i].RelPerf >= rates[i-1].RelPerf {
			t.Errorf("rate %d did not improve relperf: %.3f vs %.3f",
				rates[i].Rate, rates[i].RelPerf, rates[i-1].RelPerf)
		}
	}
	if rates[0].Rate != 1 || rates[0].RelPerf < 1.5 {
		t.Errorf("1 B/cycle decoder should be crippling, got %.3f", rates[0].RelPerf)
	}
	if last := rates[len(rates)-1]; last.RelPerf > 1.05 {
		t.Errorf("8 B/cycle decoder still penalized: %.3f", last.RelPerf)
	}

	// Block size: compression improves monotonically with block size
	// (§2.1), with diminishing returns past 32 bytes.
	blocks, err := BlockSizeAblation()
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(blocks); i++ {
		if blocks[i].Ratio > blocks[i-1].Ratio+1e-9 {
			t.Errorf("ratio rose from %dB to %dB blocks", blocks[i-1].BlockBytes, blocks[i].BlockBytes)
		}
	}
	if blocks[0].Ratio-blocks[len(blocks)-1].Ratio < 0.02 {
		t.Error("block size made no difference; §2.1 tradeoff not visible")
	}

	// Associativity: espresso's misses are capacity misses, so extra
	// ways move the needle very little at small sizes (refining §4.3's
	// remark: what espresso needs is a larger cache).
	assoc, err := AssociativityAblation("espresso")
	if err != nil {
		t.Fatal(err)
	}
	if len(assoc) != 9 {
		t.Fatalf("assoc rows = %d", len(assoc))
	}
	for _, r := range assoc {
		if r.MissRate <= 0 || r.MissRate > 0.25 || r.RelPerf >= 1.0 {
			t.Errorf("implausible assoc row: %+v", r)
		}
	}

	// Decoder hardware cost (§3.4): a complete byte code always has 255
	// internal FSM states and 256 CAM entries; the mapping ROM is
	// 2^maxlen entries.
	cost, err := DecoderCost()
	if err != nil {
		t.Fatal(err)
	}
	if cost.FSMStates != 255 || cost.CAMEntries != 256 {
		t.Errorf("decoder cost = %+v", cost)
	}
	code, _ := PreselectedCode()
	if wantEntries := 1 << uint(code.MaxLen()); cost.ROMBits%wantEntries != 0 {
		t.Errorf("ROM bits %d not a multiple of entries %d", cost.ROMBits, wantEntries)
	}

	if _, err := AssociativityAblation("nope"); err == nil {
		t.Error("unknown workload accepted")
	}
	if _, err := DecodeRateAblation("nope"); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestPagingStudy(t *testing.T) {
	rows, err := PagingStudy()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.CycleRatio >= 1 {
			t.Errorf("%s/%d frames: paging cycle ratio %.3f, want < 1", r.Device, r.Frames, r.CycleRatio)
		}
		if r.StoreRatio >= 1 || r.StoreRatio < 0.5 {
			t.Errorf("store ratio %.3f implausible", r.StoreRatio)
		}
		if r.Faults == 0 {
			t.Errorf("%s/%d frames: no faults recorded", r.Device, r.Frames)
		}
	}
	// Thrashing with 4 frames must fault far more than a fitting pool.
	if rows[0].Faults <= rows[1].Faults {
		t.Errorf("4-frame faults %d not above 8-frame %d", rows[0].Faults, rows[1].Faults)
	}
}

func TestCodePackStudy(t *testing.T) {
	rows, err := CodePackStudy()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		// The halfword-dictionary scheme must beat byte Huffman on every
		// program (that superiority is why CodePack displaced it).
		if r.CodePack >= r.ByteHuffman {
			t.Errorf("%s: codepack %.3f not better than byte huffman %.3f",
				r.Program, r.CodePack, r.ByteHuffman)
		}
		if r.CodePack < 0.4 || r.CodePack > 0.8 {
			t.Errorf("%s: codepack ratio %.3f implausible", r.Program, r.CodePack)
		}
		// In the decode-bound burst regime both schemes sit at the
		// 16-cycle + first-word floor; CodePack gains compression for free.
		if r.CPRefill > r.ByteRefill+1.0 {
			t.Errorf("%s: codepack refill %.1f much worse than byte %.1f",
				r.Program, r.CPRefill, r.ByteRefill)
		}
	}
}

func TestCodePackPerf(t *testing.T) {
	rows, err := CodePackPerf()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		// The better-compressing scheme always moves fewer bytes.
		if r.CPTraffic >= r.ByteTraffic {
			t.Errorf("%s/%s: codepack traffic %.3f not below byte %.3f",
				r.Program, r.Memory, r.CPTraffic, r.ByteTraffic)
		}
		// On fetch-bound EPROM, less traffic means faster refills.
		if r.Memory == "EPROM" && r.CPRelPerf >= r.ByteRelPerf {
			t.Errorf("%s/EPROM: codepack relperf %.3f not better than byte %.3f",
				r.Program, r.CPRelPerf, r.ByteRelPerf)
		}
	}
}
