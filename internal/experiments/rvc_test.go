package experiments

import "testing"

func TestRVCComparison(t *testing.T) {
	rows, err := RVCComparison()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 3 { // >= 2 programs plus the weighted average
		t.Fatalf("rows = %d, want at least 2 programs + average", len(rows))
	}
	if rows[len(rows)-1].Program != "Weighted Average" {
		t.Fatalf("last row = %q, want the weighted average", rows[len(rows)-1].Program)
	}
	for _, r := range rows {
		// RVC halves only the words with 16-bit forms, so its ratio is
		// pinned to [50%, 100%) and tied to the compressible fraction.
		if r.RVC < 0.5 || r.RVC >= 1.0 {
			t.Errorf("%s: RVC ratio %.3f out of range", r.Program, r.RVC)
		}
		if got := 1 - r.Compressible/2; !approxEq(got, r.RVC) {
			t.Errorf("%s: RVC %.4f inconsistent with compressible fraction %.4f",
				r.Program, r.RVC, r.Compressible)
		}
		// The paper's core claim carried over: per-program bounded
		// Huffman over full words out-compresses the fixed 16-bit forms.
		if r.Bounded >= r.RVC {
			t.Errorf("%s: bounded %.3f not better than RVC %.3f",
				r.Program, r.Bounded, r.RVC)
		}
		// The cost of that ratio: a serial decode of more than 16 bits
		// per instruction vs. RVC's single-cycle expansion.
		if r.DecodeBits <= 16 || r.DecodeBits > 32 {
			t.Errorf("%s: decode bits/inst %.1f implausible", r.Program, r.DecodeBits)
		}
	}
}

func approxEq(a, b float64) bool { d := a - b; return d < 1e-9 && d > -1e-9 }
