package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestGolden pins every experiment's printed output: testdata/NAME.golden
// is what ccrp-bench -exp NAME prints. The corpus, the assembler, the
// compressors, the preselected code and the cycle model are all
// deterministic, so any drift in a table is an unintended behaviour
// change somewhere in the pipeline. Refresh intentionally with
// go test ./internal/experiments -run Golden -update.
func TestGolden(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			var b strings.Builder
			if err := Render(&b, name); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", name+".golden")
			if *update {
				if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update): %v", err)
			}
			if b.String() != string(want) {
				t.Errorf("output drifted from %s:\n--- got ---\n%s\n--- want ---\n%s", path, b.String(), want)
			}
		})
	}
}
