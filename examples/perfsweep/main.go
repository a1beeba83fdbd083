// perfsweep sweeps cache size and memory model for one workload and
// prints the paper's Table 1-8 columns, showing where compressed code
// wins (slow EPROM) and where it costs (fast burst memory) — the
// development-time tuning pass the paper recommends in §4.3.
package main

import (
	"flag"
	"fmt"
	"log"

	"ccrp"
	"ccrp/internal/tablefmt"
)

func main() {
	name := flag.String("workload", "espresso", "corpus workload to sweep")
	flag.Parse()

	w, ok := ccrp.WorkloadByName(*name)
	if !ok {
		log.Fatalf("unknown workload %q", *name)
	}
	tr, err := w.Trace()
	if err != nil {
		log.Fatal(err)
	}
	text, err := w.Text()
	if err != nil {
		log.Fatal(err)
	}
	code, err := ccrp.PreselectedCode()
	if err != nil {
		log.Fatal(err)
	}
	// The host tool compresses the program once; every point runs the
	// same ROM.
	rom, err := ccrp.BuildROM(text, ccrp.ROMOptions{Codes: []*ccrp.Code{code}})
	if err != nil {
		log.Fatal(err)
	}

	t := &tablefmt.Table{
		Title:   fmt.Sprintf("%s - relative performance by cache size and memory model", w.Name),
		Headers: []string{"Cache", "Miss Rate", "EPROM", "Burst EPROM", "DRAM", "Traffic"},
	}
	for _, cs := range []int{256, 512, 1024, 2048, 4096} {
		row := []string{fmt.Sprintf("%d", cs)}
		var miss, traffic float64
		for _, mem := range ccrp.MemoryModels() {
			cmp, err := ccrp.Compare(tr, rom, ccrp.SystemConfig{CacheBytes: cs, Mem: mem})
			if err != nil {
				log.Fatal(err)
			}
			miss, traffic = cmp.MissRate(), cmp.TrafficRatio()
			if len(row) == 1 {
				row = append(row, tablefmt.Pct(miss))
			}
			row = append(row, tablefmt.Ratio(cmp.RelativePerformance()))
		}
		row = append(row, tablefmt.Pct(traffic))
		t.AddRow(row...)
	}
	fmt.Println(t.String())
	fmt.Println("Values are CCRP cycles / standard cycles: below 1.0 the CCRP is faster.")
}
