// altcoding demonstrates the LineCodec extension point: the same CCRP
// pipeline (block-bounded compression, raw bypass, LAT, streaming refill,
// trace-driven comparison) run under two interchangeable encodings — the
// paper's preselected byte-Huffman code and the CodePack-style halfword
// dictionary scheme the field later adopted.
package main

import (
	"fmt"
	"log"

	"ccrp"
)

func main() {
	w, ok := ccrp.WorkloadByName("espresso")
	if !ok {
		log.Fatal("espresso workload missing")
	}
	tr, err := w.Trace()
	if err != nil {
		log.Fatal(err)
	}
	text, err := w.Text()
	if err != nil {
		log.Fatal(err)
	}

	// Scheme 1: the paper's preselected byte-Huffman code.
	byteCode, err := ccrp.PreselectedCode()
	if err != nil {
		log.Fatal(err)
	}

	// Scheme 2: a CodePack-style coder trained on the same corpus.
	var corpus [][]byte
	for _, cw := range ccrp.Figure5Workloads() {
		t, err := cw.Text()
		if err != nil {
			log.Fatal(err)
		}
		corpus = append(corpus, t)
	}
	cp, err := ccrp.TrainCodePack(corpus...)
	if err != nil {
		log.Fatal(err)
	}

	schemes := []struct {
		name string
		opts ccrp.ROMOptions
	}{
		{"byte-Huffman (paper)", ccrp.ROMOptions{Codes: []*ccrp.Code{byteCode}}},
		{"CodePack-style", ccrp.ROMOptions{Codec: cp}},
	}

	fmt.Printf("espresso (%d bytes of code), 256B cache:\n\n", len(text))
	for _, s := range schemes {
		rom, err := ccrp.BuildROM(text, s.opts)
		if err != nil {
			log.Fatal(err)
		}
		if err := rom.Verify(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s: ROM %.1f%% of original, %d/%d raw lines\n",
			s.name, 100*rom.Ratio(), rom.RawLines(), len(rom.Lines))
		for _, mem := range []ccrp.MemoryModel{ccrp.EPROM(), ccrp.BurstEPROM()} {
			cmp, err := ccrp.Compare(tr, rom, ccrp.SystemConfig{CacheBytes: 256, Mem: mem})
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  %-12s relative performance %.3f, traffic %.1f%%\n",
				mem.Name(), cmp.RelativePerformance(), 100*cmp.TrafficRatio())
		}
		fmt.Println()
	}
	fmt.Println("Same pipeline, swap the coder: the halfword-dictionary scheme")
	fmt.Println("compresses better at the same refill cost, which is why it is")
	fmt.Println("what this line of research became (IBM CodePack, 1998).")
}
