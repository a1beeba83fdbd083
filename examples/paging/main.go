// paging demonstrates the paper's §5 conjecture — "there may be some
// benefit to implementing similar methods for demand-paged virtual
// memory as well" — by paging a large workload's code from a compressed
// backing store through a small frame pool, on a transfer-bound flash
// device and a seek-bound disk.
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
	code, err := ccrp.PreselectedCode()
	if err != nil {
		log.Fatal(err)
	}

	store, err := ccrp.BuildPageStore(text, code, 4096)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("espresso code: %d pages of 4KB, stored at %.1f%% of original\n\n",
		store.Pages(), 100*store.Ratio())

	fmt.Println("Frame pool  Device  Faults  Transfer saved  Fault-time ratio")
	for _, dev := range []ccrp.PagingDevice{ccrp.FlashDevice(), ccrp.DiskDevice()} {
		for _, frames := range []int{4, 8} {
			res, err := ccrp.SimulatePaging(tr, store, frames, dev)
			if err != nil {
				log.Fatal(err)
			}
			saved := 1 - float64(res.Compressed.TransferBytes)/float64(res.Standard.TransferBytes)
			fmt.Printf("%10d  %-6s  %6d  %13.1f%%  %16.3f\n",
				frames, dev.Name, res.Compressed.Faults, 100*saved, res.CycleRatio())
		}
	}
	fmt.Println("\nThe same tradeoff as the cache refill engine, one level down the")
	fmt.Println("hierarchy: where transfer dominates (flash), compression cuts fault")
	fmt.Println("time by the compression ratio; where seek latency dominates (disk),")
	fmt.Println("the win shrinks but never inverts — decode overlaps the transfer.")
}
