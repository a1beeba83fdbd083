package experiments

import (
	"fmt"
	"io"

	"ccrp/internal/pagedvm"
	"ccrp/internal/workload"
)

// PagingRow is one configuration of the §5 compressed-demand-paging
// study: a workload's code paged through a small frame pool from a
// compressed backing store.
type PagingRow struct {
	Program    string
	Device     string
	Frames     int
	Faults     uint64
	StoreRatio float64 // compressed store / original store
	CycleRatio float64 // compressed fault cycles / standard fault cycles
}

// PagingStudy runs the compressed-paging future-work experiment: espresso
// (the largest code footprint), stored once in 4 KB pages under the
// preselected code, paged through 4, 8 and 16 frames on flash-like and
// disk-like devices.
func PagingStudy() ([]PagingRow, error) {
	w, ok := workload.ByName("espresso")
	if !ok {
		return nil, errUnknown("espresso")
	}
	code, err := PreselectedCode()
	if err != nil {
		return nil, err
	}
	tr, err := w.Trace()
	if err != nil {
		return nil, err
	}
	text, err := w.Text()
	if err != nil {
		return nil, err
	}
	store, err := pagedvm.BuildStore(text, code, 4096)
	if err != nil {
		return nil, err
	}
	var rows []PagingRow
	for _, dev := range []pagedvm.Device{pagedvm.Flash(), pagedvm.Disk()} {
		for _, frames := range []int{4, 8, 16} {
			res, err := pagedvm.Simulate(tr, store, frames, dev)
			if err != nil {
				return nil, err
			}
			rows = append(rows, PagingRow{
				Program:    w.Name,
				Device:     dev.Name,
				Frames:     frames,
				Faults:     res.Compressed.Faults,
				StoreRatio: res.StoreRatio,
				CycleRatio: res.CycleRatio(),
			})
		}
	}
	return rows, nil
}

// printPaging prints the compressed demand paging study.
func printPaging(w io.Writer, rows []PagingRow) {
	fmt.Fprintln(w, "Extension (§5): compressed demand paging (espresso code, 4KB pages)")
	fmt.Fprintln(w, "  Device  Frames  Faults  Store Ratio  Fault-Cycle Ratio")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-6s  %6d  %6d  %10.1f%%  %17.3f\n",
			r.Device, r.Frames, r.Faults, 100*r.StoreRatio, r.CycleRatio)
	}
}
