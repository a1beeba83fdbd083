// Package pagedvm explores the paper's §5 suggestion that "the
// similarity of the CLB/LAT structure to the TLB/page table structure
// indicates that there may be some benefit to implementing similar
// methods for demand-paged virtual memory as well": program pages are
// stored compressed in the backing store and decompressed on page fault,
// trading decode time against transfer volume exactly the way cache
// refills trade decode time against EPROM reads.
//
// A Store compresses a program image page by page (whole-page Huffman
// coding with a raw fallback, since pages need no intra-page random
// access); a Pager simulates a small frame pool with LRU replacement over
// an instruction trace and costs each fault under a transfer-device
// model. The standard system pages the uncompressed image from the same
// device.
package pagedvm

import (
	"bytes"
	"errors"
	"fmt"

	"ccrp/internal/huffman"
	"ccrp/internal/trace"
)

// Device is a backing-store timing model: a fixed access latency plus a
// per-byte streaming transfer cost, in processor cycles.
type Device struct {
	Name          string
	LatencyCycles uint64
	CyclesPerByte float64
	DecodeRate    int // decompressor bytes/cycle during page-in; 0 = 2, negative is rejected
}

// Flash is a fast NOR-flash-like device: cheap latency, 1 cycle/byte.
func Flash() Device { return Device{Name: "flash", LatencyCycles: 500, CyclesPerByte: 1} }

// Disk is a slow device where transfer volume dominates.
func Disk() Device { return Device{Name: "disk", LatencyCycles: 50000, CyclesPerByte: 4} }

func (d Device) rate() int {
	if d.DecodeRate == 0 {
		return 2
	}
	return d.DecodeRate
}

// faultCycles costs paging in storedBytes that expand to pageBytes.
// Transfer and decode stream-overlap, as in the CCRP refill engine.
func (d Device) faultCycles(storedBytes, pageBytes int, compressed bool) uint64 {
	transfer := uint64(float64(storedBytes) * d.CyclesPerByte)
	if !compressed {
		return d.LatencyCycles + transfer
	}
	decode := uint64(pageBytes / d.rate())
	if decode > transfer {
		transfer = decode
	}
	return d.LatencyCycles + transfer
}

// Store is a compressed program image, one independently-compressed page
// at a time.
type Store struct {
	PageBytes int
	code      *huffman.Code
	pages     [][]byte // stored form
	raw       []bool
	origLen   int
}

// ErrBadPage is returned for out-of-range page indices.
var ErrBadPage = errors.New("pagedvm: page out of range")

// ErrDecodeRate is returned by Simulate for a device with a negative
// decode rate. A rate of 0 selects 2 bytes per cycle.
var ErrDecodeRate = errors.New("pagedvm: negative decode rate")

// BuildStore compresses image into pageBytes pages under code.
func BuildStore(image []byte, code *huffman.Code, pageBytes int) (*Store, error) {
	if pageBytes <= 0 || pageBytes&(pageBytes-1) != 0 {
		return nil, fmt.Errorf("pagedvm: page size %d not a power of two", pageBytes)
	}
	s := &Store{PageBytes: pageBytes, code: code, origLen: len(image)}
	for off := 0; off < len(image); off += pageBytes {
		end := off + pageBytes
		if end > len(image) {
			end = len(image)
		}
		page := make([]byte, pageBytes)
		copy(page, image[off:end])
		enc, err := code.EncodeToBytes(page)
		if err != nil {
			return nil, err
		}
		if len(enc) >= pageBytes {
			s.pages = append(s.pages, page) // raw fallback
			s.raw = append(s.raw, true)
		} else {
			s.pages = append(s.pages, enc)
			s.raw = append(s.raw, false)
		}
	}
	return s, nil
}

// Pages returns the page count.
func (s *Store) Pages() int { return len(s.pages) }

// StoredBytes returns the compressed size of page i.
func (s *Store) StoredBytes(i int) (int, error) {
	if i < 0 || i >= len(s.pages) {
		return 0, ErrBadPage
	}
	return len(s.pages[i]), nil
}

// TotalStored returns the whole store's size.
func (s *Store) TotalStored() int {
	n := 0
	for _, p := range s.pages {
		n += len(p)
	}
	return n
}

// Ratio returns stored size over original (page-padded) size.
func (s *Store) Ratio() float64 {
	return float64(s.TotalStored()) / float64(len(s.pages)*s.PageBytes)
}

// ReadPage decompresses page i.
func (s *Store) ReadPage(i int) ([]byte, error) {
	out := make([]byte, s.PageBytes)
	if err := s.ReadPageInto(i, out); err != nil {
		return nil, err
	}
	return out, nil
}

// ReadPageInto decompresses page i into dst, which must be exactly
// PageBytes long — the zero-allocation form of ReadPage, decoding
// through the multi-symbol kernel into a caller-owned frame.
func (s *Store) ReadPageInto(i int, dst []byte) error {
	if i < 0 || i >= len(s.pages) {
		return ErrBadPage
	}
	if len(dst) != s.PageBytes {
		return fmt.Errorf("pagedvm: page buffer is %d bytes, want %d", len(dst), s.PageBytes)
	}
	if s.raw[i] {
		n := copy(dst, s.pages[i])
		for j := n; j < len(dst); j++ {
			dst[j] = 0
		}
		return nil
	}
	if err := s.code.Multi().DecodeInto(dst, s.pages[i]); err != nil {
		return fmt.Errorf("pagedvm: page %d: %w", i, err)
	}
	return nil
}

// Verify round-trips every page against the original image, zero
// padding included, decoding each page in turn into one reused frame.
func (s *Store) Verify(image []byte) error {
	got := make([]byte, s.PageBytes)
	want := make([]byte, s.PageBytes)
	for i := range s.pages {
		if err := s.ReadPageInto(i, got); err != nil {
			return err
		}
		clear(want)
		if off := i * s.PageBytes; off < len(image) {
			copy(want, image[off:])
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("pagedvm: page %d corrupt", i)
		}
	}
	return nil
}

// Stats summarizes one pager run.
type Stats struct {
	Accesses      uint64
	Faults        uint64
	FaultCycles   uint64
	TransferBytes uint64
}

// Result compares compressed against standard paging for one trace.
type Result struct {
	Compressed Stats
	Standard   Stats
	StoreRatio float64
}

// CycleRatio is compressed fault cycles over standard fault cycles.
func (r Result) CycleRatio() float64 {
	if r.Standard.FaultCycles == 0 {
		return 1
	}
	return float64(r.Compressed.FaultCycles) / float64(r.Standard.FaultCycles)
}

// Simulate pages the traced program's code from store, its compressed
// image, through a frames-page LRU pool under dev; the standard system
// pages the same pages uncompressed. Both systems see the identical
// fault sequence (page residency does not depend on compression), so the
// comparison isolates fault cost, as core.Compare does for refills. A
// page holds at least one trace line (32 bytes). A device with a
// negative decode rate is rejected with ErrDecodeRate. The store is only
// read, so concurrent Simulate calls may share one.
func Simulate(tr *trace.Trace, store *Store, frames int, dev Device) (*Result, error) {
	if frames < 1 {
		return nil, fmt.Errorf("pagedvm: need at least one frame")
	}
	if dev.DecodeRate < 0 {
		return nil, fmt.Errorf("%w: %s at %d", ErrDecodeRate, dev.Name, dev.DecodeRate)
	}
	pageBytes := store.PageBytes
	if pageBytes < trace.LineBytes {
		return nil, fmt.Errorf("pagedvm: page size %d is below the trace's %d-byte line", pageBytes, trace.LineBytes)
	}
	res := &Result{StoreRatio: store.Ratio()}

	type frame struct {
		page int
		used uint64
	}
	pool := make([]frame, 0, frames)
	var clock uint64
	// A run's fetches share one line, and so one page: its first fetch
	// decides hit or fault, and the others touch the page it left most
	// recently used.
	for _, run := range tr.Events {
		page := int(run.PC) / pageBytes
		if page >= store.Pages() {
			return nil, fmt.Errorf("pagedvm: fetch %#x outside image", run.PC)
		}
		n := uint64(run.N)
		clock += n
		res.Compressed.Accesses += n
		res.Standard.Accesses += n
		hit := false
		for i := range pool {
			if pool[i].page == page {
				pool[i].used = clock
				hit = true
				break
			}
		}
		if hit {
			continue
		}
		res.Compressed.Faults++
		res.Standard.Faults++
		stored, _ := store.StoredBytes(page)
		res.Compressed.FaultCycles += dev.faultCycles(stored, pageBytes, true)
		res.Compressed.TransferBytes += uint64(stored)
		res.Standard.FaultCycles += dev.faultCycles(pageBytes, pageBytes, false)
		res.Standard.TransferBytes += uint64(pageBytes)
		if len(pool) < frames {
			pool = append(pool, frame{page: page, used: clock})
		} else {
			victim := 0
			for i := range pool {
				if pool[i].used < pool[victim].used {
					victim = i
				}
			}
			pool[victim] = frame{page: page, used: clock}
		}
	}
	return res, nil
}
