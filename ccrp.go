// Package ccrp is a full reproduction of the Compressed Code RISC
// Processor of Wolfe & Chanin, "Executing Compressed Programs on An
// Embedded RISC Architecture" (MICRO-25, 1992).
//
// A CCRP is a standard RISC core whose instruction cache refill engine
// decompresses code on the fly: programs are compiled normally, each
// 32-byte cache line is Huffman-compressed by a host tool, a Line Address
// Table (LAT) maps program line addresses to compressed block locations,
// and a TLB-like CLB caches LAT entries so the translation is free on the
// common path. Everything above the refill engine — the pipeline, the
// programmer's model, every code address — is unchanged.
//
// This package is the stable facade over the full system:
//
//   - a MIPS R2000 assembler and functional simulator (the paper's
//     compiler/pixie substrate) — Assemble, NewMachine;
//   - the Huffman machinery, including package-merge length-limited codes
//     and the corpus-wide Preselected Bounded Huffman code — HistogramOf,
//     BuildBoundedCode, PreselectedCode;
//   - the compression tool and ROM image model — BuildROM;
//   - the trace-driven system simulator comparing a standard processor
//     with a CCRP over EPROM, burst EPROM, and static-column DRAM
//     instruction memories — Compare, which runs a trace over a built
//     ROM on the machine a SystemConfig describes;
//   - compressed demand paging, the paper's §5 extension — BuildPageStore
//     and SimulatePaging, which pages a trace from a built store;
//   - the benchmark corpus mirroring the paper's programs — Workloads;
//   - every table and figure of the paper's evaluation — Figure5,
//     Tables1to8, Tables9and10, Figure9, Tables11to13, and RenderAll.
//
// The type names below are aliases for the implementation packages, so
// values returned here interoperate with the whole module.
package ccrp

import (
	"io"

	"ccrp/internal/asm"
	"ccrp/internal/codepack"
	"ccrp/internal/core"
	"ccrp/internal/experiments"
	"ccrp/internal/huffman"
	"ccrp/internal/memory"
	"ccrp/internal/pagedvm"
	"ccrp/internal/sim"
	"ccrp/internal/trace"
	"ccrp/internal/workload"
)

// Core system types.
type (
	// Program is a linked R2000 image (text at address 0, data at 1 MB).
	Program = asm.Program
	// Machine is a functional R2000 simulator instance.
	Machine = sim.Machine
	// SimConfig controls a simulation run.
	SimConfig = sim.Config
	// SimResult summarizes a completed run (instructions, stalls, trace).
	SimResult = sim.Result
	// Trace is an instruction-address trace (the pixie substitute),
	// recorded as runs of sequential fetches.
	Trace = trace.Trace
	// Histogram is a byte frequency-of-occurrence histogram.
	Histogram = huffman.Histogram
	// Code is a canonical (optionally length-limited) Huffman code.
	Code = huffman.Code
	// ROM is a compressed program image: blocks plus Line Address Table.
	ROM = core.ROM
	// ROMOptions configures ROM compression: Huffman codes or one other
	// codec, and alignment. BuildROM codes every line through the list of
	// LineCodecs they resolve to.
	ROMOptions = core.Options
	// SystemConfig describes one simulated machine (cache, CLB, memory,
	// decoder); the program image it runs is a ROM.
	SystemConfig = core.Config
	// Comparison is the standard-vs-CCRP outcome for one trace.
	Comparison = core.Comparison
	// SystemStats are one system's execution costs.
	SystemStats = core.Stats
	// MemoryModel is an instruction-memory timing model.
	MemoryModel = memory.Model
	// Workload is one corpus benchmark.
	Workload = workload.Workload
	// PerfPoint is one row/point of the paper's performance tables.
	PerfPoint = experiments.PerfPoint
	// Figure5Row is one bar group of the Figure 5 comparison.
	Figure5Row = experiments.Figure5Row
	// PagingDevice is a backing-store timing model for compressed
	// demand paging (the paper's §5 future-work direction).
	PagingDevice = pagedvm.Device
	// PagingResult compares compressed against standard paging.
	PagingResult = pagedvm.Result
	// PageStore is a page-compressed program image.
	PageStore = pagedvm.Store
	// LineCodec is one per-line compression scheme: BuildROM sizes,
	// encodes, decodes and prices every line through a list of them (the
	// Huffman codes, or ROMOptions.Codec), so downstream users can plug
	// their own coder into the CCRP pipeline.
	LineCodec = core.LineCodec
	// CodePackCoder is the CodePack-style halfword-dictionary coder.
	CodePackCoder = codepack.Coder
)

// LineSize is the cache line / compression block size (32 bytes).
const LineSize = core.LineSize

// HuffmanBound is the paper's 16-bit codeword cap.
const HuffmanBound = experiments.HuffmanBound

// Assemble builds a Program from MIPS assembly source. The name is used
// in diagnostics only.
func Assemble(name, source string) (*Program, error) { return asm.Assemble(name, source) }

// NewMachine loads prog into a fresh functional simulator.
func NewMachine(prog *Program, cfg SimConfig) *Machine { return sim.New(prog, cfg) }

// RunProgram assembles, loads, and executes source with tracing enabled,
// writing console output (if any) to stdout. It is the quickest path from
// assembly source to an instruction trace.
func RunProgram(name, source string, stdout io.Writer) (*SimResult, error) {
	prog, err := Assemble(name, source)
	if err != nil {
		return nil, err
	}
	m := NewMachine(prog, SimConfig{Stdout: stdout, CollectTrace: true})
	return m.Run()
}

// HistogramOf builds a byte histogram over the given buffers.
func HistogramOf(bufs ...[]byte) *Histogram { return huffman.HistogramOf(bufs...) }

// BuildBoundedCode builds an optimal length-limited Huffman code
// (package-merge) with no codeword longer than maxLen bits.
func BuildBoundedCode(h *Histogram, maxLen int) (*Code, error) {
	return huffman.BuildBounded(h, maxLen)
}

// BuildTraditionalCode builds an optimal unbounded Huffman code.
func BuildTraditionalCode(h *Histogram) (*Code, error) { return huffman.BuildTraditional(h) }

// PreselectedCode returns the paper's Preselected Bounded Huffman code:
// one fixed 16-bit-bounded code trained on the ten-program corpus and
// hardwired in the decoder.
func PreselectedCode() (*Code, error) { return experiments.PreselectedCode() }

// BuildROM compresses a text image line by line into a CCRP ROM.
func BuildROM(text []byte, opts ROMOptions) (*ROM, error) { return core.BuildROM(text, opts) }

// Compare runs a trace through the standard and CCRP system models, the
// CCRP fetching from rom, the traced program's compressed image. A ROM is
// only read, so one may serve many configurations and concurrent calls.
func Compare(tr *Trace, rom *ROM, cfg SystemConfig) (*Comparison, error) {
	return core.Compare(tr, rom, cfg)
}

// Memory models of the paper's §4.2.1.
func EPROM() MemoryModel      { return memory.EPROM{} }
func BurstEPROM() MemoryModel { return memory.BurstEPROM{} }
func SCDRAM() MemoryModel     { return memory.SCDRAM{} }

// MemoryModels returns all three models in presentation order.
func MemoryModels() []MemoryModel { return memory.Models() }

// Workloads returns the benchmark corpus.
func Workloads() []*Workload { return workload.All() }

// WorkloadByName finds one corpus program, R2000 or RV32.
func WorkloadByName(name string) (*Workload, bool) { return workload.ByName(name) }

// Figure5Workloads returns the ten Figure 5 programs in the paper's order.
func Figure5Workloads() []*Workload { return workload.Figure5Set() }

// Experiment entry points (see DESIGN.md's experiment index).
func Figure5() ([]Figure5Row, error)                { return experiments.Figure5() }
func Tables1to8() (map[string][]PerfPoint, error)   { return experiments.Tables1to8() }
func Tables9and10() (map[string][]PerfPoint, error) { return experiments.Tables9and10() }
func Figure9() ([]PerfPoint, error)                 { return experiments.Figure9() }
func Tables11to13() (map[string][]PerfPoint, error) { return experiments.Tables11to13() }

// NewHuffmanCodec wraps a byte-Huffman code as a LineCodec.
func NewHuffmanCodec(code *Code) LineCodec { return core.NewHuffmanCodec(code) }

// TrainCodePack builds a CodePack-style coder from instruction images
// (the §5 "more sophisticated encoding" successor scheme). The result is
// a LineCodec: set as ROMOptions.Codec, it codes every line of the ROM in
// place of the Huffman codes.
func TrainCodePack(images ...[]byte) (*CodePackCoder, error) {
	return codepack.Train(images...)
}

// Compressed demand paging (§5 future work; see internal/pagedvm).
func FlashDevice() PagingDevice { return pagedvm.Flash() }
func DiskDevice() PagingDevice  { return pagedvm.Disk() }

// BuildPageStore compresses image into pageBytes pages under code.
func BuildPageStore(image []byte, code *Code, pageBytes int) (*PageStore, error) {
	return pagedvm.BuildStore(image, code, pageBytes)
}

// SimulatePaging pages a program's code from store, its page-compressed
// image (BuildPageStore), through a frames-page LRU pool driven by its
// instruction trace, comparing the compressed store against paging the
// same pages uncompressed. The page size is the store's.
func SimulatePaging(tr *Trace, store *PageStore, frames int, dev PagingDevice) (*PagingResult, error) {
	return pagedvm.Simulate(tr, store, frames, dev)
}

// RenderAll writes every reproduced table and figure, plus the ablation
// and extension studies, to w in the paper's layout: the experiments
// ccrp-bench -exp all prints, in its order.
func RenderAll(w io.Writer) error {
	for _, name := range experiments.Names() {
		if err := experiments.Render(w, name); err != nil {
			return err
		}
	}
	return nil
}
