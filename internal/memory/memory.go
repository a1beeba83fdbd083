// Package memory provides the instruction-memory timing models of the
// paper's §4.2.1, in processor cycles (40 ns at 25 MHz):
//
//   - EPROM: standard EPROMs, ~100 ns access; every word read takes 3
//     cycles, with no burst capability.
//   - Burst EPROM: 3 cycles for the first word of a sequential burst,
//     then 1 cycle per subsequent word.
//   - Static-column DRAM: 4 cycles for the first word, 1 per subsequent
//     word, and the array cannot be accessed for 2 cycles after a burst
//     (precharge).
//
// Models expose per-word arrival times so the CCRP refill engine can
// overlap Huffman decoding with the incoming compressed word stream.
package memory

// Model is an instruction-memory timing model.
type Model interface {
	// Name identifies the model in experiment tables.
	Name() string
	// WordArrival returns the cycle, counted from the start of a
	// sequential burst, at which word i (0-based) has been read.
	WordArrival(i int) uint64
	// BurstCycles returns the completion time of an n-word sequential
	// read, excluding any post-burst penalty.
	BurstCycles(n int) uint64
	// PostBurstCycles returns the recovery time after a burst before the
	// next access can start (DRAM precharge).
	PostBurstCycles() uint64
}

// EPROM is the standard-EPROM model: 3 cycles per word, no burst mode.
type EPROM struct{}

func (EPROM) Name() string             { return "EPROM" }
func (EPROM) WordArrival(i int) uint64 { return 3 * uint64(i+1) }
func (EPROM) BurstCycles(n int) uint64 { return 3 * uint64(n) }
func (EPROM) PostBurstCycles() uint64  { return 0 }

// BurstEPROM is the burst-mode EPROM model: 3 cycles for the first word,
// 1 for each subsequent word of a sequential read.
type BurstEPROM struct{}

func (BurstEPROM) Name() string             { return "Burst EPROM" }
func (BurstEPROM) WordArrival(i int) uint64 { return 3 + uint64(i) }
func (BurstEPROM) BurstCycles(n int) uint64 {
	if n == 0 {
		return 0
	}
	return 2 + uint64(n)
}
func (BurstEPROM) PostBurstCycles() uint64 { return 0 }

// SCDRAM is the static-column DRAM model (70 ns 4M-bit parts): 4 cycles
// for the first word, 1 per subsequent word, 2 cycles of precharge after
// each burst.
type SCDRAM struct{}

func (SCDRAM) Name() string             { return "DRAM" }
func (SCDRAM) WordArrival(i int) uint64 { return 4 + uint64(i) }
func (SCDRAM) BurstCycles(n int) uint64 {
	if n == 0 {
		return 0
	}
	return 3 + uint64(n)
}
func (SCDRAM) PostBurstCycles() uint64 { return 2 }

// Models returns the three paper configurations in presentation order.
func Models() []Model { return []Model{EPROM{}, BurstEPROM{}, SCDRAM{}} }

// ByName returns the model with the given Name.
func ByName(name string) (Model, bool) {
	for _, m := range Models() {
		if m.Name() == name {
			return m, true
		}
	}
	return nil, false
}
