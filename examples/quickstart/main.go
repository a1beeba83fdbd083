// Quickstart: assemble a small embedded program, execute it, compress it
// into a CCRP ROM, and compare the standard processor with the CCRP on
// the paper's three memory models.
package main

import (
	"fmt"
	"log"
	"os"

	"ccrp"
)

const source = `
# Compute and print the 16-bit checksum of a table, the kind of loop an
# embedded controller runs at boot.
	.data
table:
	.word 0x1234, 0x5678, 0x9ABC, 0xDEF0, 17, 42, 1992, 25
	.equ N, 8
	.text
__start:
	la   $t0, table
	li   $t1, N
	li   $t2, 0          # checksum
loop:
	lw   $t3, 0($t0)
	addiu $t0, $t0, 4
	addu $t2, $t2, $t3
	addiu $t1, $t1, -1
	bnez $t1, loop
	nop
	andi $a0, $t2, 0xFFFF
	li   $v0, 1          # print_int
	syscall
	li   $a0, '\n'
	li   $v0, 11         # print_char
	syscall
	li   $v0, 10         # exit
	syscall
`

func main() {
	// 1. Assemble and run on the functional simulator, collecting a trace.
	fmt.Println("-- program output --")
	res, err := ccrp.RunProgram("quickstart", source, os.Stdout)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("executed %d instructions (%d loads, %d stores)\n\n",
		res.Instructions, res.Loads, res.Stores)

	prog, err := ccrp.Assemble("quickstart", source)
	if err != nil {
		log.Fatal(err)
	}

	// 2. Compress the text section with the preselected code.
	code, err := ccrp.PreselectedCode()
	if err != nil {
		log.Fatal(err)
	}
	rom, err := ccrp.BuildROM(prog.Text, ccrp.ROMOptions{Codes: []*ccrp.Code{code}})
	if err != nil {
		log.Fatal(err)
	}
	if err := rom.Verify(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("-- compression --\ntext %d bytes -> %d bytes (%.1f%%), LAT overhead %.2f%%\n\n",
		rom.OriginalSize, rom.CompressedSize(), 100*rom.Ratio(),
		100*float64(rom.TableSize())/float64(rom.OriginalSize))

	// 3. Compare standard vs CCRP on each memory model, the CCRP fetching
	// from the ROM just built.
	fmt.Println("-- standard vs CCRP --")
	for _, mem := range ccrp.MemoryModels() {
		cmp, err := ccrp.Compare(res.Trace, rom, ccrp.SystemConfig{CacheBytes: 256, Mem: mem})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-12s relative performance %.3f, memory traffic %.1f%%\n",
			mem.Name(), cmp.RelativePerformance(), 100*cmp.TrafficRatio())
	}
}
