// controller is the paper's motivating scenario end to end: an automobile
// engine controller on an embedded R2000. The control program (ignition
// advance from an RPM/load map with interpolation, plus a knock-retard
// loop) is assembled, executed for a simulated burst of engine cycles,
// and then evaluated as a CCRP: how much EPROM does compression save, and
// what does it do to control-loop latency on cheap EPROM parts?
package main

import (
	"fmt"
	"log"
	"os"

	"ccrp"
)

const controller = `
	.equ CYCLES, 4000
	.data
# 8x8 ignition advance map, degrees BTDC (rows: RPM bands, cols: load).
advmap:
	.byte 10, 12, 14, 16, 18, 20, 22, 24
	.byte 11, 13, 15, 17, 19, 21, 23, 25
	.byte 12, 14, 16, 18, 21, 23, 25, 27
	.byte 13, 15, 18, 20, 23, 25, 28, 30
	.byte 14, 16, 19, 22, 25, 28, 31, 33
	.byte 15, 17, 20, 23, 27, 30, 33, 36
	.byte 15, 18, 21, 24, 28, 32, 35, 38
	.byte 16, 18, 22, 25, 29, 33, 36, 40
state:
	.word 0          # knock retard, tenths of a degree
total:
	.word 0          # accumulated commanded advance (for the checksum)
rng_state:
	.word 9241
	.text
__start:
	jal control_burst
	nop
	la $t0, total
	lw $a0, 0($t0)
	nop
	li $v0, 1
	syscall
	li $a0, '\n'
	li $v0, 11
	syscall
	li $v0, 10
	syscall

# control_burst: run CYCLES iterations of the control loop.
control_burst:
	addiu $sp, $sp, -8
	sw $ra, 0($sp)
	li $s0, 0
cb_loop:
	jal read_sensors        # $v0 = rpm band<<8 | load band (synthetic ADC)
	nop
	srl $a0, $v0, 8
	andi $a0, $a0, 7        # rpm band
	andi $a1, $v0, 7        # load band
	jal lookup_advance      # $v0 = base advance
	nop
	move $s1, $v0
	jal knock_loop          # $v0 = retard tenths
	nop
	# commanded = base*10 - retard
	li $t0, 10
	mul $s1, $s1, $t0
	subu $s1, $s1, $v0
	la $t1, total
	lw $t2, 0($t1)
	nop
	addu $t2, $t2, $s1
	sw $t2, 0($t1)
	addiu $s0, $s0, 1
	li $t3, CYCLES
	blt $s0, $t3, cb_loop
	nop
	lw $ra, 0($sp)
	nop
	addiu $sp, $sp, 8
	jr $ra
	nop

# read_sensors: a little LCG standing in for the ADC.
read_sensors:
	la $t8, rng_state
	lw $v0, 0($t8)
	lui $t9, 0x41C6
	ori $t9, $t9, 0x4E6D
	mult $v0, $t9
	mflo $v0
	addiu $v0, $v0, 12345
	sw $v0, 0($t8)
	srl $v0, $v0, 13
	jr $ra
	nop

# lookup_advance(rpmBand, loadBand): bilinear-flavored map lookup.
lookup_advance:
	sll $t0, $a0, 3
	addu $t0, $t0, $a1
	la $t1, advmap
	addu $t1, $t1, $t0
	lbu $v0, 0($t1)
	nop
	# blend with the neighboring load cell when not at the edge
	li $t2, 7
	beq $a1, $t2, la_done
	nop
	lbu $t3, 1($t1)
	nop
	addu $v0, $v0, $t3
	srl $v0, $v0, 1
la_done:
	jr $ra
	nop

# knock_loop: decay any accumulated retard, occasionally add some.
knock_loop:
	la $t0, state
	lw $t1, 0($t0)
	la $t8, rng_state
	lw $t2, 0($t8)
	andi $t3, $t2, 63
	bnez $t3, kl_decay      # knock event 1 time in 64
	nop
	addiu $t1, $t1, 30      # retard 3.0 degrees on knock
kl_decay:
	blez $t1, kl_store
	nop
	addiu $t1, $t1, -1      # decay a tenth per cycle
kl_store:
	sw $t1, 0($t0)
	move $v0, $t1
	jr $ra
	nop
`

func main() {
	fmt.Println("-- engine controller burst --")
	res, err := ccrp.RunProgram("controller", controller, os.Stdout)
	if err != nil {
		log.Fatal(err)
	}
	prog, err := ccrp.Assemble("controller", controller)
	if err != nil {
		log.Fatal(err)
	}
	code, err := ccrp.PreselectedCode()
	if err != nil {
		log.Fatal(err)
	}
	rom, err := ccrp.BuildROM(prog.Text, ccrp.ROMOptions{Codes: []*ccrp.Code{code}})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("control code: %d bytes -> %d bytes of EPROM (%.1f%%)\n\n",
		rom.OriginalSize, rom.CompressedSize(), 100*rom.Ratio())

	// An engine controller ships with the cheapest parts that meet the
	// deadline: compare loop latency on plain EPROM vs burst EPROM.
	for _, mem := range []ccrp.MemoryModel{ccrp.EPROM(), ccrp.BurstEPROM()} {
		cmp, err := ccrp.Compare(res.Trace, rom, ccrp.SystemConfig{
			CacheBytes: 256, // a small on-chip cache, i960KA-style
			Mem:        mem,
		})
		if err != nil {
			log.Fatal(err)
		}
		perLoopStd := float64(cmp.Standard.Cycles) / 4000
		perLoopCCRP := float64(cmp.CCRP.Cycles) / 4000
		fmt.Printf("%-12s control loop: standard %.0f cycles, CCRP %.0f cycles (rel %.3f)\n",
			mem.Name(), perLoopStd, perLoopCCRP, cmp.RelativePerformance())
	}
	fmt.Println("\nOn plain EPROM the compressed controller is no slower — the smaller")
	fmt.Println("ROM pays for itself; see EXPERIMENTS.md for the full study.")
}
