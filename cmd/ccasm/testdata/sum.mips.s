# Sum 1..10 and print 55, with a data table, pseudo-instructions and a
# call, so the listing and image cover labels, data and expansions.
	.text
__start:
	jal	main
	nop
	li	$v0, 10
	syscall

main:
	li	$t0, 10
	li	$t1, 0
loop:
	addu	$t1, $t1, $t0
	addiu	$t0, $t0, -1
	bgt	$t0, $zero, loop
	la	$t2, result
	sw	$t1, 0($t2)
	lw	$a0, result
	mul	$t3, $a0, $a0
	l.d	$f2, 8($t2)
	add.d	$f4, $f2, $f2
	li	$t4, 0x12345678
	move	$v1, $t3
	li	$v0, 1
	syscall
	jr	$ra
	nop

	.data
result:	.word 0, 0, 0
msg:	.asciiz "sum\n"
	.align 2
big:	.half 1, -1
