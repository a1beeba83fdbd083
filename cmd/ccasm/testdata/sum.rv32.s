# Sum 1..10 and print 55 on RV32, with a data table, pseudo-instructions
# and a call.
	.text
__start:
	call	main
	li	a7, 10
	ecall

main:
	li	t0, 10
	li	t1, 0
loop:
	add	t1, t1, t0
	addi	t0, t0, -1
	bnez	t0, loop
	la	t2, result
	sw	t1, 0(t2)
	lw	a0, 0(t2)
	mul	t3, a0, a0
	li	t4, 0x12345678
	mv	a1, t3
	slli	a2, a1, 3
	li	a7, 1
	ecall
	ret

	.data
result:	.word 0, 0
msg:	.asciiz "sum\n"
