        .data
scratch: .word 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0
        .text
main:
        li   s0, 174
        li   s1, -611
        li   s2, 332
        li   s3, 161
        la   t8, scratch
        li   t0, 0
loop0:
        addi s2, s1, 63
        bne s1, s2, skip1
        slt s0, s0, s1
        addi s1, s2, 20
        addi s3, s0, 13
skip1:
        addi t0, t0, 1
        slti at, t0, 2
        bne  at, zero, loop0
        beq s2, s0, skip2
        addi s0, s1, 19
        beq s2, s0, skip3
        lbu  s0, 32(t8)
skip3:
        sw   s2, 36(t8)
skip2:
        li   t0, 0
loop4:
        bne s0, s3, else5
        lb  s2, 8(t8)
        addi s1, s3, 15
        sw   s3, 16(t8)
        addi s1, t0, 12
        sw   s1, 20(t8)
        beq  zero, zero, join5
else5:
        sh   s2, 48(t8)
join5:
        li   t1, 0
loop6:
        lw   s2, 4(t8)
        beq s2, s2, skip7
        sw   s0, 52(t8)
        sb   s3, 32(t8)
        lb  s0, 36(t8)
        sh   s0, 28(t8)
        sh   s0, 56(t8)
skip7:
        bne s2, s1, break8
        addi t1, t1, 1
        slti at, t1, 7
        bne  at, zero, loop6
break8:
        addi t0, t0, 1
        slti at, t0, 6
        bne  at, zero, loop4
        sw   s0, 0(t8)
        sw   s1, 4(t8)
        sw   s2, 8(t8)
        sw   s3, 12(t8)
        halt
