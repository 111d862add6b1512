        .data
scratch: .word 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0
        .text
main:
        li   s0, 100
        li   s1, 610
        li   s2, -411
        li   s3, -772
        la   t8, scratch
        li   t0, 0
loop0:
        sw   s0, 12(t8)
        li   t1, 0
loop1:
        sw   s3, 40(t8)
        addi s2, t1, 50
        sw   s2, 36(t8)
        addi t1, t1, 1
        slti at, t1, 7
        bne  at, zero, loop1
        sw   s3, 12(t8)
        sw   s3, 24(t8)
        lh  s0, 32(t8)
        addi t0, t0, 1
        slti at, t0, 8
        bne  at, zero, loop0
        sw   s3, 36(t8)
        li   t0, 0
loop2:
        beq s3, s1, skip3
        lh  s0, 52(t8)
        bne s0, s2, skip4
        addi s1, s1, -46
skip4:
        andi s2, t0, 5
skip3:
        addi t0, t0, 1
        slti at, t0, 7
        bne  at, zero, loop2
        li   t0, 0
loop5:
        andi s3, s2, 94
        addi t0, t0, 1
        slti at, t0, 8
        bne  at, zero, loop5
        lhu  s2, 0(t8)
        addi s2, s3, -26
        bne s0, s2, skip6
        sw   s3, 28(t8)
skip6:
        li   t0, 0
loop7:
        bne s3, s1, else8
        sw   s3, 8(t8)
        beq  zero, zero, join8
else8:
        lbu  s2, 36(t8)
join8:
        li   t1, 0
loop9:
        beq s0, s1, else10
        lw   s0, 4(t8)
        add s0, s1, s0
        beq  zero, zero, join10
else10:
        andi s2, s3, 192
join10:
        bne s2, s1, break11
        addi t1, t1, 1
        slti at, t1, 7
        bne  at, zero, loop9
break11:
        addi t0, t0, 1
        slti at, t0, 7
        bne  at, zero, loop7
        sb   s2, 32(t8)
        bne s2, s0, skip12
        sb   s2, 40(t8)
skip12:
        sw   s0, 0(t8)
        sw   s1, 4(t8)
        sw   s2, 8(t8)
        sw   s3, 12(t8)
        halt
