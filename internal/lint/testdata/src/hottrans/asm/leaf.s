// Leaves and non-leaves, side by side in one file.

#include "textflag.h"

// A comment that mentions CALL ·other(SB) proves nothing either way.
TEXT ·leaf(SB), NOSPLIT, $0-32
	MOVQ x_base+0(FP), SI
	CMPB ·useWide(SB), $0 // a global read is not a branch
	JEQ  leaf_done
	XORQ CX, CX
leaf_loop: INCQ CX; CMPQ CX, $4; JLT leaf_loop
leaf_done:
	RET

/* A block comment: JMP ·elsewhere(SB) */
TEXT ·flagged(SB), NOSPLIT|NOFRAME, $0-32
	RET

TEXT ·calls(SB), NOSPLIT, $0-32
	CALL ·leaf(SB)
	RET

TEXT ·split(SB), $0-32
	RET

TEXT ·tail(SB), NOSPLIT, $0-32
	JMP ·leaf(SB)

TEXT ·indirect(SB), NOSPLIT, $0-32
	MOVQ x_base+0(FP), AX
	JMP  AX

TEXT ·raw(SB), NOSPLIT, $0-32
	BYTE $0xc3
