// A macro expands into whichever body uses it, so one that calls out
// disqualifies every TEXT symbol of its file.

#include "textflag.h"

#define SLOW(r) MOVQ r, AX; \
	CALL ·leaf(SB)

TEXT ·expands(SB), NOSPLIT, $0-32
	SLOW(SI)
	RET
