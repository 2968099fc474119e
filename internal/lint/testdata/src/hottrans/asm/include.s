// Macros from a header outside the toolchain's are never scanned, so
// nothing in this file is proven.

#include "textflag.h"
#include "local.h"

TEXT ·included(SB), NOSPLIT, $0-32
	RET
