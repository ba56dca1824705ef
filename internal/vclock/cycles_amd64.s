#include "textflag.h"

// func rdtsc() int64
//
// No fence: LFENCE or RDTSCP would order the read after every earlier
// instruction, at about half again the read's cost. Unfenced, the read
// may run up to the reorder window (tens of ns) early, which can put it
// a few ns before a reading another core took just ahead of it; trace
// lanes clamp that, and a reading handed between goroutines through a
// channel or a lock travels for far longer than the window.
TEXT ·rdtsc(SB),NOSPLIT,$0-8
	RDTSC
	SHLQ	$32, DX
	ORQ	DX, AX
	MOVQ	AX, ret+0(FP)
	RET
