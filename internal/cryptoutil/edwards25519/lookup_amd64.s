// The fixed-base table lookup in SSE2, which every amd64 CPU has. This file
// is not copied from the Go tree; lookup_amd64.go declares it.

//go:build !purego

#include "textflag.h"

// An affineCached is three field elements of five uint64 limbs, 120 bytes:
// seven 16-byte words and one 8-byte word, held in X0–X7. An
// affineLookupTable is eight of them, 960 bytes.

// func lookupAffine(dest *affineCached, table *affineLookupTable, xabs uint64)
TEXT ·lookupAffine(SB), NOSPLIT|NOFRAME, $0-24
	MOVQ dest+0(FP), DI
	MOVQ table+8(FP), SI
	MOVQ xabs+16(FP), X9
	PSHUFD $0x00, X9, X9 // xabs in every 32-bit lane

	// Start from the identity, YplusX = YminusX = 1 and T2d = 0, kept only
	// if xabs is 0: a 1 in the low word of X0 (YplusX.l0, byte 0) and in
	// the high word of X2 (YminusX.l0, byte 40).
	PXOR    X10, X10 // the index j, 0 for the identity
	MOVOU   X9, X8
	PCMPEQL X10, X8  // all ones where xabs == j
	MOVQ    $1, AX
	MOVQ    AX, X0
	PSHUFD  $0x4e, X0, X2
	PAND    X8, X0
	PAND    X8, X2
	PXOR    X1, X1
	PXOR    X3, X3
	PXOR    X4, X4
	PXOR    X5, X5
	PXOR    X6, X6
	PXOR    X7, X7
	PCMPEQL X11, X11 // −1 in every lane
	MOVQ    $8, CX

loop:
	PSUBL   X11, X10 // j++
	MOVOU   X9, X8
	PCMPEQL X10, X8
	MOVOU   0(SI), X12
	PAND    X8, X12
	POR     X12, X0
	MOVOU   16(SI), X12
	PAND    X8, X12
	POR     X12, X1
	MOVOU   32(SI), X12
	PAND    X8, X12
	POR     X12, X2
	MOVOU   48(SI), X12
	PAND    X8, X12
	POR     X12, X3
	MOVOU   64(SI), X12
	PAND    X8, X12
	POR     X12, X4
	MOVOU   80(SI), X12
	PAND    X8, X12
	POR     X12, X5
	MOVOU   96(SI), X12
	PAND    X8, X12
	POR     X12, X6
	MOVQ    112(SI), X12
	PAND    X8, X12
	POR     X12, X7
	ADDQ    $120, SI
	DECQ    CX
	JNZ     loop

	MOVOU X0, 0(DI)
	MOVOU X1, 16(DI)
	MOVOU X2, 32(DI)
	MOVOU X3, 48(DI)
	MOVOU X4, 64(DI)
	MOVOU X5, 80(DI)
	MOVOU X6, 96(DI)
	MOVQ  X7, 112(DI)
	RET
