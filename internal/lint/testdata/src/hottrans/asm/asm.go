// Package asm pins the assembly-leaf rule: a body-less function is an
// alloc-free leaf only when its TEXT symbol is NOSPLIT and nothing in
// its body, or in a macro of its file, calls or jumps out.
package asm

// leaf is NOSPLIT, jumps only to its own labels and reads a global.
func leaf(x []float64) float64

// flagged carries NOSPLIT among other flags.
func flagged(x []float64) float64

// calls is NOSPLIT but CALLs another symbol.
func calls(x []float64) float64

// split has no NOSPLIT flag.
func split(x []float64) float64

// tail is NOSPLIT but tail-jumps to a (SB) symbol.
func tail(x []float64) float64

// indirect is NOSPLIT but jumps through a register.
func indirect(x []float64) float64

// raw is NOSPLIT but emits encoded bytes, which could hide a call.
func raw(x []float64) float64

// expands uses a macro of its file that CALLs out.
func expands(x []float64) float64

// included sits in a file that includes a header no scan reads.
func included(x []float64) float64

// missing has no TEXT symbol at all.
func missing(x []float64) float64

var useWide bool

//fallvet:hotpath
func Hot(x []float64) float64 {
	s := leaf(x) + flagged(x)
	s += calls(x)    // want `hottrans: in hot path asm.Hot: call to asm.calls has no Go body and its assembly is not a provable leaf`
	s += split(x)    // want `call to asm.split has no Go body`
	s += tail(x)     // want `call to asm.tail has no Go body`
	s += indirect(x) // want `call to asm.indirect has no Go body`
	s += raw(x)      // want `call to asm.raw has no Go body`
	s += expands(x)  // want `call to asm.expands has no Go body`
	s += included(x) // want `call to asm.included has no Go body`
	s += missing(x)  // want `call to asm.missing has no Go body`
	return s
}
