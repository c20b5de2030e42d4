// Package sim provides gate-level good-value logic simulation over circuit
// netlists. It has one simulator, Wide: a compiled, levelized
// parallel-pattern engine that packs one to MaxLanes 64-bit pattern words
// per gate (its W=1 form is the single-word simulator). It is the good-value
// engine of fault simulation, BIST, transition-fault analysis and workload
// profiling. Eval and EvalLanes are its gate evaluators over one word and
// over a group of lanes. Every Wide consumes the shared immutable
// circuit.Compiled IR, so many instances (one per worker goroutine, one per
// request) share a single compiled graph.
package sim

import (
	"repro/internal/circuit"
	"repro/internal/logic"
)

// Eval computes one gate's output word from its fanin words. Gate types are
// validated at circuit.Compile time, so every type reaching a simulator is
// known; an out-of-range type (only constructible by bypassing Compile)
// evaluates to the all-zero word.
func Eval(t circuit.GateType, in []logic.Word) logic.Word {
	switch t {
	case circuit.Buf, circuit.DFF:
		return in[0]
	case circuit.Not:
		return ^in[0]
	case circuit.And, circuit.Nand:
		v := in[0]
		for _, w := range in[1:] {
			v &= w
		}
		if t == circuit.Nand {
			v = ^v
		}
		return v
	case circuit.Or, circuit.Nor:
		v := in[0]
		for _, w := range in[1:] {
			v |= w
		}
		if t == circuit.Nor {
			v = ^v
		}
		return v
	case circuit.Xor, circuit.Xnor:
		v := in[0]
		for _, w := range in[1:] {
			v ^= w
		}
		if t == circuit.Xnor {
			v = ^v
		}
		return v
	}
	return 0
}
