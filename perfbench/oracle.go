package main

import (
	"fmt"
	"math"
	"sort"

	"dnnfusion"
)

// float32Eps is the float32 machine epsilon, 2^-23.
const float32Eps = 1.0 / (1 << 23)

// onlineTolerance is the multiple of float32Eps × max|want| an output of a
// model with an online-softmax chain may be off by. The chain rescales its
// running sum as key panels stream in, so its rounding differs from the
// interpreter's two-pass softmax; over 300 seeds of micro-attention the
// worst error is 1.0 × eps × max|want|. The bound is absolute per output
// rather than per element: small elements legitimately differ by thousands
// of ULPs (-7.7006e-5 against -7.6963e-5 is 5999 ULPs) while their absolute
// error stays at the level of the largest element's rounding.
const onlineTolerance = 4

// expected is one input's reference outputs from dnnfusion.InterpretNamed,
// computed before any timed phase.
type expected struct {
	outputs map[string][]float32
	// exact requires bit-identical outputs; it is false only for models
	// whose compiled form runs an online-softmax chain
	// (Model.HasOnlineChain).
	exact bool
}

// oracle interprets g on in with the reference operator implementations.
func oracle(g *dnnfusion.Graph, in map[string]*dnnfusion.Tensor, exact bool) (expected, error) {
	outs, err := dnnfusion.InterpretNamed(g, in)
	if err != nil {
		return expected{}, fmt.Errorf("interpreting %s: %w", g.Name, err)
	}
	e := expected{outputs: make(map[string][]float32, len(outs)), exact: exact}
	for name, t := range outs {
		e.outputs[name] = append([]float32(nil), t.Data()...)
	}
	return e, nil
}

// check compares every output in got with the expectation. A missing or
// extra output is an error, as is any difference beyond the contract.
func (e expected) check(got map[string][]float32) error {
	if len(got) != len(e.outputs) {
		return fmt.Errorf("got %d outputs, want %d", len(got), len(e.outputs))
	}
	names := make([]string, 0, len(e.outputs))
	for name := range e.outputs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		g, ok := got[name]
		if !ok {
			return fmt.Errorf("output %q missing", name)
		}
		if err := compareOutput(g, e.outputs[name], e.exact); err != nil {
			return fmt.Errorf("output %q: %w", name, err)
		}
	}
	return nil
}

// compareOutput applies the output contract to one tensor's data: bitwise
// equality when exact, else max|got-want| <= onlineTolerance × eps ×
// max|want|.
func compareOutput(got, want []float32, exact bool) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d elements, want %d", len(got), len(want))
	}
	if exact {
		for i := range want {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				return fmt.Errorf("element %d is %v, want %v bit-exact", i, got[i], want[i])
			}
		}
		return nil
	}
	maxWant := 0.0
	for _, w := range want {
		maxWant = math.Max(maxWant, math.Abs(float64(w)))
	}
	bound := onlineTolerance * float32Eps * maxWant
	for i := range want {
		if d := math.Abs(float64(got[i]) - float64(want[i])); !(d <= bound) {
			return fmt.Errorf("element %d is %v, want %v (|diff| %.3g > bound %.3g)", i, got[i], want[i], d, bound)
		}
	}
	return nil
}

// tensorData views named tensors' data as plain slices for check.
func tensorData(outs map[string]*dnnfusion.Tensor) map[string][]float32 {
	out := make(map[string][]float32, len(outs))
	for name, t := range outs {
		out[name] = t.Data()
	}
	return out
}
