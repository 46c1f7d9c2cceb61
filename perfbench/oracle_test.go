package main

import (
	"context"
	"math"
	"testing"

	"dnnfusion"
)

// served compiles a micro model the way the benchmark serves it and runs
// it on the benchmark's seeded input for seed, returning the outputs and
// their expectation.
func served(t *testing.T, name string, seed uint64) (map[string][]float32, expected) {
	t.Helper()
	g, err := graphFor(name)
	if err != nil {
		t.Fatal(err)
	}
	m, err := dnnfusion.Compile(g, dnnfusion.WithThreads(0))
	if err != nil {
		t.Fatal(err)
	}
	defer m.SharedPool().Close()
	p, err := newPool(seed, "http-input/"+name, g, m, 1)
	if err != nil {
		t.Fatal(err)
	}
	outs, err := m.NewRunner().Run(context.Background(), p.inputs[0])
	if err != nil {
		t.Fatal(err)
	}
	got := map[string][]float32{}
	for k, v := range outs {
		got[k] = append([]float32(nil), v.Data()...)
	}
	return got, p.want[0]
}

func TestOracleRejectsOneULPOnExactModel(t *testing.T) {
	got, want := served(t, "micro-cnn", 1)
	if !want.exact {
		t.Fatal("micro-cnn should be held to bit-exact outputs")
	}
	if err := want.check(got); err != nil {
		t.Fatalf("unperturbed outputs rejected: %v", err)
	}
	probs := got["probs"]
	probs[3] = math.Nextafter32(probs[3], float32(math.Inf(1)))
	if err := want.check(got); err == nil {
		t.Error("a 1-ULP perturbation passed the bit-exact check")
	}
}

func TestOracleRejectsAttentionError(t *testing.T) {
	got, want := served(t, "micro-attention", 1)
	if want.exact {
		t.Fatal("micro-attention runs an online-softmax chain; it should get the bounded check")
	}
	if err := want.check(got); err != nil {
		t.Fatalf("unperturbed outputs rejected: %v", err)
	}
	got["context"][17] += 1e-3
	if err := want.check(got); err == nil {
		t.Error("a 1e-3 error passed the online-chain bound")
	}
}

func TestOracleAttentionSeedSweep(t *testing.T) {
	for seed := range uint64(300) {
		got, want := served(t, "micro-attention", seed)
		if err := want.check(got); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}

// An online-softmax output may differ by thousands of ULPs in a small
// element while its absolute error stays at the rounding level of the
// output's largest element; the bound accepts that and an exact check does
// not.
func TestOnlineBoundIsAbsoluteNotPerElementULP(t *testing.T) {
	want := []float32{0.5, -7.6963e-5, 0.25}
	got := []float32{0.5, -7.7006e-5, 0.25}
	if ulps := math.Float32bits(-got[1]) - math.Float32bits(-want[1]); ulps < 5000 {
		t.Fatalf("test values are only %d ULPs apart", ulps)
	}
	if err := compareOutput(got, want, false); err != nil {
		t.Errorf("bounded check rejected a 4.3e-8 error against max|want| 0.5: %v", err)
	}
	if err := compareOutput(got, want, true); err == nil {
		t.Error("exact check accepted differing outputs")
	}
	got[0] = 0.5 + 1e-3
	if err := compareOutput(got, want, false); err == nil {
		t.Error("bounded check accepted a 1e-3 error")
	}
}

func TestOracleRejectsMissingOutput(t *testing.T) {
	_, want := served(t, "micro-head", 1)
	if err := want.check(map[string][]float32{}); err == nil {
		t.Error("an empty response passed")
	}
}
