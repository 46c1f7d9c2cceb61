package main

import (
	"reflect"
	"slices"
	"testing"
	"time"

	"dnnfusion"
)

// generated is everything one seed feeds the system on the HTTP and
// cold-start workloads.
type generated struct {
	due    []time.Duration
	picks  []pick
	inputs [][]float32
	order  []string
}

func generate(t *testing.T, seed uint64) generated {
	t.Helper()
	w := workloads["http-mix"].(httpWorkload)
	var gen generated
	gen.due, gen.picks = w.schedule(seed, "open-loop", 2*time.Second)
	for _, name := range w.models {
		g, err := graphFor(name)
		if err != nil {
			t.Fatal(err)
		}
		m, err := dnnfusion.Compile(g)
		if err != nil {
			t.Fatal(err)
		}
		m.SharedPool().Close()
		p, err := newPool(seed, "http-input/"+name, g, m, 3)
		if err != nil {
			t.Fatal(err)
		}
		for _, in := range p.inputs {
			for _, n := range m.InputNames() {
				gen.inputs = append(gen.inputs, in[n].Data())
			}
		}
	}
	var srcs []source
	for _, name := range coldModels() {
		srcs = append(srcs, source{name: name})
	}
	for i := range 2 {
		for _, s := range passOrder(seed, i, srcs) {
			gen.order = append(gen.order, s.name)
		}
	}
	return gen
}

func TestSameSeedSameInputs(t *testing.T) {
	a, b := generate(t, 5), generate(t, 5)
	if !reflect.DeepEqual(a, b) {
		t.Error("seed 5 generated different schedules, mixes, inputs or orders on two calls")
	}
	if len(a.due) < 200 || len(a.due) > 400 {
		t.Errorf("%d arrivals in 2s at %v req/s", len(a.due), workloads["http-mix"].(httpWorkload).rate)
	}
	if !slices.IsSorted(a.due) {
		t.Error("arrivals are not in time order")
	}
}

func TestDifferentSeedDifferentInputs(t *testing.T) {
	a, b := generate(t, 5), generate(t, 6)
	if reflect.DeepEqual(a.due, b.due) {
		t.Error("seeds 5 and 6 gave the same arrival schedule")
	}
	if reflect.DeepEqual(a.picks, b.picks) {
		t.Error("seeds 5 and 6 gave the same model mix")
	}
	for i := range a.inputs {
		if reflect.DeepEqual(a.inputs[i], b.inputs[i]) {
			t.Errorf("seeds 5 and 6 gave the same input %d", i)
		}
	}
	if reflect.DeepEqual(a.order, b.order) {
		t.Error("seeds 5 and 6 gave the same cold-start order")
	}
	n := len(coldModels())
	if reflect.DeepEqual(a.order[:n], a.order[n:]) {
		t.Error("two cold-start passes of seed 5 visit the models in the same order")
	}
}

func TestMixSharesModelsEqually(t *testing.T) {
	counts := make([]int, 3)
	for _, p := range picks(newRand(1, "mix"), 30000, 3, poolSize) {
		counts[p.model]++
		if p.input < 0 || p.input >= poolSize {
			t.Fatalf("input index %d outside the pool", p.input)
		}
	}
	for m, c := range counts {
		if c != 10000 {
			t.Errorf("model %d drew %d of 30000 requests, want exactly a third", m, c)
		}
	}
}
