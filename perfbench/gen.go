package main

import (
	"hash/fnv"
	"math/rand/v2"
	"time"

	"dnnfusion"
)

// Everything a run feeds the system derives from the workload seed through
// newRand: the open-loop arrival schedule, the model mix, the order of the
// cold-start zoo and every input tensor. Each use draws from its own named
// stream, so adding a draw to one stream leaves the others unchanged.

func newRand(seed uint64, stream string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(stream))
	return rand.New(rand.NewPCG(seed, h.Sum64()))
}

// arrivals is a Poisson arrival schedule at rate requests per second: the
// due times, relative to the start of the phase, of every request due within
// d.
func arrivals(rng *rand.Rand, rate float64, d time.Duration) []time.Duration {
	var due []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		at := time.Duration(t * float64(time.Second))
		if at >= d {
			return due
		}
		due = append(due, at)
	}
}

// pick is one request's target: the model index in the workload's model
// list and the index of the input in that model's pool.
type pick struct{ model, input int }

// mixer draws requests with an exactly equal share of models: every run
// of that many consecutive draws holds each model once, in seeded order,
// so the mix does not drift from seed to seed. Inputs are drawn uniformly
// from a pool of poolSize.
type mixer struct {
	rng            *rand.Rand
	models, inputs int
	block          []int
}

func (m *mixer) next() pick {
	if len(m.block) == 0 {
		m.block = m.rng.Perm(m.models)
	}
	p := pick{model: m.block[0], input: m.rng.IntN(m.inputs)}
	m.block = m.block[1:]
	return p
}

// picks draws n requests from a mixer.
func picks(rng *rand.Rand, n, models, poolSize int) []pick {
	m := &mixer{rng: rng, models: models, inputs: poolSize}
	out := make([]pick, n)
	for i := range out {
		out[i] = m.next()
	}
	return out
}

// inputsFor draws one standard-normal input tensor for every input of m.
func inputsFor(rng *rand.Rand, m *dnnfusion.Model) (map[string]*dnnfusion.Tensor, error) {
	in := make(map[string]*dnnfusion.Tensor, len(m.InputNames()))
	for _, name := range m.InputNames() {
		shape, err := m.InputShape(name)
		if err != nil {
			return nil, err
		}
		t := dnnfusion.NewTensor(shape...)
		for i := range t.Data() {
			t.Data()[i] = float32(rng.NormFloat64())
		}
		in[name] = t
	}
	return in, nil
}

// shuffled returns xs in a seeded order.
func shuffled[T any](rng *rand.Rand, xs []T) []T {
	out := append([]T(nil), xs...)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}
