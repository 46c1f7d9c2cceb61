package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"dnnfusion"
)

// pool is a model's seeded inputs with their reference outputs.
type pool struct {
	inputs []map[string]*dnnfusion.Tensor
	want   []expected
}

// newPool draws n inputs for m from the seed and interprets g on each.
func newPool(seed uint64, stream string, g *dnnfusion.Graph, m *dnnfusion.Model, n int) (pool, error) {
	rng := newRand(seed, stream)
	var p pool
	for range n {
		in, err := inputsFor(rng, m)
		if err != nil {
			return p, err
		}
		want, err := oracle(g, in, !m.HasOnlineChain())
		if err != nil {
			return p, err
		}
		p.inputs = append(p.inputs, in)
		p.want = append(p.want, want)
	}
	return p, nil
}

// directRuns calls runner.Run closed loop for d, cycling through the pool,
// and returns each successful call's timing. Outputs are checked after each
// call's timing stops.
func (r *run) directRuns(ctx context.Context, name string, runner *dnnfusion.Runner, p pool, d time.Duration, t *tally) []timing {
	var times []timing
	end := time.Now().Add(d)
	for i := 0; time.Now().Before(end); i++ {
		k := i % len(p.inputs)
		start := time.Now()
		outs, err := runner.Run(ctx, p.inputs[k])
		tm := timing{due: start, sent: start, done: time.Now()}
		if err != nil {
			t.fail(failError)
			r.logf("run %s: %v", name, err)
			continue
		}
		if err := p.want[k].check(tensorData(outs)); err != nil {
			t.fail(failWrong)
			r.wrongOutput(fmt.Sprintf("%s input %d", name, k), err)
			continue
		}
		t.ok()
		times = append(times, tm)
	}
	return times
}

// kernelLayers reports each kernel's time per run between two profile
// snapshots of m, with its achieved rates: operations from the compiler's
// per-kernel count (2·M·N·K for a plain contraction, both contractions of a
// chain, one per element per fused pointwise op), and bytes computed from
// the sizes of the tensors the kernel reads and writes.
func (r *run) kernelLayers(name string, m *dnnfusion.Model, before, after []dnnfusion.KernelProfile, fmaGflops float64) {
	slots := 0
	for _, ks := range kernelSlots {
		if ks.model == name {
			slots = ks.n
		}
	}
	kernels := m.ScheduledKernels()
	r.set("ops."+name+".kernels", float64(len(kernels)))
	if len(kernels) != slots {
		r.logf("WARNING: %s compiles to %d kernels, but the ops.%s.k<i> metrics cover %d: a slot without a kernel reads 0, a kernel without a slot is logged only; update kernelSlots",
			name, len(kernels), name, slots)
	}
	for i, k := range kernels {
		runs := after[i].Runs - before[i].Runs
		if runs == 0 {
			continue
		}
		nsPerRun := float64(after[i].TotalNs-before[i].TotalNs) / float64(runs)
		var bytes int64
		for _, v := range k.Inputs {
			bytes += v.Shape.Bytes()
		}
		for _, v := range k.Outputs {
			bytes += v.Shape.Bytes()
		}
		gflops, gbps := float64(k.FLOPs)/nsPerRun, float64(bytes)/nsPerRun
		r.logf("kernel %s.k%d %s schedule=%s lanes=%d runs=%d ms=%.4f gflops=%.3f (%.1f%% of host FMA) gbps=%.3f",
			name, i, k.Name, after[i].Schedule, after[i].Lanes, runs, nsPerRun/1e6, gflops, 100*gflops/fmaGflops, gbps)
		if i >= slots {
			continue
		}
		p := fmt.Sprintf("ops.%s.k%d.", name, i)
		r.set(p+"ms", nsPerRun/1e6)
		r.set(p+"gflops", gflops)
		r.set(p+"gbps", gbps)
	}
}

// enginePoolSize is how many seeded inputs each model's direct runs cycle
// through.
const enginePoolSize = 4

// engineLayers times Runner.Run of every micro model directly, closed loop
// on one caller with no serving layer in front, for d in all, and reads
// each kernel's profile; micro-elementwise also runs on one lane, against
// the default lane count.
func (r *run) engineLayers(ctx context.Context, d time.Duration) error {
	fma := probeFMA(250 * time.Millisecond)
	r.set("host.fma_gflops", fma)
	r.set("host.stream_gbps", probeStream(250*time.Millisecond))
	dnnfusion.EnableProfiling()
	defer dnnfusion.DisableProfiling()
	names := microNames()
	each := d / time.Duration(len(names)+1)
	for _, name := range names {
		g, err := graphFor(name)
		if err != nil {
			return err
		}
		ms, err := r.directModel(ctx, name, g, each, fma, dnnfusion.WithThreads(0))
		if err != nil {
			return err
		}
		r.set("engine.run_ms."+name, ms)
		if name != "micro-elementwise" {
			continue
		}
		one, err := r.directModel(ctx, name+" on one lane", g, each, 0, dnnfusion.WithThreads(1))
		if err != nil {
			return err
		}
		r.set("engine.run_ms.threads1", one)
		r.logf("Runner.Run %s p50 %.4f ms on one lane, %.4f ms on %d", name, one, ms, runtime.GOMAXPROCS(0))
	}
	return nil
}

// directModel compiles g with opts and times its Runner.Run for d,
// returning the median run in ms. With fmaGflops set it reports the
// kernels' profile too.
func (r *run) directModel(ctx context.Context, name string, g *dnnfusion.Graph, d time.Duration, fmaGflops float64, opts ...dnnfusion.Option) (float64, error) {
	m, err := dnnfusion.Compile(g, opts...)
	if err != nil {
		return 0, fmt.Errorf("compiling %s: %w", name, err)
	}
	defer m.SharedPool().Close()
	p, err := newPool(r.seed, "engine-input/"+g.Name, g, m, enginePoolSize)
	if err != nil {
		return 0, err
	}
	runner := m.NewRunner()
	defer runner.Release()
	before := m.Profile()
	times := latencyDist(r.directRuns(ctx, name, runner, p, d, r.newTally("direct "+name)))
	if fmaGflops > 0 {
		r.kernelLayers(g.Name, m, before, m.Profile(), fmaGflops)
	}
	r.logf("direct Runner.Run %s: p50 %.4f ms (n=%d)", name, times.median(), len(times))
	return times.median(), nil
}
