package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"dnnfusion"
)

// coldStartLimit is the time one model's cold start (Import, Compile and,
// for an executable model, the first Run) must meet to count toward the
// cold-start goodput.
const coldStartLimit = 5 * time.Second

// coldWorkload brings the 15 Table 5 models and the micro zoo from ONNX
// bytes to compiled models, running each micro model once against the
// interpreter. No serving code runs.
type coldWorkload struct{}

func coldModels() []string { return append(dnnfusion.ModelNames(), microNames()...) }

// passOrder is the order in which cold-start pass i visits srcs. Each pass
// draws its own, so every model is sampled after several different
// predecessors, whose garbage and cache footprint it inherits.
func passOrder(seed uint64, i int, srcs []source) []source {
	return shuffled(newRand(seed, fmt.Sprintf("cold-order/%d", i)), srcs)
}

func (coldWorkload) run(ctx context.Context, r *run) error {
	st := &setups[[]source]{r: r, setup: func() ([]source, error) { return exportSources(coldModels()) }, teardown: func([]source) {}}
	srcs, err := st.burst()
	if err != nil {
		return err
	}
	if err := addOracles(srcs, r.seed); err != nil {
		return err
	}

	// Passes run one at a time and continue while another pass of the last
	// one's length still fits in the budget; there are at least two, so
	// the per-pass figures always have a median. Two passes at once on a
	// two-CPU host contend for the CPUs with each other and with the
	// collector, and spread three times as much from run to run.
	t := r.newTally("cold-start")
	var passes []pass
	start := time.Now()
	for len(passes) < 2 || time.Since(start)+passes[len(passes)-1].wall <= r.budget {
		traced := r.trace && len(passes)%2 == 1
		if traced {
			dnnfusion.EnableProfiling()
		}
		passes = append(passes, r.compilePass(ctx, passOrder(r.seed, len(passes), srcs), t))
		if traced {
			dnnfusion.DisableProfiling()
		}
		if err := st.spare(); err != nil {
			return err
		}
	}
	st.report()
	r.logf("%s", t)

	// Each model's cold start is the median of its samples, and
	// latency_p50_ms is their geometric mean over the zoo. A median over
	// the 20 models would be one model's (S3D's), and move with that one
	// model's noise by a quarter from run to run.
	perModel := map[string][]float64{}
	var pooled []float64
	within, models := 0, 0
	busy := 0.0
	for _, p := range passes {
		for _, cs := range p.samples {
			perModel[cs.model] = append(perModel[cs.model], ms(cs.total))
			pooled = append(pooled, ms(cs.total))
			if cs.total <= coldStartLimit {
				within++
			}
		}
		models += len(srcs)
		busy += p.wall.Seconds()
	}
	var medians []float64
	logSum := 0.0
	for _, v := range perModel {
		m := newDist(v).median()
		medians = append(medians, m)
		logSum += math.Log(m)
	}
	d := newDist(medians)
	geomean := math.Exp(logSum / float64(len(medians)))
	tail, pct := newDist(pooled).tail()
	r.reportPassSeconds(passes, fmt.Sprintf("%d models", len(srcs)))
	r.set("latency_p50_ms", geomean)
	r.set("e2e.latency_tail_ms", tail)
	r.set("goodput_rps", float64(within)/busy)
	r.logf("cold start over %d models (each the median of its %d samples): geometric mean %.3f ms, median model %.3f ms, slowest %.3f ms; pooled p%.2f %.3f ms (n=%d); %d of %d within %v in %.3f s",
		len(d), len(passes), geomean, d.median(), d.quantile(100), pct, tail, len(pooled), within, models, coldStartLimit, busy)
	if r.trace {
		r.coldTrace(passes)
	}
	r.compileLayers(passes)
	return nil
}

// coldTrace reports the tracing overhead (profiled passes against
// unprofiled ones) and the part of a pass the stage timers leave
// unexplained.
func (r *run) coldTrace(passes []pass) {
	var plain, prof, residual []float64
	for i, p := range passes {
		if i%2 == 1 {
			prof = append(prof, p.wall.Seconds())
		} else {
			plain = append(plain, p.wall.Seconds())
		}
		stages := 0.0
		for _, cs := range p.samples {
			stages += cs.importMs
			for _, s := range compileStages[1:] {
				stages += cs.stats[s]
			}
		}
		residual = append(residual, ms(p.wall)-stages)
	}
	r.set("trace.overhead", newDist(prof).median()/newDist(plain).median())
	r.set("trace.residual_ms", newDist(residual).median())
}
