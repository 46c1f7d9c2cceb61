package main

import (
	"context"
	"fmt"
	"runtime/metrics"
	"time"

	"dnnfusion"
	"dnnfusion/internal/models"
)

// source is one model as a cold start sees it: ONNX bytes. Executable
// models (the micro zoo) also carry a seeded input and its reference
// outputs, so the pass runs them once and checks the result; the Table 5
// models have shape-only weights and are compiled only.
type source struct {
	name  string
	onnx  []byte
	input map[string]*dnnfusion.Tensor
	want  expected
}

// graphFor builds a model graph by name from the micro zoo or Table 5.
func graphFor(name string) (*dnnfusion.Graph, error) {
	for _, m := range models.MicroModels() {
		if m.Name == name {
			return m.Build(), nil
		}
	}
	return dnnfusion.BuildModel(name)
}

// exportSources exports every named model to ONNX bytes, the work a cold
// start's caller does before it.
func exportSources(names []string) ([]source, error) {
	srcs := make([]source, len(names))
	for i, name := range names {
		g, err := graphFor(name)
		if err != nil {
			return nil, err
		}
		data, err := dnnfusion.Export(g)
		if err != nil {
			return nil, fmt.Errorf("exporting %s: %w", name, err)
		}
		srcs[i] = source{name: name, onnx: data}
	}
	return srcs, nil
}

// addOracles gives every micro model among srcs a seeded input and its
// reference outputs. The reference interprets the in-tree graph, not the
// imported one, so an import defect shows as a wrong output.
func addOracles(srcs []source, seed uint64) error {
	micro := map[string]bool{}
	for _, n := range microNames() {
		micro[n] = true
	}
	for i := range srcs {
		s := &srcs[i]
		if !micro[s.name] {
			continue
		}
		g, err := graphFor(s.name)
		if err != nil {
			return err
		}
		m, err := dnnfusion.Compile(g, dnnfusion.WithThreads(0))
		if err != nil {
			return fmt.Errorf("compiling %s: %w", s.name, err)
		}
		m.SharedPool().Close()
		if s.input, err = inputsFor(newRand(seed, "cold-input/"+s.name), m); err != nil {
			return err
		}
		if s.want, err = oracle(g, s.input, !m.HasOnlineChain()); err != nil {
			return err
		}
	}
	return nil
}

// compileSample is one model's cold start: Import, Compile and, for an
// executable model, the first Run.
type compileSample struct {
	model    string
	total    time.Duration
	importMs float64
	stats    map[string]float64 // compileStages and compileCounts, except import
}

// coldStart brings one source from ONNX bytes to a compiled model and, for
// an executable one, runs it once; the output is checked after the timing
// stops. A wrong output is returned as wrong, a failure as err.
func coldStart(ctx context.Context, s source) (cs compileSample, wrong, err error) {
	start := time.Now()
	g, err := dnnfusion.Import(s.onnx)
	if err != nil {
		return cs, nil, fmt.Errorf("importing %s: %w", s.name, err)
	}
	imported := time.Since(start)
	m, err := dnnfusion.Compile(g, dnnfusion.WithThreads(0))
	if err != nil {
		return cs, nil, fmt.Errorf("compiling %s: %w", s.name, err)
	}
	defer m.SharedPool().Close()
	var got map[string]*dnnfusion.Tensor
	if s.input != nil {
		if got, err = m.NewRunner().Run(ctx, s.input); err != nil {
			return cs, nil, fmt.Errorf("running %s: %w", s.name, err)
		}
	}
	cs = compileSample{model: s.name, total: time.Since(start), importMs: ms(imported)}
	if got != nil {
		wrong = s.want.check(tensorData(got))
	}
	st := m.Stats
	cs.stats = map[string]float64{
		"rewrite.ms":             st.RewriteMs,
		"fusion.ms":              st.FusionMs,
		"codegen.ms":             st.CodegenMs,
		"tuner.ms":               st.TuneMs,
		"engine.plan_ms":         st.PlanMs,
		"rewrite.applied":        float64(st.RewriteApplied),
		"fusion.kernels":         float64(len(m.Kernels)),
		"tuner.schedule_lookups": float64(st.ScheduleLookups),
	}
	return cs, nil, nil
}

// pass is one sequential cold start of a model list.
type pass struct {
	wall    time.Duration
	samples []compileSample
	// allocMB is the heap the pass allocated.
	allocMB float64
}

// compilePass cold-starts every source in order. Failures and wrong
// outputs are recorded on t and r; the pass continues past them.
func (r *run) compilePass(ctx context.Context, srcs []source, t *tally) pass {
	alloc0 := heapAllocs()
	start := time.Now()
	var p pass
	for _, s := range srcs {
		cs, wrong, err := coldStart(ctx, s)
		switch {
		case err != nil:
			t.fail(failError)
			r.logf("cold start %s: %v", s.name, err)
		case wrong != nil:
			t.fail(failWrong)
			r.wrongOutput("cold start "+s.name, wrong)
		default:
			t.ok()
			if cs.total > coldStartLimit {
				t.overLimit++
			}
			p.samples = append(p.samples, cs)
		}
	}
	p.wall = time.Since(start)
	p.allocMB = float64(heapAllocs()-alloc0) / (1 << 20)
	return p
}

// heapAllocs is the process's cumulative heap allocation in bytes, read
// without stopping the world.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// compileLayers reports the compiler's per-layer metrics over passes: the
// median per pass of each stage's total, of each model's cold start and of
// the bytes allocated, and the per-pass counts. It logs each model's stage
// times and shares.
func (r *run) compileLayers(passes []pass) {
	var alloc []float64
	for _, p := range passes {
		alloc = append(alloc, p.allocMB)
	}
	if len(passes) == 0 {
		return
	}
	perStage := map[string][]float64{}
	perModel := map[string][]float64{}
	modelStage := map[string]map[string][]float64{}
	var order []string
	for _, p := range passes {
		totals := map[string]float64{}
		for _, cs := range p.samples {
			totals["onnx.import_ms"] += cs.importMs
			for k, v := range cs.stats {
				totals[k] += v
			}
			if modelStage[cs.model] == nil {
				modelStage[cs.model] = map[string][]float64{}
				order = append(order, cs.model)
			}
			modelStage[cs.model]["onnx.import_ms"] = append(modelStage[cs.model]["onnx.import_ms"], cs.importMs)
			for _, s := range compileStages[1:] {
				modelStage[cs.model][s] = append(modelStage[cs.model][s], cs.stats[s])
			}
			perModel[cs.model] = append(perModel[cs.model], ms(cs.total))
		}
		for k, v := range totals {
			perStage[k] = append(perStage[k], v)
		}
	}
	for k, v := range perStage {
		r.set(k, newDist(v).median())
	}
	for _, m := range order {
		total := newDist(perModel[m]).median()
		r.set(compileMetric(m), total)
		line := fmt.Sprintf("cold start %s: %.3f ms", m, total)
		for _, s := range compileStages {
			v := newDist(modelStage[m][s]).median()
			line += fmt.Sprintf(", %s %.3f (%.0f%%)", s, v, 100*v/total)
		}
		r.logf("%s", line)
	}
	r.set("compile.alloc_mb", newDist(alloc).median())
}

// reportPassSeconds sets compile.pass_s, the median pass.
func (r *run) reportPassSeconds(passes []pass, what string) {
	secs := make([]float64, len(passes))
	for i, p := range passes {
		secs[i] = p.wall.Seconds()
	}
	d := newDist(secs)
	r.set("compile.pass_s", d.median())
	r.logf("compile.pass_s: %.6f s, median over %d passes over %s (passes %.3f)", d.median(), len(d), what, secs)
}
