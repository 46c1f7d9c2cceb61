package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"

	"dnnfusion"
	"dnnfusion/internal/models"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, reported by every
// workload on an untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"goodput_rps", "1/s"},
	{"peak_rss_mb", "MB"},
}

// kernelSlots is how many kernels each micro model compiles to; the
// ops.<model>.k<i> metrics cover exactly these, in execution order. A model
// that compiles to fewer kernels reports 0 for the missing slots, and one
// that compiles to more logs the extra kernels without reporting them; both
// log a warning, and ops.<model>.kernels reports the actual count, so a
// changed fusion plan is not read as a kernel's gain or loss.
var kernelSlots = []struct {
	model string
	n     int
}{
	{"micro-head", 2},
	{"micro-cnn", 4},
	{"micro-mlp", 2},
	{"micro-attention", 4},
	{"micro-elementwise", 1},
}

// servedModels are the models the HTTP workloads serve.
var servedModels = []string{"micro-head", "micro-cnn", "micro-mlp", "micro-attention"}

// compileStages are the per-pass compiler stage totals, with the
// CompileStats timer each reads (import is timed around dnnfusion.Import).
var compileStages = []string{"onnx.import_ms", "rewrite.ms", "fusion.ms", "codegen.ms", "tuner.ms", "engine.plan_ms"}

// compileCounts are the per-pass compiler counts.
var compileCounts = []string{"rewrite.applied", "fusion.kernels", "tuner.schedule_lookups"}

func microNames() []string {
	var names []string
	for _, m := range models.MicroModels() {
		names = append(names, m.Name)
	}
	return names
}

// perLayer are the metrics of single layers, reported by every workload on
// a traced run. A layer the workload does not exercise reports 0.
func perLayer() []metricDef {
	defs := []metricDef{
		{"e2e.latency_tail_ms", "ms"},
		{"host.fma_gflops", "GFLOP/s"},
		{"host.stream_gbps", "GB/s"},
		{"loadgen.late_p99_ms", "ms"},
		{"trace.overhead", "ratio"},
		{"trace.residual_ms", "ms"},
		{"serve.admission_ms", "ms"},
		{"serve.queue_wait_ms", "ms"},
		{"serve.batch_form_ms", "ms"},
		{"serve.respond_ms", "ms"},
		{"serve.http_codec_ms", "ms"},
		{"serve.batch_size_mean", "count"},
		{"serve.batch_fill", "ratio"},
		{"engine.execute_ms", "ms"},
	}
	for _, m := range servedModels {
		defs = append(defs,
			metricDef{"serve.batch_form_ms." + m, "ms"},
			metricDef{"serve.http_codec_ms." + m, "ms"},
			metricDef{"engine.execute_ms." + m, "ms"})
	}
	for _, m := range microNames() {
		defs = append(defs, metricDef{"engine.run_ms." + m, "ms"})
	}
	defs = append(defs, metricDef{"engine.run_ms.threads1", "ms"})
	for _, ks := range kernelSlots {
		for i := range ks.n {
			p := fmt.Sprintf("ops.%s.k%d.", ks.model, i)
			defs = append(defs, metricDef{p + "ms", "ms"}, metricDef{p + "gflops", "GFLOP/s"}, metricDef{p + "gbps", "GB/s"})
		}
		defs = append(defs, metricDef{"ops." + ks.model + ".kernels", "count"})
	}
	defs = append(defs, metricDef{"compile.pass_s", "s"})
	for _, s := range compileStages {
		defs = append(defs, metricDef{s, "ms"})
	}
	for _, m := range append(dnnfusion.ModelNames(), microNames()...) {
		defs = append(defs, metricDef{compileMetric(m), "ms"})
	}
	defs = append(defs, metricDef{"compile.alloc_mb", "MB"})
	for _, c := range compileCounts {
		defs = append(defs, metricDef{c, "count"})
	}
	return defs
}

// compileMetric names a model's cold-start metric; metric names have no
// spaces.
func compileMetric(model string) string {
	return "compile_ms." + strings.ReplaceAll(model, " ", "_")
}

// run is one benchmark invocation's state: its settings, the metrics it
// has measured, its operation accounting and its detail log.
type run struct {
	seed    uint64
	budget  time.Duration
	trace   bool
	values  map[string]float64
	tallies []*tally
	// wrong holds every output that broke the oracle contract; one makes
	// the whole run fail.
	wrong []string
	log   io.Writer
	// mu serializes the log and wrong, which concurrent clients reach.
	mu sync.Mutex
}

func (r *run) set(name string, v float64) { r.values[name] = v }

func (r *run) logf(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	fmt.Fprintf(r.log, format+"\n", args...)
}

// wrongOutput records an output that failed its check; the first few are
// logged.
func (r *run) wrongOutput(what string, err error) {
	r.mu.Lock()
	r.wrong = append(r.wrong, what)
	n := len(r.wrong)
	r.mu.Unlock()
	if n <= 10 {
		r.logf("WRONG OUTPUT %s: %v", what, err)
	}
}

// share is a fraction of the run's time budget.
func (r *run) share(f float64) time.Duration { return time.Duration(f * float64(r.budget)) }

// tally accounts one phase's operations. Every attempted operation ends
// succeeded or failed with one kind; overLimit counts succeeded operations
// slower than the phase's latency limit (failed ones miss it too).
type tally struct {
	phase     string
	attempted int
	succeeded int
	overLimit int
	failed    map[string]int
}

// Failure kinds.
const (
	fail429       = "429"
	fail503       = "503"
	fail5xx       = "5xx"
	failOther     = "other_status"
	failTransport = "transport"
	failTimeout   = "timeout"
	failError     = "error"
	failWrong     = "wrong_output"
)

func (r *run) newTally(phase string) *tally {
	t := &tally{phase: phase, failed: map[string]int{}}
	r.tallies = append(r.tallies, t)
	return t
}

func (t *tally) ok()              { t.attempted++; t.succeeded++ }
func (t *tally) fail(kind string) { t.attempted++; t.failed[kind]++ }

func (t *tally) failures() int { return t.attempted - t.succeeded }

func (t *tally) String() string {
	kinds := make([]string, 0, len(t.failed))
	for k := range t.failed {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	var b strings.Builder
	fmt.Fprintf(&b, "phase %s: attempted=%d succeeded=%d failed=%d over_limit=%d",
		t.phase, t.attempted, t.succeeded, t.failures(), t.overLimit)
	for _, k := range kinds {
		fmt.Fprintf(&b, " %s=%d", k, t.failed[k])
	}
	return b.String()
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// summarize renders the run's result line: every metric of the run's mode
// by name with its unit. An end-to-end metric the workload failed to
// measure is a benchmark bug and is returned as an error; an unexercised
// per-layer metric reports 0.
func (r *run) summarize() (summary, error) {
	s := summary{Correct: len(r.wrong) == 0, Metrics: map[string]metricValue{}}
	for _, t := range r.tallies {
		s.Attempted += t.attempted
		s.Failed += t.failures()
	}
	defs := endToEnd
	if r.trace {
		defs = perLayer()
	}
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok && !r.trace {
			return s, fmt.Errorf("workload did not measure %s", d.name)
		}
		s.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return s, nil
}

func (s summary) line() (string, error) {
	b, err := json.Marshal(s)
	return string(b), err
}
