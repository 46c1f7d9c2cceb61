package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"dnnfusion"
	"dnnfusion/serve"
)

// requestTimeout bounds one :predict; a request that takes longer fails as
// a timeout.
const requestTimeout = 5 * time.Second

// poolSize is how many distinct seeded inputs each served model cycles
// through.
const poolSize = 32

// httpWorkload serves models the way dnnf-serve does by default
// (serve.Config{}, WithThreads(0)) behind a serve.Server on a loopback
// listener and drives POST :predict from at most nproc client goroutines,
// each with its own connection.
type httpWorkload struct {
	models []string
	// rate is the open-loop arrival rate in requests per second.
	rate float64
	// limit is the latency a request must meet to count toward goodput.
	limit time.Duration
}

type httpModel struct {
	name     string
	graph    *dnnfusion.Graph
	model    *dnnfusion.Model
	capacity int // requests one execution can hold (1 without batching)
	url      string
	pool     pool
	bodies   [][]byte
}

type server struct {
	reg    *serve.Registry
	ts     *httptest.Server
	client *http.Client
	models []*httpModel
}

// startServer compiles and registers the models, builds their serving
// hosts, starts the HTTP server and sends each model one request, which
// binds its serving arenas.
func startServer(names []string) (s *server, err error) {
	s = &server{reg: serve.NewRegistry()}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	for _, name := range names {
		g, err := graphFor(name)
		if err != nil {
			return nil, err
		}
		m, err := dnnfusion.Compile(g, dnnfusion.WithThreads(0))
		if err != nil {
			return nil, fmt.Errorf("compiling %s: %w", name, err)
		}
		h, err := s.reg.Register(name, m, serve.Config{})
		if err != nil {
			return nil, err
		}
		info, err := h.Info()
		if err != nil {
			return nil, fmt.Errorf("building host %s: %w", name, err)
		}
		s.models = append(s.models, &httpModel{name: name, graph: g, model: m, capacity: info.MaxBatch})
	}
	s.ts = httptest.NewServer(serve.NewServer(s.reg))
	n := runtime.NumCPU()
	s.client = &http.Client{
		Timeout:   requestTimeout,
		Transport: &http.Transport{MaxIdleConnsPerHost: n, MaxConnsPerHost: n, DisableCompression: true},
	}
	for _, hm := range s.models {
		hm.url = s.ts.URL + "/v1/models/" + hm.name + ":predict"
		inputs := map[string]map[string]any{}
		for _, in := range hm.model.InputNames() {
			inputs[in] = map[string]any{}
		}
		body, err := json.Marshal(map[string]any{"inputs": inputs})
		if err != nil {
			return nil, err
		}
		status, resp, err := s.post(hm.url, body)
		if err != nil || status != http.StatusOK {
			return nil, fmt.Errorf("first request to %s: status %d %s: %v", hm.name, status, resp, err)
		}
	}
	return s, nil
}

func (s *server) close() {
	if s.ts != nil {
		s.ts.Close()
	}
	if s.client != nil {
		s.client.CloseIdleConnections()
	}
	s.reg.Close()
	for _, hm := range s.models {
		hm.model.SharedPool().Close()
	}
}

// encodeBodies builds every pool input's :predict body.
func (hm *httpModel) encodeBodies() error {
	type wire struct {
		Shape []int     `json:"shape"`
		Data  []float32 `json:"data"`
	}
	hm.bodies = nil
	for _, in := range hm.pool.inputs {
		req := map[string]map[string]wire{"inputs": {}}
		for name, t := range in {
			req["inputs"][name] = wire{Shape: t.Shape(), Data: t.Data()}
		}
		b, err := json.Marshal(req)
		if err != nil {
			return err
		}
		hm.bodies = append(hm.bodies, b)
	}
	return nil
}

func (s *server) post(url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	res, err := s.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer res.Body.Close()
	data, err := io.ReadAll(res.Body)
	return res.StatusCode, data, err
}

// classify names a request's failure kind; "" is success.
func classify(status int, err error) string {
	if err != nil {
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			return failTimeout
		}
		return failTransport
	}
	switch {
	case status == http.StatusOK:
		return ""
	case status == http.StatusTooManyRequests:
		return fail429
	case status == http.StatusServiceUnavailable:
		return fail503
	case status >= 500:
		return fail5xx
	default:
		return failOther
	}
}

// wireResponse is the :predict response, decoded straight into float32.
type wireResponse struct {
	Outputs map[string]struct {
		Data []float32 `json:"data"`
	} `json:"outputs"`
	Trace *struct {
		BatchSize int `json:"batch_size"`
		Stages    []struct {
			Stage string `json:"stage"`
			Ns    int64  `json:"ns"`
		} `json:"stages"`
	} `json:"trace"`
}

// outcome is one request as the client saw it.
type outcome struct {
	timing
	pick
	kind  string // failure kind, "" on success
	wrong error  // the output broke the oracle contract
	// batchSize and stageNs come from the ?trace=1 block of a traced
	// request.
	batchSize int
	stageNs   []int64
}

// do sends one request due at due (the send time for a closed loop) and
// checks its outputs after the timing stops.
func (s *server) do(p pick, trace bool, due time.Time) outcome {
	hm := s.models[p.model]
	url := hm.url
	if trace {
		url += "?trace=1"
	}
	o := outcome{pick: p}
	o.sent = time.Now()
	if due.IsZero() {
		due = o.sent
	}
	o.due = due
	status, body, err := s.post(url, hm.bodies[p.input])
	o.done = time.Now()
	if o.kind = classify(status, err); o.kind != "" {
		return o
	}
	var resp wireResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		o.wrong = fmt.Errorf("decoding response: %w", err)
		return o
	}
	got := make(map[string][]float32, len(resp.Outputs))
	for name, t := range resp.Outputs {
		got[name] = t.Data
	}
	o.wrong = hm.pool.want[p.input].check(got)
	if trace {
		if resp.Trace == nil {
			o.wrong = errors.New("traced response has no trace block")
			return o
		}
		o.batchSize = resp.Trace.BatchSize
		o.stageNs = make([]int64, len(traceStages))
		for _, st := range resp.Trace.Stages {
			for i, name := range traceStages {
				if st.Stage == name {
					o.stageNs[i] = st.Ns
				}
			}
		}
	}
	return o
}

// openLoop sends request i at start+due[i] from nproc client goroutines.
// A request due while every client is busy goes out late, and its latency
// still runs from its due time. One that is already a whole request
// timeout late is failed as a timeout without being sent, so a stalled
// server cannot hold the run past its budget.
func (s *server) openLoop(due []time.Duration, pk []pick, trace bool) []outcome {
	outs := make([]outcome, len(due))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for range runtime.NumCPU() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(due) {
					return
				}
				at := start.Add(due[i])
				if time.Since(at) > requestTimeout {
					outs[i] = outcome{timing: timing{due: at, sent: at, done: at}, pick: pk[i], kind: failTimeout}
					continue
				}
				sleepUntil(at)
				outs[i] = s.do(pk[i], trace, at)
			}
		}()
	}
	wg.Wait()
	return outs
}

// sleepUntil blocks until t in a nanosleep system call. The runtime's
// timers wake an idle process up to a millisecond late on Linux, which at
// these rates would make the generator itself the main source of lateness;
// a thread sleeping in the kernel wakes within tens of microseconds.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(d.Nanoseconds())
		// An interrupted sleep returns early; the loop sleeps the rest.
		_ = syscall.Nanosleep(&ts, nil)
	}
}

// closedLoop runs nproc clients, each sending its next request when the
// previous one completes, for d; each client's mix comes from its own
// seeded stream.
func (s *server) closedLoop(seed uint64, stream string, d time.Duration) []outcome {
	n := runtime.NumCPU()
	per := make([][]outcome, n)
	var wg sync.WaitGroup
	end := time.Now().Add(d)
	for c := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m := &mixer{rng: newRand(seed, fmt.Sprintf("%s/%d", stream, c)), models: len(s.models), inputs: poolSize}
			for time.Now().Before(end) {
				per[c] = append(per[c], s.do(m.next(), false, time.Time{}))
			}
		}()
	}
	wg.Wait()
	var outs []outcome
	for _, o := range per {
		outs = append(outs, o...)
	}
	return outs
}

// account tallies a phase's outcomes and returns the successful ones.
// Wrong outputs count as failures and fail the run.
func (w httpWorkload) account(r *run, s *server, phase string, outs []outcome) []outcome {
	t := r.newTally(phase)
	var ok []outcome
	for _, o := range outs {
		switch {
		case o.kind != "":
			t.fail(o.kind)
		case o.wrong != nil:
			t.fail(failWrong)
			r.wrongOutput(fmt.Sprintf("%s %s input %d", phase, s.models[o.model].name, o.input), o.wrong)
		default:
			t.ok()
			if o.latency() > w.limit {
				t.overLimit++
			}
			ok = append(ok, o)
		}
	}
	r.logf("%s", t)
	if len(ok) > 0 {
		var svc, late []float64
		for _, o := range ok {
			svc = append(svc, ms(o.service()))
			late = append(late, ms(o.late()))
		}
		lat, sd, ld := latencyDist(timings(ok)), newDist(svc), newDist(late)
		r.logf("  %s ms: latency p50 %.3f p90 %.3f p99 %.3f max %.3f; service p50 %.3f p90 %.3f p99 %.3f; late p50 %.3f p90 %.3f p99 %.3f",
			phase, lat.median(), lat.quantile(90), lat.quantile(99), lat.quantile(100), sd.median(), sd.quantile(90), sd.quantile(99),
			ld.median(), ld.quantile(90), ld.quantile(99))
	}
	return ok
}

func timings(outs []outcome) []timing {
	ts := make([]timing, len(outs))
	for i, o := range outs {
		ts[i] = o.timing
	}
	return ts
}

func (w httpWorkload) run(ctx context.Context, r *run) error {
	st := &setups[*server]{r: r, setup: func() (*server, error) { return startServer(w.models) }, teardown: (*server).close}
	s, err := st.burst()
	if err != nil {
		return err
	}
	defer s.close()
	for _, hm := range s.models {
		var err error
		if hm.pool, err = newPool(r.seed, "http-input/"+hm.name, hm.graph, hm.model, poolSize); err != nil {
			return err
		}
		if err := hm.encodeBodies(); err != nil {
			return err
		}
	}
	// The warm-up runs the open loop's own traffic, so the measured phase
	// starts from the state that traffic keeps the process in.
	due, pk := w.schedule(r.seed, "warmup", warmup)
	w.account(r, s, "warmup", s.openLoop(due, pk, false))
	if r.trace {
		st.report()
		return w.traced(ctx, r, s)
	}
	lat, good := &series{limit: w.limit}, &series{limit: w.limit}
	n, cycle := r.cycles()
	open, closed := cycle*6/10, cycle*4/10
	for i := range n {
		due, pk := w.schedule(r.seed, fmt.Sprintf("open-loop/%d", i), open)
		lat.add(open, timings(w.account(r, s, "open-loop", s.openLoop(due, pk, false))))
		start := time.Now()
		outs := s.closedLoop(r.seed, fmt.Sprintf("closed-loop/%d", i), closed)
		good.add(time.Since(start), timings(w.account(r, s, "goodput", outs)))
		if err := st.spare(); err != nil {
			return err
		}
	}
	st.report()
	r.reportLatency(fmt.Sprintf("open loop at %.0f req/s", w.rate), lat)
	r.reportGoodput(fmt.Sprintf("%d closed-loop clients", runtime.NumCPU()), good)
	return nil
}

// schedule is an open-loop phase's arrival times and targets.
func (w httpWorkload) schedule(seed uint64, phase string, d time.Duration) ([]time.Duration, []pick) {
	due := arrivals(newRand(seed, phase+"/arrivals"), w.rate, d)
	return due, picks(newRand(seed, phase+"/mix"), len(due), len(w.models), poolSize)
}

// traced measures the serving layers, from an untraced and a ?trace=1
// open-loop phase on the same schedule shape, then the engine and kernel
// layers.
func (w httpWorkload) traced(ctx context.Context, r *run, s *server) error {
	due, pk := w.schedule(r.seed, "open-loop", r.share(0.3))
	plain := w.account(r, s, "open-loop", s.openLoop(due, pk, false))
	untraced := &series{limit: w.limit}
	untraced.add(r.share(0.3), timings(plain))
	r.reportLatency("untraced open loop", untraced)
	due, pk = w.schedule(r.seed, "open-loop-traced", r.share(0.4))
	tr := w.account(r, s, "open-loop-traced", s.openLoop(due, pk, true))

	r.set("trace.overhead", latencyDist(timings(tr)).median()/latencyDist(timings(plain)).median())
	var lates []float64
	for _, o := range append(plain, tr...) {
		lates = append(lates, ms(o.late()))
	}
	late, pct := newDist(lates).tail()
	r.set("loadgen.late_p99_ms", late)
	r.logf("load generator lateness p%.2f %.4f ms over %d requests", pct, late, len(lates))

	all := r.serveLayers("", tr, s)
	r.set("trace.residual_ms", all.residualMs)
	b := all.band
	r.logf("median-band split: latency p50 %.4f ms = late %.4f + admission %.4f + queue_wait %.4f + batch_formation %.4f + execute %.4f + respond %.4f + codec %.4f + residual %.4f ms (codec clamped %.4f ms in total)",
		all.latencyMs, b["late"], b["admission"], b["queue_wait"], b["batch_formation"], b["execute"], b["respond"], b["codec"], all.residualMs, all.clampedMs)
	for i, hm := range s.models {
		var mine []outcome
		for _, o := range tr {
			if o.model == i {
				mine = append(mine, o)
			}
		}
		r.serveLayers(hm.name, mine, s)
	}

	return r.engineLayers(ctx, r.share(0.25))
}

// serveLayers reports the serving stages of traced requests: the whole
// workload's when model is "", else one model's per-model metrics.
func (r *run) serveLayers(model string, outs []outcome, s *server) traceSplit {
	reqs := make([]tracedRequest, len(outs))
	var batches, slots float64
	for i, o := range outs {
		reqs[i] = tracedRequest{timing: o.timing, stageNs: o.stageNs}
		b := float64(max(1, o.batchSize))
		batches += 1 / b
		slots += float64(s.models[o.model].capacity) / b
	}
	ts := splitTraces(reqs)
	if model != "" {
		r.set("serve.batch_form_ms."+model, ts.stageMs["batch_formation"])
		r.set("serve.http_codec_ms."+model, ts.codecMs)
		r.set("engine.execute_ms."+model, ts.stageMs["execute"])
		r.logf("%s traced: n=%d latency p50 %.4f ms, batch_formation %.4f, execute %.4f, codec %.4f ms", model, len(outs), ts.latencyMs, ts.stageMs["batch_formation"], ts.stageMs["execute"], ts.codecMs)
		return ts
	}
	r.set("serve.admission_ms", ts.stageMs["admission"])
	r.set("serve.queue_wait_ms", ts.stageMs["queue_wait"])
	r.set("serve.batch_form_ms", ts.stageMs["batch_formation"])
	r.set("engine.execute_ms", ts.stageMs["execute"])
	r.set("serve.respond_ms", ts.stageMs["respond"])
	r.set("serve.http_codec_ms", ts.codecMs)
	if batches > 0 {
		// Per execution, not per request: a batch of b requests is 1/b of
		// an execution for each of them.
		r.set("serve.batch_size_mean", float64(len(outs))/batches)
		r.set("serve.batch_fill", float64(len(outs))/slots)
	}
	return ts
}
