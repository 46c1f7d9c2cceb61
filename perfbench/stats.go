package main

import (
	"math"
	"sort"
	"time"
)

// maxTailPercentile caps the reported tail: with enough samples the tail
// metric is the 99th percentile.
const maxTailPercentile = 99.0

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// dist is a sorted sample of one quantity.
type dist []float64

func newDist(xs []float64) dist {
	d := append(dist(nil), xs...)
	sort.Float64s(d)
	return d
}

// quantile is the nearest-rank p-th percentile (0 < p <= 100); 0 for an
// empty sample.
func (d dist) quantile(p float64) float64 {
	if len(d) == 0 {
		return 0
	}
	i := int(math.Ceil(p/100*float64(len(d)))) - 1
	return d[max(0, min(i, len(d)-1))]
}

func (d dist) median() float64 { return d.quantile(50) }

// tail is the highest percentile, at most maxTailPercentile, that has at
// least minBeyond samples above its rank, with that percentile. A sample
// too small to have one reports its maximum as the 100th percentile.
func (d dist) tail() (value, percentile float64) {
	n := len(d)
	if n == 0 {
		return 0, 0
	}
	i := min(n-1-minBeyond, int(math.Ceil(maxTailPercentile/100*float64(n)))-1)
	if i < 0 {
		return d[n-1], 100
	}
	return d[i], 100 * float64(i+1) / float64(n)
}

// series accumulates a measured phase slice by slice. A workload measures
// in several slices spread over its run; the end-to-end figures pool every
// slice, so a stall anywhere in the run counts.
type series struct {
	all []timing
	// seconds is the measured time of all slices, and rates each slice's
	// completions within limit per second, logged to show the spread
	// within the run.
	seconds float64
	rates   []float64
	limit   time.Duration
}

// add adds the timings of a slice that was measured for d.
func (s *series) add(d time.Duration, ts []timing) {
	s.all = append(s.all, ts...)
	s.seconds += d.Seconds()
	s.rates = append(s.rates, float64(countWithin(ts, s.limit))/d.Seconds())
}

func countWithin(ts []timing, limit time.Duration) int {
	n := 0
	for _, t := range ts {
		if t.latency() <= limit {
			n++
		}
	}
	return n
}

// latencyDist is the distribution of the timings' latencies in ms.
func latencyDist(ts []timing) dist {
	xs := make([]float64, len(ts))
	for i, t := range ts {
		xs[i] = ms(t.latency())
	}
	return newDist(xs)
}

// reportLatency sets latency_p50_ms, the median latency over all samples,
// and e2e.latency_tail_ms, the tail the percentile rule gives over all
// samples: the highest percentile, at most the 99th, with minBeyond samples
// beyond it. The tail is reported without a bound: on a shared two-CPU
// host it is set by other tenants' interference and spreads by half its
// median or more from run to run.
func (r *run) reportLatency(what string, s *series) {
	d := latencyDist(s.all)
	tail, pct := d.tail()
	r.set("latency_p50_ms", d.median())
	r.set("e2e.latency_tail_ms", tail)
	r.logf("%s: latency p50 %.4f, p90 %.4f, p%.2f %.4f ms (n=%d)", what, d.median(), d.quantile(90), pct, tail, len(d))
}

// reportGoodput sets goodput_rps from the successful timings of a closed
// loop: the completions within the limit over the measured time of all
// slices. Failed operations are not among the timings, so they count as
// missing the limit.
func (r *run) reportGoodput(what string, s *series) {
	g := float64(countWithin(s.all, s.limit)) / s.seconds
	rates := newDist(s.rates)
	r.set("goodput_rps", g)
	r.logf("goodput with %s: %.2f/s within %v (%d completions in %.3f s; slices from %.2f to %.2f/s)",
		what, g, s.limit, len(s.all), s.seconds, rates[0], rates[len(rates)-1])
}

// timing is one request as the load generator saw it. An open-loop
// request is due at a scheduled time and may be sent late if every client
// goroutine was still busy; its latency runs from the due time, so a stall
// also charges the requests it delayed.
type timing struct {
	due, sent, done time.Time
}

// latency is the time from the due time to the full response.
func (t timing) latency() time.Duration { return t.done.Sub(t.due) }

// service is the time from sending to the full response.
func (t timing) service() time.Duration { return t.done.Sub(t.sent) }

// late is how far behind its schedule the generator sent the request.
func (t timing) late() time.Duration { return t.sent.Sub(t.due) }

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// traceStages are the server's ?trace=1 stages in pipeline order.
var traceStages = []string{"admission", "queue_wait", "batch_formation", "execute", "respond"}

// splitClient attributes one request's client-observed service time: the
// server-side stages cover its timeline, and the rest of the client time is
// HTTP transfer plus JSON decode and encode (the codec). A negative
// remainder, from clock reads on either side, is clamped to zero and
// returned as clamped.
func splitClient(service time.Duration, stageNs []int64) (codec, clamped time.Duration) {
	var sum int64
	for _, ns := range stageNs {
		sum += ns
	}
	codec = service - time.Duration(sum)
	if codec < 0 {
		return 0, -codec
	}
	return codec, 0
}

// traceSplit is the attribution of traced requests' latency from due time
// to generator lateness, the server's stages and the codec. stageMs and
// codecMs are each part's median over all requests, the per-layer figures.
// Medians do not add, so the accounting of the median latency uses the
// requests whose latency lies within bandPercentiles of the median: their
// mean parts, band, add up to their mean latency up to clamping, and
// residualMs is what band leaves unexplained of the median latency.
type traceSplit struct {
	latencyMs float64
	stageMs   map[string]float64
	codecMs   float64
	// band holds the mean late, stage and codec times of the median band,
	// keyed "late", the stage names and "codec".
	band       map[string]float64
	residualMs float64
	// clampedMs is the total negative codec time clamped to zero.
	clampedMs float64
}

// bandPercentiles is the half-width, in percentiles, of the median band.
const bandPercentiles = 5

// tracedRequest is one traced request: its timing and its server stages in
// traceStages order.
type tracedRequest struct {
	timing
	stageNs []int64
}

func splitTraces(reqs []tracedRequest) traceSplit {
	ts := traceSplit{stageMs: map[string]float64{}, band: map[string]float64{}}
	if len(reqs) == 0 {
		return ts
	}
	parts := make([]map[string]float64, len(reqs))
	latency := make([]float64, len(reqs))
	var codec []float64
	stages := make([][]float64, len(traceStages))
	for i, r := range reqs {
		c, cl := splitClient(r.service(), r.stageNs)
		ts.clampedMs += ms(cl)
		latency[i] = ms(r.latency())
		codec = append(codec, ms(c))
		parts[i] = map[string]float64{"late": ms(r.late()), "codec": ms(c)}
		for s, name := range traceStages {
			stages[s] = append(stages[s], float64(r.stageNs[s])/1e6)
			parts[i][name] = float64(r.stageNs[s]) / 1e6
		}
	}
	d := newDist(latency)
	ts.latencyMs = d.median()
	ts.codecMs = newDist(codec).median()
	for s, name := range traceStages {
		ts.stageMs[name] = newDist(stages[s]).median()
	}
	lo, hi := d.quantile(50-bandPercentiles), d.quantile(50+bandPercentiles)
	n := 0
	for i, l := range latency {
		if l < lo || l > hi {
			continue
		}
		n++
		for k, v := range parts[i] {
			ts.band[k] += v
		}
	}
	ts.residualMs = ts.latencyMs
	for k := range ts.band {
		ts.band[k] /= float64(n)
		ts.residualMs -= ts.band[k]
	}
	return ts
}
