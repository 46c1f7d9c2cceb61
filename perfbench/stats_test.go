package main

import (
	"io"
	"math"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so newDist must sort
	}
	return xs
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n          int
		value, pct float64
	}{
		// Enough samples: capped at the 99th percentile, which has 20 of
		// 2000 samples beyond it.
		{2000, 1980, 99},
		{1100, 1089, 99},
		// Fewer: the highest rank with exactly 10 samples above it.
		{1000, 990, 99},
		{500, 490, 98},
		{40, 30, 75},
		{11, 1, 100.0 / 11},
		// Too few for any percentile with 10 beyond: the maximum.
		{10, 10, 100},
	} {
		d := newDist(seq(tc.n))
		v, p := d.tail()
		if v != tc.value || math.Abs(p-tc.pct) > 1e-9 {
			t.Errorf("n=%d: tail = %v at p%v, want %v at p%v", tc.n, v, p, tc.value, tc.pct)
		}
		beyond := 0
		for _, x := range d {
			if x > v {
				beyond++
			}
		}
		if tc.n > 10 && beyond < minBeyond {
			t.Errorf("n=%d: %d samples beyond the tail, want at least %d", tc.n, beyond, minBeyond)
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	d := newDist(seq(10))
	if got := d.median(); got != 5 {
		t.Errorf("median of 1..10 = %v, want 5", got)
	}
	if got := d.quantile(100); got != 10 {
		t.Errorf("p100 of 1..10 = %v, want 10", got)
	}
	if got := newDist(nil).median(); got != 0 {
		t.Errorf("median of nothing = %v, want 0", got)
	}
}

func TestLatencyRunsFromDueTime(t *testing.T) {
	t0 := time.Unix(100, 0)
	// Due at t0, sent 3 ms late because both clients were busy, answered
	// 2 ms after sending.
	tm := timing{due: t0, sent: t0.Add(3 * time.Millisecond), done: t0.Add(5 * time.Millisecond)}
	if got := tm.latency(); got != 5*time.Millisecond {
		t.Errorf("latency = %v, want 5ms from the due time", got)
	}
	if got := tm.service(); got != 2*time.Millisecond {
		t.Errorf("service = %v, want 2ms", got)
	}
	if got := tm.late(); got != 3*time.Millisecond {
		t.Errorf("late = %v, want 3ms", got)
	}
}

func TestSplitClientClampsNegativeCodec(t *testing.T) {
	codec, clamped := splitClient(10*time.Millisecond, []int64{1e6, 2e6, 3e6, 1e6, 0})
	if codec != 3*time.Millisecond || clamped != 0 {
		t.Errorf("split = codec %v clamped %v, want 3ms and 0", codec, clamped)
	}
	codec, clamped = splitClient(5*time.Millisecond, []int64{1e6, 2e6, 3e6, 0, 0})
	if codec != 0 || clamped != time.Millisecond {
		t.Errorf("split = codec %v clamped %v, want 0 and 1ms", codec, clamped)
	}
}

func TestSplitTracesAccountsForMedianLatency(t *testing.T) {
	t0 := time.Unix(100, 0)
	var reqs []tracedRequest
	for i := range 101 {
		late := time.Duration(i%7) * 10 * time.Microsecond
		stages := []int64{2e3, 5e3, int64(i) * 1e4, 2e5, 1e4}
		var server time.Duration
		for _, ns := range stages {
			server += time.Duration(ns)
		}
		codec := 300*time.Microsecond + time.Duration(i%3)*time.Microsecond
		sent := t0.Add(late)
		reqs = append(reqs, tracedRequest{
			timing:  timing{due: t0, sent: sent, done: sent.Add(server + codec)},
			stageNs: stages,
		})
	}
	ts := splitTraces(reqs)
	sum := ts.residualMs
	for _, v := range ts.band {
		sum += v
	}
	if math.Abs(sum-ts.latencyMs) > 1e-9 {
		t.Errorf("band parts plus residual = %v ms, want the median latency %v ms", sum, ts.latencyMs)
	}
	if math.Abs(ts.residualMs) > 0.05*ts.latencyMs {
		t.Errorf("residual %v ms of a %v ms median: the band does not account for it", ts.residualMs, ts.latencyMs)
	}
	if ts.clampedMs != 0 {
		t.Errorf("clamped %v ms, want 0", ts.clampedMs)
	}
	if got, want := ts.stageMs["batch_formation"], 0.5; math.Abs(got-want) > 1e-9 {
		t.Errorf("batch_formation median = %v ms, want %v", got, want)
	}
	if ts.codecMs < 0.3 || ts.codecMs > 0.303 {
		t.Errorf("codec median = %v ms, want about 0.3", ts.codecMs)
	}
}

// Both end-to-end figures pool every slice, so a stall in one slice of the
// run lowers goodput even when it is too short to move the median.
func TestStallLowersPooledGoodput(t *testing.T) {
	t0 := time.Unix(100, 0)
	var ts []timing
	// Four seconds at 100 requests a second, 1ms each, except that every
	// request due from 2.0s to 2.6s takes 50ms.
	for i := range 400 {
		due := t0.Add(time.Duration(i) * 10 * time.Millisecond)
		took := time.Millisecond
		if i >= 200 && i < 260 {
			took = 50 * time.Millisecond
		}
		ts = append(ts, timing{due: due, sent: due, done: due.Add(took)})
	}
	s := &series{limit: 10 * time.Millisecond}
	s.add(time.Second, ts[:100])
	s.add(3*time.Second, ts[100:])
	r := &run{values: map[string]float64{}, log: io.Discard}
	r.reportLatency("test", s)
	r.reportGoodput("test", s)
	if got := r.values["latency_p50_ms"]; got != 1 {
		t.Errorf("latency_p50_ms = %v, want 1", got)
	}
	// 340 of 400 requests within the limit over the 4 measured seconds.
	if got := r.values["goodput_rps"]; got != 85 {
		t.Errorf("goodput_rps = %v, want 85", got)
	}
	if got := newDist(s.rates); got[0] != 80 || got[1] != 100 {
		t.Errorf("slice rates = %v, want 80 and 100", got)
	}
	if got := r.values["e2e.latency_tail_ms"]; got != 50 {
		t.Errorf("pooled tail = %v ms, want 50 (60 stalled requests of 400)", got)
	}
}
