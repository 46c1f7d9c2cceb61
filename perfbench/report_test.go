package main

import (
	"encoding/json"
	"io"
	"os"
	"slices"
	"testing"
)

type declared struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// The metrics the program reports must be exactly those BENCHMARK.json
// declares, with the same units, and its workloads the declared ones.
func TestReportMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []metricDef, want []metricDef) {
		if !slices.Equal(got, want) {
			t.Errorf("%s metrics differ:\nprogram:        %v\nBENCHMARK.json: %v", kind, got, want)
		}
	}
	var e2e, layer []metricDef
	for _, m := range d.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
	}
	for _, m := range d.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit})
	}
	check("end_to_end", endToEnd, e2e)
	check("per_layer", perLayer(), layer)
	var names []string
	for _, w := range d.Workloads {
		names = append(names, w.Name)
	}
	slices.Sort(names)
	if !slices.Equal(names, workloadNames()) {
		t.Errorf("workloads: program %v, BENCHMARK.json %v", workloadNames(), names)
	}
}

func TestSummarizeReportsEveryMetricOfItsMode(t *testing.T) {
	r := &run{values: map[string]float64{}, log: io.Discard}
	for _, d := range endToEnd {
		r.set(d.name, 1)
	}
	r.newTally("x").fail(fail429)
	s, err := r.summarize()
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Metrics) != len(endToEnd) || s.Attempted != 1 || s.Failed != 1 || !s.Correct {
		t.Errorf("untraced summary = %+v", s)
	}
	delete(r.values, "setup_s")
	if _, err := r.summarize(); err == nil {
		t.Error("an unmeasured end-to-end metric was not an error")
	}
	r.trace = true
	if s, err = r.summarize(); err != nil || len(s.Metrics) != len(perLayer()) {
		t.Errorf("traced summary has %d metrics (err %v), want %d", len(s.Metrics), err, len(perLayer()))
	}
	r.wrongOutput("x", os.ErrInvalid)
	if s, _ := r.summarize(); s.Correct {
		t.Error("a wrong output left the run correct")
	}
}
