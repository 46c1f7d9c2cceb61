// Measured-tuning determinism suite over the public API: a warm profile
// database must eliminate measurement entirely (zero measured runs, a
// tuned-plan hit, no schedule misses), structurally identical graphs must
// share one tuned plan via the graph fingerprint, and a weight-shape
// change must miss. The measurement clock is stubbed so the suite is
// deterministic on any machine.
package dnnfusion_test

import (
	"bytes"
	"context"
	"math"
	"os"
	"path/filepath"
	"testing"

	"dnnfusion"

	"dnnfusion/internal/models"
	"dnnfusion/internal/tuner"
)

func compileTuned(t *testing.T, g *dnnfusion.Graph, db *dnnfusion.ProfileDB) *dnnfusion.Model {
	t.Helper()
	m, err := dnnfusion.Compile(g,
		dnnfusion.WithMeasuredTuning(6),
		dnnfusion.WithProfileDB(db),
		dnnfusion.WithThreads(1))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestMeasuredTuningWarmStart(t *testing.T) {
	tuner.SetClock(tuner.StepClock(1000))
	defer tuner.ResetClock()
	db := dnnfusion.NewProfileDB()

	cold := compileTuned(t, models.MicroMLP(), db)
	if cold.Stats.MeasuredRuns < 1 {
		t.Errorf("cold compile measured %d runs, want >= 1", cold.Stats.MeasuredRuns)
	}
	if cold.Stats.TunedPlanMisses != 1 || cold.Stats.TunedPlanHits != 0 {
		t.Errorf("cold compile plan hits/misses = %d/%d, want 0/1",
			cold.Stats.TunedPlanHits, cold.Stats.TunedPlanMisses)
	}
	if cold.Fingerprint == "" {
		t.Error("cold compile did not record the graph fingerprint")
	}
	if db.PlanLen() != 1 {
		t.Fatalf("database holds %d tuned plans after the cold compile, want 1", db.PlanLen())
	}

	// A fresh build of the same architecture (different graph object,
	// different weight values) warm-starts from the persisted plan with
	// zero measurement — the CI autotune gate's contract.
	warm := compileTuned(t, models.MicroMLP(), db)
	if warm.Stats.MeasuredRuns != 0 {
		t.Errorf("warm compile measured %d runs, want 0", warm.Stats.MeasuredRuns)
	}
	if warm.Stats.TunedPlanHits != 1 || warm.Stats.TunedPlanMisses != 0 {
		t.Errorf("warm compile plan hits/misses = %d/%d, want 1/0",
			warm.Stats.TunedPlanHits, warm.Stats.TunedPlanMisses)
	}
	if warm.Stats.ScheduleMisses != 0 {
		t.Errorf("warm compile reports %d schedule misses, want 0", warm.Stats.ScheduleMisses)
	}
	if warm.Stats.ScheduleLookups == 0 {
		t.Error("warm compile reports no schedule lookups; the plan replay went unrecorded")
	}
	if warm.Fingerprint != cold.Fingerprint {
		t.Errorf("structurally identical graphs fingerprint differently: %s vs %s",
			warm.Fingerprint, cold.Fingerprint)
	}

	// Same plan, same schedules → bit-identical execution.
	in := map[string]*dnnfusion.Tensor{"x": dnnfusion.Rand(16, 64)}
	a, err := cold.NewRunner().Run(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	b, err := warm.NewRunner().Run(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	for name, at := range a {
		ad, bd := at.Data(), b[name].Data()
		for i := range ad {
			if math.Float32bits(ad[i]) != math.Float32bits(bd[i]) {
				t.Fatalf("output %q[%d]: cold %g != warm %g", name, i, ad[i], bd[i])
			}
		}
	}
}

func TestMeasuredTuningFingerprintShapeMiss(t *testing.T) {
	tuner.SetClock(tuner.StepClock(1000))
	defer tuner.ResetClock()
	db := dnnfusion.NewProfileDB()

	mlp := func(hidden int) *dnnfusion.Graph {
		g := dnnfusion.NewGraph("shape-probe")
		x := g.AddInput("x", dnnfusion.ShapeOf(1, 32))
		w := g.AddWeight("w", dnnfusion.Rand(32, hidden))
		g.MarkOutputAs("y", g.Apply1(dnnfusion.Relu(), g.Apply1(dnnfusion.MatMul(), x, w)))
		return g
	}

	narrow := compileTuned(t, mlp(16), db)
	wide := compileTuned(t, mlp(64), db)
	if narrow.Fingerprint == wide.Fingerprint {
		t.Error("changing a weight shape did not change the fingerprint")
	}
	if wide.Stats.TunedPlanHits != 0 || wide.Stats.TunedPlanMisses != 1 {
		t.Errorf("shape change hit the other shape's tuned plan: hits/misses = %d/%d",
			wide.Stats.TunedPlanHits, wide.Stats.TunedPlanMisses)
	}
	if db.PlanLen() != 2 {
		t.Errorf("database holds %d tuned plans, want one per shape (2)", db.PlanLen())
	}
}

func TestMeasuredTuningOffByDefault(t *testing.T) {
	m, err := dnnfusion.Compile(models.MicroMLP(), dnnfusion.WithThreads(1))
	if err != nil {
		t.Fatal(err)
	}
	if m.Stats.MeasuredRuns != 0 || m.Stats.TunedPlanHits != 0 || m.Stats.TunedPlanMisses != 0 {
		t.Errorf("analytical compile touched the measured path: %+v", m.Stats)
	}
	if m.Fingerprint != "" {
		t.Errorf("analytical compile fingerprinted the graph: %q", m.Fingerprint)
	}
}

// TestMeasuredTuningParentV4File: testdata/profile_v4_parent.json is a
// format-4 database as written before the per-shape schedule caches were
// retired — yellow-latency entries, "schedules" and "chain_schedules"
// sections, and an "unroll" factor in every stored schedule. It must
// load, its tuned plan must replay with zero measurement, and a re-save
// must drop the dead sections while staying version 4.
func TestMeasuredTuningParentV4File(t *testing.T) {
	data, err := os.ReadFile("testdata/profile_v4_parent.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"schedules"`, `"chain_schedules"`, `"unroll"`} {
		if !bytes.Contains(data, []byte(key)) {
			t.Fatalf("fixture lacks %s; it no longer exercises the old sections", key)
		}
	}
	path := filepath.Join(t.TempDir(), "profile.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	db, err := dnnfusion.LoadProfileDB(path)
	if err != nil {
		t.Fatal(err)
	}
	if db.Len() == 0 || db.PlanLen() != 1 {
		t.Fatalf("loaded %d latency entries and %d tuned plans, want >0 and 1", db.Len(), db.PlanLen())
	}

	tuner.SetClock(tuner.StepClock(1000))
	defer tuner.ResetClock()
	m := compileTuned(t, models.MicroMLP(), db)
	if m.Stats.TunedPlanHits != 1 || m.Stats.MeasuredRuns != 0 || m.Stats.ScheduleMisses != 0 {
		t.Errorf("tuned plan did not replay: hits=%d measured_runs=%d schedule_misses=%d",
			m.Stats.TunedPlanHits, m.Stats.MeasuredRuns, m.Stats.ScheduleMisses)
	}

	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}
	saved, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(saved, []byte(`"version": 4`)) {
		t.Errorf("re-save is not version 4:\n%s", saved)
	}
	for _, key := range []string{`"schedules"`, `"chain_schedules"`, `"unroll"`} {
		if bytes.Contains(saved, []byte(key)) {
			t.Errorf("re-save still carries %s:\n%s", key, saved)
		}
	}
}
