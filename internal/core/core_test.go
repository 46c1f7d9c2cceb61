package core

import (
	"context"
	"fmt"
	"testing"

	"dnnfusion/internal/device"
	"dnnfusion/internal/graph"
	"dnnfusion/internal/models"
	"dnnfusion/internal/ops"
	"dnnfusion/internal/profile"
	"dnnfusion/internal/tensor"
	"dnnfusion/internal/tuner"
)

// buildAttentionish: a transformer-flavored micro-graph with rewritable
// redundancy (double transpose) and fusable chains.
func buildAttentionish(t *testing.T) *graph.Graph {
	t.Helper()
	g := graph.New("attn")
	x := g.AddInput("x", tensor.Of(8, 16))
	wq := g.AddWeight("wq", tensor.New(16, 16).Rand(1))
	q := g.Apply1(ops.NewMatMul(), x, wq)
	q = g.Apply1(ops.NewTranspose(1, 0), q)
	q = g.Apply1(ops.NewTranspose(1, 0), q) // export cruft: cancels
	q = g.Apply1(ops.NewMulConst(0.25), q)
	k := g.Apply1(ops.NewMatMul(), x, g.AddWeight("wk", tensor.New(16, 16).Rand(2)))
	scores := g.Apply1(ops.NewMatMul(), q, g.Apply1(ops.NewTranspose(1, 0), k))
	attn := g.Apply1(ops.NewSoftmax(-1), scores)
	g.MarkOutput(attn)
	if err := g.Validate(); err != nil {
		t.Fatalf("invalid: %v", err)
	}
	return g
}

func TestCompileFullPipeline(t *testing.T) {
	g := buildAttentionish(t)
	before := len(g.Nodes)
	c, err := Compile(g, Defaults())
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Nodes) != before {
		t.Error("Compile mutated the input graph")
	}
	if c.Stats.RewriteApplied == 0 {
		t.Error("rewriting found nothing on a graph with a transpose pair")
	}
	if c.FusedLayerCount() >= len(c.G.Nodes) {
		t.Errorf("fusion produced %d kernels for %d nodes", c.FusedLayerCount(), len(c.G.Nodes))
	}
	if len(c.Kernels) != c.FusedLayerCount() {
		t.Errorf("kernels %d != blocks %d", len(c.Kernels), c.FusedLayerCount())
	}
}

func TestCompiledRunMatchesInterpreter(t *testing.T) {
	g := buildAttentionish(t)
	x := tensor.NewOf(g.Inputs[0].Shape).Rand(9)
	want, err := graph.InterpretOutputs(g, map[*graph.Value]*tensor.Tensor{g.Inputs[0]: x})
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []Options{
		Defaults(),
		{Fusion: true},       // no rewriting
		{GraphRewrite: true}, // no fusion
		{},                   // neither
	} {
		c, err := Compile(g, opts)
		if err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		got, err := c.NewSession().Run(context.Background(),
			map[*graph.Value]*tensor.Tensor{c.G.Inputs[0]: x})
		if err != nil {
			t.Fatalf("%+v run: %v", opts, err)
		}
		if !tensor.AllClose(got[0], want[0], 1e-4) {
			t.Errorf("opts %+v changed semantics (max diff %g)",
				opts, tensor.MaxAbsDiff(got[0], want[0]))
		}
	}
}

func TestSessionMissingInputCheck(t *testing.T) {
	g := buildAttentionish(t)
	c, err := Compile(g, Defaults())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.NewSession().Run(context.Background(), nil); err == nil {
		t.Error("Run with missing inputs should fail")
	}
}

func TestProfileDBReducesMeasurements(t *testing.T) {
	g := buildAttentionish(t)
	dev := device.Snapdragon865CPU()
	db := profile.New()

	opts := Defaults()
	opts.Device = dev
	opts.ProfileDB = db
	c1, err := Compile(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	coldMisses := c1.Stats.ProfileMisses
	if c1.Stats.ProfileLookups == 0 {
		t.Skip("this graph produced no yellow decisions; covered by model-level tests")
	}
	// Second compilation with the warmed database.
	c2, err := Compile(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	if c2.Stats.ProfileMisses >= coldMisses && coldMisses > 0 {
		t.Errorf("warm database did not reduce measurements: %d -> %d",
			coldMisses, c2.Stats.ProfileMisses)
	}
	if c1.FusedLayerCount() != c2.FusedLayerCount() {
		t.Error("profile database changed the plan")
	}
}

func TestSimulatePipelineOrdering(t *testing.T) {
	g := buildAttentionish(t)
	dev := device.Snapdragon865CPU()
	latency := func(opts Options) float64 {
		c, err := Compile(g, opts)
		if err != nil {
			t.Fatal(err)
		}
		r, err := c.Simulate(dev)
		if err != nil {
			t.Fatal(err)
		}
		return r.LatencyMs
	}
	ourB := latency(Options{})
	gr := latency(Options{GraphRewrite: true})
	grFuse := latency(Options{GraphRewrite: true, Fusion: true})
	full := latency(Defaults())
	if gr > ourB {
		t.Errorf("rewriting slowed things down: %v > %v", gr, ourB)
	}
	if grFuse > gr {
		t.Errorf("fusion slowed things down: %v > %v", grFuse, gr)
	}
	if full > grFuse {
		t.Errorf("other optimizations slowed things down: %v > %v", full, grFuse)
	}
	if full >= ourB {
		t.Errorf("full pipeline not faster than baseline: %v >= %v", full, ourB)
	}
}

func TestEstimateBlockLatencyBoundaries(t *testing.T) {
	g := buildAttentionish(t)
	dev := device.Snapdragon865CPU()
	single := EstimateBlockLatency(dev, g.Nodes[:1])
	pair := EstimateBlockLatency(dev, g.Nodes[:2])
	if single <= 0 || pair <= 0 {
		t.Fatal("non-positive block latency")
	}
	// Fusing two ops into one kernel saves a launch: the fused estimate
	// must undercut the sum of separate estimates.
	sum := single + EstimateBlockLatency(dev, g.Nodes[1:2])
	if pair >= sum {
		t.Errorf("fused estimate %v >= split %v", pair, sum)
	}
}

// TestScheduleSelectionDeterministic pins the compile-artifact contract:
// compiling the same model twice yields identical tile schedules, chain
// producer schedules included (selection is a pure function of shape and
// device).
func TestScheduleSelectionDeterministic(t *testing.T) {
	schedulesOf := func(c *Compiled) []string {
		var out []string
		for _, k := range c.Kernels {
			if k.Schedule.Zero() {
				continue
			}
			out = append(out, fmt.Sprintf("%dx%dx%d:%v+prod:%v", k.TaskM, k.TaskN, k.TaskK, k.Schedule, k.ProducerSchedule))
		}
		return out
	}
	for _, g := range []*graph.Graph{buildAttentionish(t), buildMicro("micro-attention")} {
		c1, err := Compile(g, Defaults())
		if err != nil {
			t.Fatal(err)
		}
		c2, err := Compile(g, Defaults())
		if err != nil {
			t.Fatal(err)
		}
		s1, s2 := schedulesOf(c1), schedulesOf(c2)
		if len(s1) == 0 {
			t.Fatalf("%s: no kernel got a schedule; the graph has heavy kernels", g.Name)
		}
		if c1.Stats.ScheduleLookups != len(s1) || c1.Stats.ScheduleMisses != len(s1) {
			t.Fatalf("%s: stats did not record selection of %d kernels: %+v", g.Name, len(s1), c1.Stats)
		}
		if fmt.Sprint(s1) != fmt.Sprint(s2) {
			t.Fatalf("%s: same model compiled to different schedules:\n%v\n%v", g.Name, s1, s2)
		}
	}
}

// TestScheduleDeviceChangesSelection pins that WithDevice reaches the
// kernels: every kernel's schedule is the top of the ranking for the
// compile target's cache hierarchy, and the CPU and GPU targets (different
// cache sizes) select differently on VGG-16's convolutions.
func TestScheduleDeviceChangesSelection(t *testing.T) {
	var picks []string
	for _, dev := range []*device.Device{device.Snapdragon865CPU(), device.Adreno650()} {
		opts := Defaults()
		opts.Device = dev
		c, err := Compile(models.VGG16(), opts)
		if err != nil {
			t.Fatal(err)
		}
		var got []ops.Schedule
		for _, k := range c.Kernels {
			if k.Schedule.Zero() {
				continue
			}
			want := tuner.SelectTopK(tuner.Task{M: k.TaskM, N: k.TaskN, K: k.TaskK, Device: dev}, 1)[0]
			if k.Schedule != want {
				t.Errorf("%s: kernel %s has %v, the ranking for the device picks %v", dev.Name, k.Name, k.Schedule, want)
			}
			got = append(got, k.Schedule)
		}
		if len(got) == 0 {
			t.Fatalf("%s: no kernel got a schedule", dev.Name)
		}
		picks = append(picks, fmt.Sprint(got))
	}
	if picks[0] == picks[1] {
		t.Errorf("CPU and GPU targets selected identical schedules %s; the device does not reach selection", picks[0])
	}
}
