package core

import (
	"testing"

	"dnnfusion/internal/graph"
	"dnnfusion/internal/models"
)

func buildMicro(name string) *graph.Graph {
	if name == "micro-mlp" {
		return models.MicroMLP()
	}
	return models.MicroAttention()
}

// TestChainFusionShrinksPlannedPeak pins the tentpole memory claim end to
// end: compiling with chain fusion merges the contraction chain of each
// micro model into one streaming kernel, and the M×N intermediate dropping
// out of the arena strictly shrinks PlannedPeakBytes.
func TestChainFusionShrinksPlannedPeak(t *testing.T) {
	for _, m := range []struct {
		name   string
		online bool
	}{
		{"micro-mlp", false},
		{"micro-attention", true},
	} {
		t.Run(m.name, func(t *testing.T) {
			off := Defaults()
			off.ChainFusion = false
			base, err := Compile(buildMicro(m.name), off)
			if err != nil {
				t.Fatal(err)
			}
			fused, err := Compile(buildMicro(m.name), Defaults())
			if err != nil {
				t.Fatal(err)
			}
			if fused.Stats.ChainFusions == 0 {
				t.Fatal("no chain fused under Defaults")
			}
			if base.Stats.ChainFusions != 0 {
				t.Fatalf("ChainFusions = %d with the pass disabled", base.Stats.ChainFusions)
			}
			if fused.HasOnlineChain() != m.online {
				t.Errorf("HasOnlineChain = %v, want %v", fused.HasOnlineChain(), m.online)
			}
			if fp, bp := fused.PlannedPeakBytes(), base.PlannedPeakBytes(); fp >= bp {
				t.Errorf("fused peak %d bytes, unfused %d — intermediate not eliminated", fp, bp)
			}
			if fk, bk := len(fused.Kernels), len(base.Kernels); fk >= bk {
				t.Errorf("fused kernel count %d, unfused %d — chain did not merge kernels", fk, bk)
			}
		})
	}
}
