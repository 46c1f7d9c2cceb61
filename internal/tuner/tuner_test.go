package tuner

import (
	"fmt"
	"testing"
	"testing/quick"

	"dnnfusion/internal/device"
	"dnnfusion/internal/ops"
)

func task() Task {
	return Task{M: 256, N: 256, K: 512, Device: device.Snapdragon865CPU()}
}

func TestFitnessBounds(t *testing.T) {
	f := func(mi, ni, ki, ui uint8, vec bool) bool {
		p := Params{
			TileM:     tileChoices[int(mi)%len(tileChoices)],
			TileN:     tileChoices[int(ni)%len(tileChoices)],
			TileK:     tileChoices[int(ki)%len(tileChoices)],
			Unroll:    unrollChoices[int(ui)%len(unrollChoices)],
			Vectorize: vec,
		}
		s := Fitness(task(), p)
		return s > 0 && s <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
	if Fitness(task(), Params{}) != 0 {
		t.Error("zero tiles must score 0")
	}
}

func TestFitnessDeterministic(t *testing.T) {
	p := Params{TileM: 16, TileN: 16, TileK: 32, Unroll: 4, Vectorize: true}
	if Fitness(task(), p) != Fitness(task(), p) {
		t.Error("fitness not deterministic")
	}
}

func TestGAImprovesOverGenerations(t *testing.T) {
	res := TuneGA(task(), GAOptions{Seed: 7})
	if res.Score <= 0 {
		t.Fatal("GA found nothing")
	}
	first, last := res.History[0], res.History[len(res.History)-1]
	if last < first {
		t.Errorf("best-so-far regressed: %v -> %v", first, last)
	}
	if res.Trials != 16*12 {
		t.Errorf("trials = %d, want population*generations", res.Trials)
	}
}

func TestGABeatsRandomAtEqualBudget(t *testing.T) {
	// Averaged over seeds, GA should match or beat random search with the
	// same trial budget — the premise of the paper's fast tuning claim.
	var gaWins int
	const seeds = 7
	for s := uint64(1); s <= seeds; s++ {
		ga := TuneGA(task(), GAOptions{Seed: s})
		rnd := TuneRandom(task(), ga.Trials, s)
		if ga.Score >= rnd.Score {
			gaWins++
		}
	}
	if gaWins < seeds/2+1 {
		t.Errorf("GA won only %d/%d seed matchups", gaWins, seeds)
	}
}

func TestGAReproducible(t *testing.T) {
	a := TuneGA(task(), GAOptions{Seed: 3})
	b := TuneGA(task(), GAOptions{Seed: 3})
	if a.Best != b.Best || a.Score != b.Score {
		t.Error("same seed produced different tuning results")
	}
}

func TestRandomSearchMonotoneInBudget(t *testing.T) {
	small := TuneRandom(task(), 16, 5)
	big := TuneRandom(task(), 512, 5)
	if big.Score < small.Score {
		t.Errorf("more random trials found a worse result: %v < %v", big.Score, small.Score)
	}
}

func TestGoodTilesBeatDegenerateTiles(t *testing.T) {
	good := Fitness(task(), Params{TileM: 32, TileN: 32, TileK: 64, Unroll: 4, Vectorize: true})
	degenerate := Fitness(task(), Params{TileM: 1, TileN: 1, TileK: 1, Unroll: 1, Vectorize: false})
	if good <= degenerate {
		t.Errorf("fitness surface inverted: good %v <= degenerate %v", good, degenerate)
	}
}

// --- Schedule selection (exhaustive ranking) -----------------------------

func selTask(m, n, k int) Task {
	return Task{M: m, N: n, K: k, Device: device.Snapdragon865CPU()}
}

// pick is the analytical schedule: the top of the exhaustive ranking.
func pick(t Task) ops.Schedule { return SelectTopK(t, 1)[0] }

func TestSelectDeterministic(t *testing.T) {
	a := SelectTopK(selTask(128, 96, 64), 28)
	b := SelectTopK(selTask(128, 96, 64), 28)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Errorf("same task ranked differently: %v vs %v", a, b)
	}
}

func TestSelectNormalizedAgainstShape(t *testing.T) {
	for _, tc := range []struct{ m, n, k int }{
		{1, 16, 64}, {8, 10, 128}, {16, 96, 64}, {128, 96, 64}, {512, 8, 27}, {1000, 1000, 200},
	} {
		task := selTask(tc.m, tc.n, tc.k)
		s := pick(task)
		switch s.RowTile {
		case 1, 2, 4, 8:
		default:
			t.Errorf("task %v: unsupported row tile %d", tc, s.RowTile)
		}
		if s.RowTile > tc.m {
			t.Errorf("task %v: row tile %d taller than M", tc, s.RowTile)
		}
		if s.ColPanel > tc.n || (tc.n >= 8 && s.ColPanel < 8) {
			t.Errorf("task %v: panel %d outside [8, N]", tc, s.ColPanel)
		}
		if score := ScheduleFitness(task, s); score <= 0 || score > 1 {
			t.Errorf("task %v: score %v outside (0, 1]", tc, score)
		}
	}
}

// TestSelectTallerTilesForTallerInputs pins the batching mechanism: a
// batch-stacked (taller M) variant of the same kernel must not select a
// shorter row tile, and a single-row kernel can only select height 1.
func TestSelectTallerTilesForTallerInputs(t *testing.T) {
	single := pick(selTask(1, 16, 64))
	if single.RowTile != 1 {
		t.Errorf("M=1 selected row tile %d", single.RowTile)
	}
	batched := pick(selTask(8, 16, 64))
	if batched.RowTile <= single.RowTile {
		t.Errorf("batch-stacked task did not select a taller tile: %d vs %d",
			batched.RowTile, single.RowTile)
	}
}

// TestRankedSchedulesDistinct: every ranked alternative must be a
// different executable — distinct in (RowTile, ColPanel) after
// normalization — or the measured search times the same program twice.
// The ranking must also be the argmax: the first entry scores at least as
// well as any point of the space.
func TestRankedSchedulesDistinct(t *testing.T) {
	type rc struct{ rt, cp int }
	for _, m := range []int{1, 3, 8, 16, 128, 1000} {
		for _, n := range []int{1, 8, 10, 96, 1000} {
			for _, k := range []int{27, 64, 512} {
				task := selTask(m, n, k)
				ranked := SelectTopK(task, 28)
				seen := map[rc]bool{}
				for _, s := range ranked {
					key := rc{s.RowTile, s.ColPanel}
					if seen[key] {
						t.Fatalf("task %dx%dx%d: schedule rt%d/cp%d ranked twice in %v", m, n, k, key.rt, key.cp, ranked)
					}
					seen[key] = true
					if normalizeSchedule(task, s) != s {
						t.Errorf("task %dx%dx%d: ranked schedule %v is not normalized", m, n, k, s)
					}
				}
				best := ScheduleFitness(task, ranked[0])
				for _, rt := range rowTileChoices {
					for _, cp := range colPanelChoices {
						s := normalizeSchedule(task, opsSchedule(rt, cp))
						if f := ScheduleFitness(task, s); f > best {
							t.Errorf("task %dx%dx%d: %v scores %v above the top pick %v (%v)", m, n, k, s, f, ranked[0], best)
						}
					}
				}
				pairs := map[[2]rc]bool{}
				for _, p := range SelectChainTopK(task, selTask(m, k, n), 196) {
					key := [2]rc{{p.Producer.RowTile, p.Producer.ColPanel}, {p.Consumer.RowTile, p.Consumer.ColPanel}}
					if pairs[key] {
						t.Fatalf("chain %dx%dx%d: pair %v ranked twice", m, n, k, key)
					}
					pairs[key] = true
				}
			}
		}
	}
}

func TestScheduleFitnessBounds(t *testing.T) {
	task := selTask(256, 256, 512)
	for _, rt := range rowTileChoices {
		for _, cp := range colPanelChoices {
			s := ScheduleFitness(task, normalizeSchedule(task, opsSchedule(rt, cp)))
			if s <= 0 || s > 1 {
				t.Fatalf("fitness %v outside (0, 1] for rt=%d cp=%d", s, rt, cp)
			}
		}
	}
	if ScheduleFitness(task, opsSchedule(0, 0)) != 0 {
		t.Error("zero schedule must score 0")
	}
}

// opsSchedule is sugar for building a schedule literal in tests.
func opsSchedule(rt, cp int) ops.Schedule {
	return ops.Schedule{RowTile: rt, ColPanel: cp}
}
