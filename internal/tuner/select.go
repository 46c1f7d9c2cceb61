package tuner

import (
	"sort"

	"dnnfusion/internal/ops"
)

// Schedule selection over the real heavy kernels instead of the abstract
// (TileM, TileN, TileK) surface. The executable kernels never tile K —
// every output element accumulates the full contraction in ascending
// order so results stay bit-exact with the scalar oracle — so the ranked
// parameters are exactly the two the blocked paths implement: register
// row-tile height and L1 column-panel width. The fitness surface prices
// the full-K working set against the device's cache hierarchy
// (Device.CacheBytes), B-row reuse against the tile height, and A
// re-streaming against the panel count, so taller inputs (batch-stacked
// matmuls) select taller row tiles and narrower panels than their batch-1
// shapes. The space (4 row tiles × 7 panels) is small enough to rank
// exhaustively, so selection is the argmax rather than a search.

// rowTileChoices are the register-tile heights the blocked kernels
// implement as specialized loops (ops.Schedule.RowTile).
var rowTileChoices = []int{1, 2, 4, 8}

// colPanelChoices span thin L1 panels to full-width single passes.
var colPanelChoices = []int{8, 16, 32, 64, 128, 256, 512}

// normalizeSchedule clamps a candidate against the task shape the way the
// kernels will (ops side): panels live in [8, N]. Normalizing before
// ranking keeps task strings and determinism checks canonical, and folds
// candidates that execute identically into one.
func normalizeSchedule(t Task, s ops.Schedule) ops.Schedule {
	if s.ColPanel < 8 {
		s.ColPanel = 8
	}
	if s.ColPanel > t.N {
		s.ColPanel = t.N
	}
	if s.RowTile > t.M {
		// A tile taller than the whole output never engages; fall to the
		// tallest height that fits.
		for _, rt := range []int{8, 4, 2, 1} {
			if rt <= t.M {
				s.RowTile = rt
				break
			}
		}
	}
	return s
}

// ScheduleFitness scores a tile schedule for a heavy kernel task in
// (0, 1]. Deterministic, so selection results are reproducible.
func ScheduleFitness(t Task, s ops.Schedule) float64 {
	if s.RowTile < 1 || s.ColPanel < 1 {
		return 0
	}
	// Working set of one pass with the full contraction resident: the
	// row-tile strip of A, the K×panel slab of B, and the output tile.
	ws := float64(s.RowTile*t.K+t.K*s.ColPanel+s.RowTile*s.ColPanel) * t.Device.BytesPerElem
	l1, l2 := t.Device.CacheBytes()
	cache := cacheScore(ws, l1, l2)
	// B rows are loaded and widened once per row tile: reuse grows with
	// tile height, saturating as the loads amortize away.
	reuseScore := 1 - 0.45/float64(s.RowTile)
	// Every column panel re-streams the A strip: more passes, more A
	// traffic.
	passes := (t.N + s.ColPanel - 1) / s.ColPanel
	passScore := 1 / (1 + 0.08*float64(passes-1))
	// Remainder loops hurt, exactly as in the abstract surface.
	divScore := rem(t.M, s.RowTile) * rem(t.N, s.ColPanel)
	return cache * reuseScore * passScore * divScore
}

// SelectTopK returns the k best distinct schedules for the task by the
// analytical fitness, best first: the first entry is the analytical
// schedule, the rest the measured search's shortlist. Ties break toward
// smaller tiles, so the ordering is a pure function of (task, device).
func SelectTopK(t Task, k int) []ops.Schedule {
	if k < 1 {
		return nil
	}
	type scored struct {
		s     ops.Schedule
		score float64
	}
	seen := map[ops.Schedule]bool{}
	var all []scored
	for _, rt := range rowTileChoices {
		for _, cp := range colPanelChoices {
			s := normalizeSchedule(t, ops.Schedule{RowTile: rt, ColPanel: cp})
			if seen[s] {
				continue
			}
			seen[s] = true
			all = append(all, scored{s: s, score: ScheduleFitness(t, s)})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.score != b.score {
			return a.score > b.score
		}
		if a.s.RowTile != b.s.RowTile {
			return a.s.RowTile < b.s.RowTile
		}
		return a.s.ColPanel < b.s.ColPanel
	})
	if k > len(all) {
		k = len(all)
	}
	out := make([]ops.Schedule, k)
	for i := range out {
		out[i] = all[i].s
	}
	return out
}

// ChainScheduleResult is one ranked schedule pair for a fused contraction
// chain.
type ChainScheduleResult struct {
	// Producer tiles the chain's first contraction (its ColPanel doubles
	// as the online softmax's key-panel width); Consumer tiles the second.
	Producer ops.Schedule
	Consumer ops.Schedule
	Score    float64
}

// SelectChainTopK returns the k best distinct schedule pairs for a fused
// contraction chain, best first, ranked exhaustively (4 row tiles × 7
// panels × 7 panels). The row tile is shared — the chain kernel pulls
// producer rows in exactly the consumer's row groups, so mismatched
// heights would re-tile at the seam — while each contraction gets its own
// column panel. The pair score is the product of the two fitnesses.
func SelectChainTopK(prod, cons Task, k int) []ChainScheduleResult {
	if k < 1 {
		return nil
	}
	type pairKey struct{ p, c ops.Schedule }
	seen := map[pairKey]bool{}
	var all []ChainScheduleResult
	for _, rt := range rowTileChoices {
		for _, pcp := range colPanelChoices {
			ps := normalizeSchedule(prod, ops.Schedule{RowTile: rt, ColPanel: pcp})
			pScore := ScheduleFitness(prod, ps)
			for _, ccp := range colPanelChoices {
				cs := normalizeSchedule(cons, ops.Schedule{RowTile: rt, ColPanel: ccp})
				key := pairKey{ps, cs}
				if seen[key] {
					continue
				}
				seen[key] = true
				all = append(all, ChainScheduleResult{Producer: ps, Consumer: cs, Score: pScore * ScheduleFitness(cons, cs)})
			}
		}
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.Score != b.Score {
			return a.Score > b.Score
		}
		if a.Producer.RowTile != b.Producer.RowTile {
			return a.Producer.RowTile < b.Producer.RowTile
		}
		if a.Producer.ColPanel != b.Producer.ColPanel {
			return a.Producer.ColPanel < b.Producer.ColPanel
		}
		return a.Consumer.ColPanel < b.Consumer.ColPanel
	})
	if k > len(all) {
		k = len(all)
	}
	return all[:k]
}
