// Schedule pin suite: testdata/schedule_golden.json records, per tuning
// task, the tile schedule the genetic selector picked before schedule
// selection became an exhaustive ranking. Every kernel the micro zoo
// compiles (batch 1 and every batchable capacity up to 32 — everything
// the serving path executes) must keep its schedule exactly; on the
// Table 5 zoo the ranking may only pick schedules that score at least as
// well as the old pick.
package dnnfusion_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"

	"dnnfusion"
	"dnnfusion/internal/codegen"
	"dnnfusion/internal/device"
	"dnnfusion/internal/models"
	"dnnfusion/internal/ops"
	"dnnfusion/internal/profile"
	"dnnfusion/internal/tuner"
)

// goldenTask is a schedulable kernel's task: its canonical task string,
// its contraction task(s), and its selected schedule rendered the way the
// golden file stores it ("rt8/cp32", with "+prod:rt8/cp96" for chains).
type goldenTask struct {
	key        string
	prod, cons tuner.Task
	chain      bool
	sched      string
}

func goldenTasks(ks []*codegen.Kernel, dev *device.Device) []goldenTask {
	var out []goldenTask
	for _, k := range ks {
		if k.Block.Chain != nil {
			if pm, pn, pk, cm, cn, ck, ok := k.ChainScheduleTasks(); ok {
				out = append(out, goldenTask{
					key:   profile.ChainScheduleKey(dev.Name, pm, pn, pk, cm, cn, ck),
					prod:  tuner.Task{M: pm, N: pn, K: pk, Device: dev},
					cons:  tuner.Task{M: cm, N: cn, K: ck, Device: dev},
					chain: true,
					sched: fmt.Sprintf("%v+prod:%v", k.Schedule, k.ProducerSchedule),
				})
				continue
			}
		}
		if m, n, kk, ok := k.ScheduleTask(); ok {
			out = append(out, goldenTask{
				key:   profile.ScheduleKey(dev.Name, m, n, kk),
				cons:  tuner.Task{M: m, N: n, K: kk, Device: dev},
				sched: k.Schedule.String(),
			})
		}
	}
	return out
}

func loadGolden(t *testing.T) map[string]map[string]string {
	t.Helper()
	data, err := os.ReadFile("testdata/schedule_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var golden map[string]map[string]string
	if err := json.Unmarshal(data, &golden); err != nil {
		t.Fatal(err)
	}
	return golden
}

func TestScheduleGoldenMicroZoo(t *testing.T) {
	want := loadGolden(t)["micro"]
	dev := device.Snapdragon865CPU()
	seen := map[string]bool{}
	check := func(label string, ks []*codegen.Kernel) {
		for _, gt := range goldenTasks(ks, dev) {
			seen[gt.key] = true
			if w, ok := want[gt.key]; !ok {
				t.Errorf("%s: task %s is not in the golden table", label, gt.key)
			} else if gt.sched != w {
				t.Errorf("%s: task %s selected %s, golden %s", label, gt.key, gt.sched, w)
			}
		}
	}
	for _, mm := range models.MicroModels() {
		m, err := dnnfusion.Compile(mm.Build())
		if err != nil {
			t.Fatal(err)
		}
		check(mm.Name, m.Compiled.Kernels)
		for b := 2; b <= 32; b++ {
			bm, err := m.CompileBatch(b)
			if errors.Is(err, dnnfusion.ErrNotBatchable) {
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("%s batch %d", mm.Name, b), bm.Model().Compiled.Kernels)
		}
	}
	if len(seen) != len(want) {
		t.Errorf("compiled %d distinct tasks, golden table has %d", len(seen), len(want))
	}
}

// parseSchedule reads one "rtR/cpC" schedule of the golden table.
func parseSchedule(t *testing.T, s string) ops.Schedule {
	t.Helper()
	var sc ops.Schedule
	if _, err := fmt.Sscanf(s, "rt%d/cp%d", &sc.RowTile, &sc.ColPanel); err != nil {
		t.Fatalf("golden schedule %q: %v", s, err)
	}
	return sc
}

func TestScheduleGoldenTable5NoWorse(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the whole Table 5 zoo")
	}
	old := loadGolden(t)["table5"]
	dev := device.Snapdragon865CPU()
	changed := 0
	for _, spec := range models.All() {
		m, err := dnnfusion.Compile(spec.Build())
		if err != nil {
			t.Fatal(err)
		}
		for _, gt := range goldenTasks(m.Compiled.Kernels, dev) {
			o, ok := old[gt.key]
			if !ok {
				t.Errorf("%s: task %s is not in the golden table", spec.Name, gt.key)
				continue
			}
			if o == gt.sched {
				continue
			}
			changed++
			var oldFit, newFit float64
			if gt.chain {
				oc, op, _ := strings.Cut(o, "+prod:")
				nc, np, _ := strings.Cut(gt.sched, "+prod:")
				oldFit = tuner.ScheduleFitness(gt.prod, parseSchedule(t, op)) * tuner.ScheduleFitness(gt.cons, parseSchedule(t, oc))
				newFit = tuner.ScheduleFitness(gt.prod, parseSchedule(t, np)) * tuner.ScheduleFitness(gt.cons, parseSchedule(t, nc))
			} else {
				oldFit = tuner.ScheduleFitness(gt.cons, parseSchedule(t, o))
				newFit = tuner.ScheduleFitness(gt.cons, parseSchedule(t, gt.sched))
			}
			if newFit < oldFit {
				t.Errorf("%s: task %s selected %s (fitness %v), below the old pick %s (%v)", spec.Name, gt.key, gt.sched, newFit, o, oldFit)
			}
		}
	}
	t.Logf("%d Table 5 kernels changed schedule, none to a lower fitness", changed)
}
