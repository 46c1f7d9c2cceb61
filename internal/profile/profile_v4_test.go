package profile

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"dnnfusion/internal/ops"
)

// Format-migration coverage for the version-4 database: every older
// fixture loads with its live sections intact (and the missing ones
// empty; the retired schedule caches are ignored), a
// version from the future fails with the typed error, and saving a
// loaded v4 file back is byte-stable.

func writeFixture(t *testing.T, name, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLoadV1IntoV4(t *testing.T) {
	db, err := Load(writeFixture(t, "v1.json", `{"version":1,"entries":{"combo":2.5}}`))
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := db.Lookup("combo"); !ok || v != 2.5 {
		t.Errorf("v1 entry lost: %v, %v", v, ok)
	}
	if db.PlanLen() != 0 {
		t.Error("v1 file should load with the newer sections empty")
	}
}

func TestLoadV2IntoV4(t *testing.T) {
	db, err := Load(writeFixture(t, "v2.json",
		`{"version":2,"entries":{"combo":1},"schedules":{"sched|dev|m=8,n=8,k=8":{"row_tile":4,"col_panel":8,"unroll":4}}}`))
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := db.Lookup("combo"); !ok || v != 1 {
		t.Errorf("v2 entry lost: %v, %v", v, ok)
	}
	if db.PlanLen() != 0 {
		t.Error("v2 file should load with plans empty")
	}
}

func TestLoadV3IntoV4(t *testing.T) {
	db, err := Load(writeFixture(t, "v3.json",
		`{"version":3,"entries":{},"chain_schedules":{"chain|dev|p=8x8x8,c=8x8x8":{"producer":{"row_tile":2,"col_panel":8,"unroll":4},"consumer":{"row_tile":2,"col_panel":16,"unroll":4}}}}`))
	if err != nil {
		t.Fatal(err)
	}
	if db.PlanLen() != 0 {
		t.Error("v3 file should load with plans empty")
	}
	// Re-saving a migrated file writes the current version.
	path := filepath.Join(t.TempDir(), "up.json")
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, []byte(`"version": 4`)) {
		t.Errorf("migrated save is not version 4:\n%s", data)
	}
}

func TestLoadUnknownFutureVersionFails(t *testing.T) {
	path := writeFixture(t, "v99.json", `{"version":99,"entries":{"k":1}}`)
	_, err := Load(path)
	if err == nil {
		t.Fatal("loading a future version succeeded")
	}
	if !errors.Is(err, ErrVersion) {
		t.Errorf("error %v does not match ErrVersion", err)
	}
	var ve *VersionError
	if !errors.As(err, &ve) {
		t.Fatalf("error %T is not a *VersionError", err)
	}
	if ve.Version != 99 || ve.Path != path {
		t.Errorf("VersionError = %+v, want version 99 at %s", ve, path)
	}
}

func TestV4RoundTripByteStable(t *testing.T) {
	db := New()
	db.Insert("combo", 1.25)
	prod := ops.Schedule{RowTile: 4, ColPanel: 32}
	db.InsertPlan(PlanKey("dev", "00f1e2d3c4b5a697", 1), TunedPlan{
		ChainMask:    1,
		NoYellow:     true,
		Kernels:      []TunedKernel{{Task: "sched|dev|m=16,n=96,k=64", Schedule: ops.Schedule{RowTile: 4, ColPanel: 96}, Producer: &prod}},
		MeasuredNs:   12345,
		MeasuredRuns: 7,
	})
	dir := t.TempDir()
	p1 := filepath.Join(dir, "a.json")
	if err := db.Save(p1); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(p1)
	if err != nil {
		t.Fatal(err)
	}
	p2 := filepath.Join(dir, "b.json")
	if err := loaded.Save(p2); err != nil {
		t.Fatal(err)
	}
	b1, err := os.ReadFile(p1)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := os.ReadFile(p2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Errorf("v4 round trip is not byte-stable:\n--- first\n%s\n--- second\n%s", b1, b2)
	}
}

func TestPlanRoundTrip(t *testing.T) {
	db := New()
	key := PlanKey("Snapdragon 865 CPU", "deadbeefdeadbeef", 8)
	tp := TunedPlan{ChainMask: 3, Seeds: 1, MeasuredNs: 999, MeasuredRuns: 4, Analytical: true,
		Kernels: []TunedKernel{{Task: "sched|d|m=1,n=2,k=3", Schedule: ops.Schedule{RowTile: 1, ColPanel: 8}}}}
	db.InsertPlan(key, tp)
	path := filepath.Join(t.TempDir(), "p.json")
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}
	back, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := back.LookupPlan(key)
	if !ok {
		t.Fatal("plan lost in round trip")
	}
	if got.ChainMask != 3 || got.Seeds != 1 || got.MeasuredNs != 999 || !got.Analytical || len(got.Kernels) != 1 {
		t.Errorf("plan mangled: %+v", got)
	}
	if got.Kernels[0] != tp.Kernels[0] {
		t.Errorf("kernel slot mangled: %+v", got.Kernels[0])
	}
	if back.PlanHits != 1 || back.PlanMisses != 0 {
		t.Errorf("plan counters = %d/%d, want 1/0", back.PlanHits, back.PlanMisses)
	}
	if _, ok := back.LookupPlan(PlanKey("d", "0", 1)); ok {
		t.Error("missing plan key should miss")
	}
}

// TestSaveAtomicReplace: Save must replace the destination atomically —
// no torn temp content at the destination path mid-write, and the temp
// file must not survive. (The rename guarantees a concurrent reader sees
// the old or the new complete file; this pins the mechanism.)
func TestSaveAtomicReplace(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "shared.json")
	db := New()
	db.Insert("a", 1)
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}
	db.Insert("b", 2)
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != "shared.json" {
			t.Errorf("stray file %q left next to the database", e.Name())
		}
	}
	back, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 2 {
		t.Errorf("replaced database has %d entries, want 2", back.Len())
	}
}
