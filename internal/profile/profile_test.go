package profile

import (
	"os"
	"path/filepath"
	"testing"

	"dnnfusion/internal/graph"
	"dnnfusion/internal/ops"
	"dnnfusion/internal/tensor"
)

func sampleNodes(t *testing.T) []*graph.Node {
	t.Helper()
	g := graph.New("p")
	x := g.AddInput("x", tensor.Of(2, 3))
	a := g.Apply1(ops.NewRelu(), x)
	b := g.Apply1(ops.NewExp(), a)
	g.MarkOutput(b)
	return g.Nodes
}

func TestLookupInsert(t *testing.T) {
	db := New()
	if _, ok := db.Lookup("k"); ok {
		t.Fatal("empty db returned a hit")
	}
	db.Insert("k", 1.5)
	v, ok := db.Lookup("k")
	if !ok || v != 1.5 {
		t.Fatalf("Lookup = %v, %v", v, ok)
	}
	if db.Hits != 1 || db.Misses != 1 || db.Measurements != 1 {
		t.Errorf("stats = %d/%d/%d, want 1/1/1", db.Hits, db.Misses, db.Measurements)
	}
	db.ResetStats()
	if db.Hits != 0 || db.Len() != 1 {
		t.Error("ResetStats should keep entries")
	}
}

func TestKeyForIsStructural(t *testing.T) {
	n1 := sampleNodes(t)
	n2 := sampleNodes(t) // fresh graph, same structure
	if KeyFor(n1) != KeyFor(n2) {
		t.Error("structurally identical node lists have different keys")
	}
	// Order independence: a combination is a set, not a schedule.
	rev := []*graph.Node{n1[1], n1[0]}
	if KeyFor(n1) != KeyFor(rev) {
		t.Error("key depends on node order")
	}
	// Different shapes must differ.
	g := graph.New("p2")
	x := g.AddInput("x", tensor.Of(4, 4))
	a := g.Apply1(ops.NewRelu(), x)
	b := g.Apply1(ops.NewExp(), a)
	g.MarkOutput(b)
	if KeyFor(n1) == KeyFor(g.Nodes) {
		t.Error("different shapes share a key")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	db := New()
	db.Insert("a", 1)
	db.Insert("b", 2.25)
	path := filepath.Join(t.TempDir(), "profile.json")
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}
	back, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 2 {
		t.Fatalf("loaded %d entries, want 2", back.Len())
	}
	if v, ok := back.Lookup("b"); !ok || v != 2.25 {
		t.Errorf("loaded b = %v, %v", v, ok)
	}
	if _, err := Load(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("loading a missing file should fail")
	}
}

// TestLoadVersion1File pins backward compatibility: databases written
// before the plan table (version 1) still load, and keep their entries
// across a re-save.
func TestLoadVersion1File(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v1.json")
	if err := os.WriteFile(path, []byte(`{"version":1,"entries":{"k":2.5}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	db, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := db.Lookup("k"); !ok || v != 2.5 {
		t.Errorf("v1 entry lost: %v, %v", v, ok)
	}
	db.Insert("k2", 1)
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}
	back, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 2 {
		t.Errorf("upgraded file has %d entries, want 2", back.Len())
	}
}
