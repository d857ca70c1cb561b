package server

import (
	"context"
	"reflect"
	"testing"

	"gbc/internal/core"
	"gbc/internal/gen"
	"gbc/internal/graph"
	"gbc/internal/obs"
	"gbc/internal/xrand"
)

func testGraph(t *testing.T, seed uint64) *graph.Graph {
	t.Helper()
	return gen.BarabasiAlbert(400, 3, xrand.New(seed))
}

func TestRegistryLRUEviction(t *testing.T) {
	m := &obs.Metrics{}
	r := NewRegistry(2, 0, m)
	for _, name := range []string{"a", "b"} {
		if _, err := r.Add(name, "", testGraph(t, 1)); err != nil {
			t.Fatal(err)
		}
	}
	// Touch "a" so "b" is the least recently used, then overflow.
	if _, ok := r.Get("a"); !ok {
		t.Fatal("a missing")
	}
	if _, err := r.Add("c", "", testGraph(t, 1)); err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Get("b"); ok {
		t.Fatal("LRU graph b survived eviction")
	}
	for _, name := range []string{"a", "c"} {
		if _, ok := r.Get(name); !ok {
			t.Fatalf("graph %s evicted wrongly", name)
		}
	}
	if ev := m.Snapshot().RegistryEvictions; ev != 1 {
		t.Fatalf("eviction counter = %d, want 1", ev)
	}
	if r.Len() != 2 {
		t.Fatalf("Len = %d, want 2", r.Len())
	}
}

func TestRegistryDuplicateAndRemove(t *testing.T) {
	r := NewRegistry(4, 0, nil)
	if _, err := r.Add("g", "", testGraph(t, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Add("g", "", testGraph(t, 2)); err == nil {
		t.Fatal("duplicate Add must fail")
	}
	if !r.Remove("g") {
		t.Fatal("Remove existing returned false")
	}
	if r.Remove("g") {
		t.Fatal("Remove of removed name returned true")
	}
	// A freed name is reusable.
	if _, err := r.Add("g", "", testGraph(t, 2)); err != nil {
		t.Fatal(err)
	}
}

func TestRegistryListSorted(t *testing.T) {
	r := NewRegistry(8, 0, nil)
	for _, name := range []string{"zeta", "alpha", "mid"} {
		if _, err := r.Add(name, "", testGraph(t, 1)); err != nil {
			t.Fatal(err)
		}
	}
	var names []string
	for _, e := range r.List() {
		names = append(names, e.Name)
	}
	if !reflect.DeepEqual(names, []string{"alpha", "mid", "zeta"}) {
		t.Fatalf("List not name-sorted: %v", names)
	}
}

// stripElapsed zeroes the wall-clock field so results can be compared for
// bit-identical content.
func stripElapsed(r *core.Result) core.Result {
	c := *r
	c.Elapsed = 0
	return c
}

// TestEntrySolveWarmReuse is the registry's core guarantee: a repeated
// query reuses its sample family's sets (counted as registry hits) and
// still returns a result bit-identical to a cold run.
func TestEntrySolveWarmReuse(t *testing.T) {
	g := testGraph(t, 3)
	opts := core.Options{K: 5, Seed: 7, Epsilon: 0.2}

	cold, err := core.Solve(context.Background(), g, opts)
	if err != nil {
		t.Fatal(err)
	}

	m := &obs.Metrics{}
	r := NewRegistry(2, 0, m)
	e, err := r.Add("g", "", g)
	if err != nil {
		t.Fatal(err)
	}
	first, ver1, err := e.Solve(context.Background(), opts, m)
	if err != nil {
		t.Fatal(err)
	}
	s1 := m.Snapshot()
	if s1.RegistryHits != 0 || s1.RegistryMisses == 0 {
		t.Fatalf("first run should build fresh sets: %+v", s1)
	}
	second, ver2, err := e.Solve(context.Background(), opts, m)
	if err != nil {
		t.Fatal(err)
	}
	if ver1 != 1 || ver2 != 1 {
		t.Fatalf("unpatched entry solved on versions %d/%d, want 1/1", ver1, ver2)
	}
	s2 := m.Snapshot()
	if s2.RegistryHits != s1.RegistryMisses {
		t.Fatalf("second run should hit every warm set: hits=%d misses=%d",
			s2.RegistryHits, s1.RegistryMisses)
	}
	if s2.RegistryMisses != s1.RegistryMisses {
		t.Fatalf("second run built fresh sets: %+v", s2)
	}

	a, b, c := stripElapsed(cold), stripElapsed(first), stripElapsed(second)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("registry run differs from direct Solve:\n  %+v\n  %+v", a, b)
	}
	if !reflect.DeepEqual(b, c) {
		t.Fatalf("warm rerun differs from cold run:\n  %+v\n  %+v", b, c)
	}
}

// TestEntrySolveSeedsIsolated: different seeds are different families and
// must not share sets.
func TestEntrySolveSeedsIsolated(t *testing.T) {
	g := testGraph(t, 3)
	m := &obs.Metrics{}
	r := NewRegistry(2, 0, m)
	e, _ := r.Add("g", "", g)

	if _, _, err := e.Solve(context.Background(), core.Options{K: 4, Seed: 1}, m); err != nil {
		t.Fatal(err)
	}
	misses := m.Snapshot().RegistryMisses
	if _, _, err := e.Solve(context.Background(), core.Options{K: 4, Seed: 2}, m); err != nil {
		t.Fatal(err)
	}
	s := m.Snapshot()
	if s.RegistryHits != 0 {
		t.Fatalf("different seed hit another seed's warm sets: %+v", s)
	}
	if s.RegistryMisses <= misses {
		t.Fatalf("different seed did not build its own sets: %+v", s)
	}
}

// TestEntrySolveUncacheable: algorithms that construct their own sets (and
// runs with caller-supplied RNG) must bypass the family sets entirely.
func TestEntrySolveUncacheable(t *testing.T) {
	g := testGraph(t, 3)
	m := &obs.Metrics{}
	r := NewRegistry(2, 0, m)
	e, _ := r.Add("g", "", g)

	if _, _, err := e.Solve(context.Background(), core.Options{
		Algorithm: core.AlgPairSampling, K: 3, Epsilon: 0.4, MaxSamples: 5000,
	}, m); err != nil {
		t.Fatal(err)
	}
	if cacheable(core.Options{Rand: xrand.New(1)}) {
		t.Fatal("caller RNG must not be cacheable")
	}
	s := m.Snapshot()
	if s.RegistryHits != 0 || s.RegistryMisses != 0 {
		t.Fatalf("uncacheable run touched the warm cache: %+v", s)
	}
}
