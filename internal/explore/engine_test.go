package explore

import (
	"testing"

	"snappif/internal/graph"
)

// TestSimEngineAllocs pins the cost of an explored transition on the sim
// engine, whose one runner is restarted with Reset instead of rebuilt: Step
// allocates exactly its two results (the successor vector and the enabled
// copy) and Probe exactly its one (the enabled copy).
func TestSimEngineAllocs(t *testing.T) {
	g := mustGraph(t, graph.Ring, 5)
	eng, err := newSimEngine(g, 0, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	inits := mustInits(t, "faults:2", g)
	v := inits[len(inits)/2]
	enabled, err := eng.Probe(v)
	if err != nil || len(enabled) == 0 {
		t.Fatalf("Probe = %v, %v; want a non-empty enabled set", enabled, err)
	}
	sel := enabled[:1]
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := eng.Probe(v); err != nil {
			t.Fatal(err)
		}
	}); allocs != 1 {
		t.Errorf("Probe allocates %.2f objects, want 1", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if _, after, err := eng.Step(v, sel); err != nil || len(after) == 0 {
			t.Fatalf("Step = %v, %v; want a non-empty enabled set", after, err)
		}
	}); allocs != 2 {
		t.Errorf("Step allocates %.2f objects, want 2", allocs)
	}
}
