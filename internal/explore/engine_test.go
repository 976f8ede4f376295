package explore

import (
	"runtime"
	"testing"

	"snappif/internal/core"
	"snappif/internal/graph"
	"snappif/internal/sim"
)

// TestSimEngineAllocs pins the cost of an explored transition on the sim
// engine, whose one runner is restarted instead of rebuilt: Step writes the
// successor into the caller's buffer and appends its enabled set to
// another, as Probe does, so once the buffers are warm neither allocates.
func TestSimEngineAllocs(t *testing.T) {
	g := mustGraph(t, graph.Ring, 5)
	eng, err := newSimEngine(g, 0, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	inits := mustInits(t, "faults:2", g)
	v := inits[len(inits)/2]
	enabled, err := eng.Probe(v, nil)
	if err != nil || len(enabled) == 0 {
		t.Fatalf("Probe = %v, %v; want a non-empty enabled set", enabled, err)
	}
	sel := enabled[:1]
	succ := make([]core.State, len(v))
	buf := make([]sim.Choice, 0, g.N())
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := eng.Probe(v, buf[:0]); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("Probe allocates %.2f objects, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if after, err := eng.Step(v, enabled, sel, succ, buf[:0]); err != nil || len(after) == 0 {
			t.Fatalf("Step = %v, %v; want a non-empty enabled set", after, err)
		}
	}); allocs != 0 {
		t.Errorf("Step allocates %.2f objects, want 0", allocs)
	}
}

// mallocs returns the heap objects f allocates, counted by the runtime
// across every goroutine f starts.
func mallocs(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestCertifyAllocs bounds the heap objects of the two certify questions.
// The safety Run (grid:2x3 from faults:2, central daemon, POR, symmetry,
// two workers: 109,560 states) may allocate only what grows its columns
// and per-layer buffers and starts its workers — not one object per state
// or transition, as the Section-4 checks and the engine's enabled sets once
// did (over 1,000,000 objects). The liveness certificate (ring:5 from
// faults:2, target normal: 35,007 product states over 16,634 engine steps)
// is bounded the same way, below one object per engine step.
func TestCertifyAllocs(t *testing.T) {
	grid, err := graph.Grid(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	inits := mustInits(t, "faults:2", grid)
	e, err := New(grid, 0, Options{POR: true, Symmetry: true, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	var res *Result
	safety := mallocs(func() { res, err = e.Run(inits) })
	if err != nil || res.States != 109560 || res.Verdict != "certified" {
		t.Fatalf("safety Run = %+v, %v; want 109560 states, certified", res, err)
	}
	ring := mustGraph(t, graph.Ring, 5)
	ringInits := mustInits(t, "faults:2", ring)
	var live *LivenessResult
	liveness := mallocs(func() {
		live, err = CertifyLiveness(ring, 0, ringInits, LivenessOptions{Target: TargetNormal})
	})
	if err != nil || live.ProductStates != 35007 || live.Verdict != "certified" {
		t.Fatalf("CertifyLiveness = %+v, %v; want 35007 product states, certified", live, err)
	}
	t.Logf("safety Run: %d objects; liveness: %d objects", safety, liveness)
	if safety > 10000 {
		t.Errorf("the safety Run allocates %d objects, want ≤ 10000", safety)
	}
	if liveness > 2000 {
		t.Errorf("the liveness certificate allocates %d objects, want ≤ 2000", liveness)
	}
}

// countingProtocol counts the guard evaluations a runner asks of the PIF
// protocol. Embedding keeps it a sim.LocalProtocol and a
// sim.InPlaceProtocol, so the runner keeps its incremental refresh and its
// in-place commit.
type countingProtocol struct {
	*core.Protocol
	evals int
}

var (
	_ sim.LocalProtocol   = (*countingProtocol)(nil)
	_ sim.InPlaceProtocol = (*countingProtocol)(nil)
)

// Enabled implements sim.Protocol, counting the call.
func (cp *countingProtocol) Enabled(c *sim.Configuration, p int) []int {
	cp.evals++
	return cp.Protocol.Enabled(c, p)
}

// TestSimEngineGuardWork pins the guard work of one explored transition on
// the sim engine. A Probe evaluates all N guards. A central Step restarts
// from the enabled set the caller stored for the vector, so loading it
// evaluates none, and the step's refresh evaluates the mover's closed
// neighbourhood: exactly |N[p]| = deg(p)+1 guards. Restarting with Reset
// instead would cost N more per Step. Every faults:2 start of ring:5 and
// grid:2x3 is probed and stepped under each of its enabled choices.
func TestSimEngineGuardWork(t *testing.T) {
	grid, err := graph.Grid(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []*graph.Graph{mustGraph(t, graph.Ring, 5), grid} {
		t.Run(g.Name(), func(t *testing.T) {
			cp := &countingProtocol{Protocol: core.MustNew(g, 0)}
			eng := simEngineOver(g, cp)
			steps := 0
			succ := make([]core.State, g.N())
			for _, v := range mustInits(t, "faults:2", g) {
				cp.evals = 0
				enabled, err := eng.Probe(v, nil)
				if err != nil {
					t.Fatal(err)
				}
				if cp.evals != g.N() {
					t.Fatalf("Probe evaluated %d guards, want N = %d", cp.evals, g.N())
				}
				for _, ch := range enabled {
					cp.evals = 0
					if _, err := eng.Step(v, enabled, []sim.Choice{ch}, succ, nil); err != nil {
						t.Fatal(err)
					}
					if want := len(g.Neighbors(ch.Proc)) + 1; cp.evals != want {
						t.Fatalf("Step %v evaluated %d guards, want |N[p%d]| = %d", ch, cp.evals, ch.Proc, want)
					}
					steps++
				}
			}
			if steps == 0 {
				t.Fatal("no start vector enables a choice")
			}
		})
	}
}
