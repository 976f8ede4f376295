package explore

import (
	"testing"

	"snappif/internal/core"
	"snappif/internal/graph"
	"snappif/internal/sim"
)

// TestSimEngineAllocs pins the cost of an explored transition on the sim
// engine, whose one runner is restarted instead of rebuilt: Step allocates
// exactly its two results (the successor vector and the enabled copy) and
// Probe exactly its one (the enabled copy).
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
		if _, after, err := eng.Step(v, enabled, sel); err != nil || len(after) == 0 {
			t.Fatalf("Step = %v, %v; want a non-empty enabled set", after, err)
		}
	}); allocs != 2 {
		t.Errorf("Step allocates %.2f objects, want 2", allocs)
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
			for _, v := range mustInits(t, "faults:2", g) {
				cp.evals = 0
				enabled, err := eng.Probe(v)
				if err != nil {
					t.Fatal(err)
				}
				if cp.evals != g.N() {
					t.Fatalf("Probe evaluated %d guards, want N = %d", cp.evals, g.N())
				}
				for _, ch := range enabled {
					cp.evals = 0
					if _, _, err := eng.Step(v, enabled, []sim.Choice{ch}); err != nil {
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
