package event_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"snappif/internal/core"
	"snappif/internal/event"
	"snappif/internal/fault"
	"snappif/internal/flat"
	"snappif/internal/graph"
	"snappif/internal/sim"
)

// This file pins the guard cache against its definition. After every
// committed step each processor's cached action equals a fresh evaluation
// of its guard; and one move at p can change the enabled action of no
// processor outside p and the kernel's Readers of that move. The second
// property is what licenses refresh to re-evaluate only those processors.

// cacheTopologies are the shapes of the guard-cache tests: path, cycle,
// mesh, and the degree-bounded random graph the scale benchmarks use.
func cacheTopologies(tb testing.TB) []*graph.Graph {
	tb.Helper()
	var gs []*graph.Graph
	for _, mk := range []func() (*graph.Graph, error){
		func() (*graph.Graph, error) { return graph.Line(8) },
		func() (*graph.Graph, error) { return graph.Ring(9) },
		func() (*graph.Graph, error) { return graph.Grid(3, 4) },
		func() (*graph.Graph, error) { return graph.RandomSparse(14, 6, rand.New(rand.NewSource(3))) },
	} {
		g, err := mk()
		if err != nil {
			tb.Fatal(err)
		}
		gs = append(gs, g)
	}
	return gs
}

// buildFlat returns the kernel and a flat start on g corrupted by inj.
func buildFlat(tb testing.TB, g *graph.Graph, inj fault.Injector, seed int64) (*flat.Protocol, *flat.Config) {
	tb.Helper()
	pr, err := core.New(g, 0)
	if err != nil {
		tb.Fatal(err)
	}
	k, err := flat.FromCore(pr)
	if err != nil {
		tb.Fatal(err)
	}
	cfg := sim.NewConfiguration(g, pr)
	inj.Apply(cfg, pr, rand.New(rand.NewSource(seed)))
	fc, err := flat.FromSim(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return k, fc
}

// assertCacheFresh compares every cached action and the enabled count with
// a fresh evaluation of every guard.
func assertCacheFresh(t *testing.T, r *event.Runner, k *flat.Protocol, fc *flat.Config, step int) {
	t.Helper()
	enabled := 0
	for p := 0; p < fc.N(); p++ {
		want := k.EnabledAction(fc, fc.Slot(p))
		if got := r.EnabledActionOf(p); got != want {
			t.Fatalf("after step %d: processor %d has cached action %d, its guard gives %d", step, p, got, want)
		}
		if want != flat.NoAction {
			enabled++
		}
	}
	if got := r.EnabledCount(); got != enabled {
		t.Fatalf("after step %d: enabled count %d, guards give %d", step, got, enabled)
	}
}

// TestEventGuardCacheFresh checks the cache after every committed step on
// every topology × start × schedule: the clean start and every injector,
// under the synchronous, central-random and distributed-random daemons and
// under uniform and Pareto latency with an admission gate. The gate
// withholds the root's broadcast until the runner parks, then admits one
// wave, so each latency run also crosses park → Wake → wave cycles. A run
// whose stop predicate holds at the start still has a fresh cache, and its
// enabled set (AppendEnabled) equals that of a runner without the predicate.
func TestEventGuardCacheFresh(t *testing.T) {
	const steps = 300
	schedules := []struct {
		name    string
		daemon  func() sim.Daemon // nil in latency mode
		lat     event.Latency
		stopped bool // the stop predicate holds before the first step
	}{
		{"synchronous", func() sim.Daemon { return sim.Synchronous{} }, nil, false},
		{"central-random", func() sim.Daemon { return sim.Central{Order: sim.CentralRandom} }, nil, false},
		{"dist-random", func() sim.Daemon { return sim.DistributedRandom{P: 0.5} }, nil, false},
		{"uniform+gate", nil, event.Uniform{Lo: 1, Hi: 4}, false},
		{"pareto+gate", nil, event.Pareto{Alpha: 1.5, Cap: 16}, false},
		{"stopped-at-start", func() sim.Daemon { return sim.Synchronous{} }, nil, true},
	}
	for _, g := range cacheTopologies(t) {
		for _, sc := range schedules {
			for _, inj := range diffFaults() {
				t.Run(fmt.Sprintf("%s/%s/%s", g.Name(), sc.name, inj.Name), func(t *testing.T) {
					k, fc := buildFlat(t, g, inj, 5)
					opts := event.Options{Options: sim.Options{Seed: 5, MaxSteps: steps + 1}, Latency: sc.lat}
					var d sim.Daemon
					open := false
					if sc.lat == nil {
						d = sc.daemon()
					} else {
						opts.Gate = func(p int, a int32) bool { return open || p != k.Root || a != core.ActionB }
					}
					if sc.stopped {
						opts.StopWhen = func(*sim.RunState) bool { return true }
					}
					r, err := event.NewRunner(fc, k, d, opts)
					if err != nil {
						t.Fatal(err)
					}
					assertCacheFresh(t, r, k, fc, 0)
					if sc.stopped {
						fresh, err := event.NewRunner(fc, k, d, event.Options{Options: sim.Options{Seed: 5}})
						if err != nil {
							t.Fatal(err)
						}
						if got, want := r.AppendEnabled(nil), fresh.AppendEnabled(nil); !slices.Equal(got, want) {
							t.Fatalf("stopped at the start: enabled %v, a runner without the stop predicate %v", got, want)
						}
						if done, err := r.Step(); !done || err != nil || !r.Result().Stopped {
							t.Fatalf("stopped at the start: Step() = (%v, %v), result %+v", done, err, r.Result())
						}
						return
					}
					admitted := 0
					for step := 1; step <= steps; {
						if sc.lat == nil {
							done, err := r.Step()
							if err != nil {
								t.Fatal(err)
							}
							if done {
								return
							}
						} else {
							progressed, err := r.ServeStep(-1)
							if err != nil {
								t.Fatal(err)
							}
							if !progressed {
								// Parked on the withheld broadcast: admit one wave.
								if open {
									t.Fatalf("step %d: no progress with the gate open", step)
								}
								open = true
								admitted++
								r.Wake(k.Root, r.VirtualTime()+1)
								continue
							}
							if fc.Phase(k.Root) == core.B {
								open = false
							}
						}
						assertCacheFresh(t, r, k, fc, step)
						step++
					}
					if sc.lat != nil && admitted < 2 {
						t.Fatalf("%d waves admitted in %d steps, want at least 2 park → Wake cycles", admitted, steps)
					}
				})
			}
		}
	}
}

// move executes action a at slot p alone: the runner's stage/commit pair
// for a one-move step.
func move(k *flat.Protocol, c *flat.Config, p int, a int32) {
	var w flat.Write
	k.Stage(c, p, a, &w)
	k.Commit(c, p, a, &w)
}

// TestReadersCoverGuardChanges is the kernel-level property behind the
// cache: for every enabled action a at p, applying it alone changes the
// enabled action of no processor outside p and Readers(p, a), and Readers
// gives the same set before and after the move. Starts are the clean
// configuration and every injector's over several seeds — uniform-random
// among them — and each start is walked by random central steps, so the
// configurations a run reaches, where NewCount is common, are covered too.
// The test also requires that some non-root NewCount changed its parent's
// action, so that a Readers without Par_p fails it.
func TestReadersCoverGuardChanges(t *testing.T) {
	const walk = 60
	newCounts, parentChanged := 0, 0
	for _, g := range cacheTopologies(t) {
		for _, inj := range diffFaults() {
			for seed := int64(1); seed <= 6; seed++ {
				k, fc := buildFlat(t, g, inj, seed)
				n := fc.N()
				next := fc.Clone()
				before := make([]int32, n)
				rng := rand.New(rand.NewSource(seed))
				var enabled []int
				for w := 0; w < walk; w++ {
					enabled = enabled[:0]
					for p := 0; p < n; p++ {
						before[p] = k.EnabledAction(fc, p)
						if before[p] != flat.NoAction {
							enabled = append(enabled, p)
						}
					}
					if len(enabled) == 0 {
						break
					}
					for _, p := range enabled {
						a := before[p]
						readers := k.Readers(fc, p, a)
						next.CopyFrom(fc)
						move(k, next, p, a)
						if after := k.Readers(next, p, a); !slices.Equal(after, readers) {
							t.Fatalf("%s/%s/seed=%d: Readers(%d, %d) = %v before the move, %v after", g.Name(), inj.Name, seed, p, a, readers, after)
						}
						for q := 0; q < n; q++ {
							if k.EnabledAction(next, q) == before[q] || q == p {
								continue
							}
							if !slices.Contains(readers, int32(q)) {
								t.Fatalf("%s/%s/seed=%d: action %d at %d changed %d's action, outside Readers %v", g.Name(), inj.Name, seed, a, p, q, readers)
							}
						}
						if a == core.ActionCount && p != fc.Slot(k.Root) {
							newCounts++
							if par := fc.Slot(fc.StateAt(fc.Proc(p)).Par); k.EnabledAction(next, par) != before[par] {
								parentChanged++
							}
						}
					}
					p := enabled[rng.Intn(len(enabled))]
					move(k, fc, p, before[p])
				}
			}
		}
	}
	t.Logf("%d non-root NewCount moves checked, %d changed the parent's action", newCounts, parentChanged)
	if parentChanged == 0 {
		t.Fatal("no non-root NewCount changed its parent's action: the NewCount case is untested")
	}
}
