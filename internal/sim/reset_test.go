package sim_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"snappif/internal/core"
	"snappif/internal/fault"
	"snappif/internal/graph"
	"snappif/internal/sim"
)

// restarted is a runner restarted in place on cfg, named by how it was
// restarted ("Reset" or "ResetWith") in failure messages.
type restarted struct {
	how string
	r   *sim.Runner
	cfg *sim.Configuration
}

// lockstep steps ref and every sub side by side to the end of their runs
// and fails at the first difference: the configuration, the enabled set
// and the Result after every step, and the final done/error pair.
func lockstep(t *testing.T, ref *sim.Runner, refCfg *sim.Configuration, subs ...restarted) {
	t.Helper()
	for step := 0; ; step++ {
		a := ref.Result()
		for _, sub := range subs {
			for p := range refCfg.States {
				if x, y := core.At(refCfg, p), core.At(sub.cfg, p); x != y {
					t.Fatalf("step %d: processor %d is %+v after %s, %+v after NewRunner", step, p, y, sub.how, x)
				}
			}
			if x, y := ref.AppendEnabled(nil), sub.r.AppendEnabled(nil); !reflect.DeepEqual(x, y) {
				t.Fatalf("step %d: enabled %v after %s, %v after NewRunner", step, y, sub.how, x)
			}
			b := sub.r.Result()
			if a.Steps != b.Steps || a.Moves != b.Moves || a.Rounds != b.Rounds ||
				a.Terminal != b.Terminal || a.Stopped != b.Stopped ||
				!reflect.DeepEqual(a.MovesPerAction, b.MovesPerAction) {
				t.Fatalf("step %d: result %+v after %s, %+v after NewRunner", step, b, sub.how, a)
			}
		}
		doneRef, errRef := ref.Step()
		for _, sub := range subs {
			doneSub, errSub := sub.r.Step()
			if doneRef != doneSub || fmt.Sprint(errRef) != fmt.Sprint(errSub) {
				t.Fatalf("step %d: Step() = (%v, %v) after %s, (%v, %v) after NewRunner",
					step, doneSub, errSub, sub.how, doneRef, errRef)
			}
		}
		if doneRef {
			return
		}
	}
}

// TestResetMatchesNewRunner pins the contracts of Reset and ResetWith: one
// runner restarted with Reset for every scenario, and one restarted with
// ResetWith from the fresh runner's enabled set, step exactly like a fresh
// NewRunner per scenario. The matrix crosses line, ring and grid
// topologies, every fault.All() start and the synchronous, central-random
// and distributed-random daemons; the random daemons and a small fairness
// bound (forcing draws too) make a stale seed or age visible, and the
// stop predicate ends each run after a few rounds. The reused runners
// carry a warm-up run's counters, ages, RNG position and enabled cache
// into the first scenario, and each scenario's leftovers into the next.
func TestResetMatchesNewRunner(t *testing.T) {
	topos := []struct {
		name  string
		build func() (*graph.Graph, error)
	}{
		{"line-6", func() (*graph.Graph, error) { return graph.Line(6) }},
		{"ring-7", func() (*graph.Graph, error) { return graph.Ring(7) }},
		{"grid-3x3", func() (*graph.Graph, error) { return graph.Grid(3, 3) }},
	}
	daemons := []sim.Daemon{
		sim.Synchronous{},
		sim.Central{Order: sim.CentralRandom},
		sim.DistributedRandom{P: 0.5},
	}
	opts := sim.Options{
		Seed:        11,
		MaxSteps:    2000,
		FairnessAge: 3,
		StopWhen:    func(rs *sim.RunState) bool { return rs.Rounds >= 12 },
	}
	for _, tp := range topos {
		for _, d := range daemons {
			t.Run(tp.name+"/"+d.Name(), func(t *testing.T) {
				g, err := tp.build()
				if err != nil {
					t.Fatal(err)
				}
				// Every runner needs its own protocol instance (core.Protocol
				// numbers broadcasts); all run the same sequence of runs, so
				// their counters stay equal.
				refPr, err := core.New(g, 0)
				if err != nil {
					t.Fatal(err)
				}
				subPr, err := core.New(g, 0)
				if err != nil {
					t.Fatal(err)
				}
				seedPr, err := core.New(g, 0)
				if err != nil {
					t.Fatal(err)
				}
				subCfg := sim.NewConfiguration(g, subPr)
				sub := sim.NewRunner(subCfg, subPr, d, opts)
				seedCfg := sim.NewConfiguration(g, seedPr)
				seeded := sim.NewRunner(seedCfg, seedPr, d, opts)
				warm := sim.NewRunner(sim.NewConfiguration(g, refPr), refPr, d, opts)
				for i := 0; i < 25; i++ {
					sub.Step()
					seeded.Step()
					warm.Step()
				}

				for i, inj := range fault.All() {
					start := sim.NewConfiguration(g, refPr)
					inj.Apply(start, refPr, rand.New(rand.NewSource(int64(i+1))))
					refCfg := start.Clone()
					subCfg.CopyFrom(start)
					seedCfg.CopyFrom(start)
					ref := sim.NewRunner(refCfg, refPr, d, opts)
					sub.Reset()
					seeded.ResetWith(ref.AppendEnabled(nil))
					lockstep(t, ref, refCfg,
						restarted{"Reset", sub, subCfg},
						restarted{"ResetWith", seeded, seedCfg})
				}
			})
		}
	}
}

// TestResetAfterPreStoppedStart covers runs whose stop predicate holds
// before the first step. Such a run still reports the enabled set of its
// configuration: at NewRunner, and after a Reset or ResetWith that loads
// another configuration, its AppendEnabled equals a fresh runner's. A
// Reset once the predicate no longer holds starts a full run, exactly like
// NewRunner.
func TestResetAfterPreStoppedStart(t *testing.T) {
	g, err := graph.Ring(6)
	if err != nil {
		t.Fatal(err)
	}
	refPr, err := core.New(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	subPr, err := core.New(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	stop := true
	opts := sim.Options{
		Seed:     3,
		MaxSteps: 300,
		StopWhen: func(*sim.RunState) bool { return stop },
	}
	d := sim.Central{Order: sim.CentralRandom}
	// sameEnabled compares the runner's enabled set with that of a fresh
	// runner, without a stop predicate, over a copy of cfg.
	sameEnabled := func(when string, r *sim.Runner, cfg *sim.Configuration) {
		t.Helper()
		fresh := sim.NewRunner(cfg.Clone(), refPr, d, sim.Options{})
		if got, want := r.AppendEnabled(nil), fresh.AppendEnabled(nil); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: the pre-stopped runner reports enabled %v, a fresh runner %v", when, got, want)
		}
	}
	subCfg := sim.NewConfiguration(g, subPr)
	fault.PhantomTree().Apply(subCfg, subPr, rand.New(rand.NewSource(5)))
	sub := sim.NewRunner(subCfg, subPr, d, opts)
	sameEnabled("NewRunner", sub, subCfg)
	if done, err := sub.Step(); !done || err != nil || !sub.Result().Stopped {
		t.Fatalf("pre-stopped run: Step() = (%v, %v), result %+v", done, err, sub.Result())
	}

	stop = false
	refCfg := sim.NewConfiguration(g, refPr)
	fault.PhantomTree().Apply(refCfg, refPr, rand.New(rand.NewSource(5)))
	subCfg.CopyFrom(refCfg)
	ref := sim.NewRunner(refCfg, refPr, d, opts)
	sub.Reset()
	lockstep(t, ref, refCfg, restarted{"Reset", sub, subCfg})
	if got := sub.Result().Steps; got != opts.MaxSteps {
		t.Fatalf("the restarted run took %d steps, want the full %d", got, opts.MaxSteps)
	}

	stop = true
	clean := sim.NewConfiguration(g, subPr)
	subCfg.CopyFrom(clean)
	sub.Reset()
	sameEnabled("Reset to the clean start", sub, clean)
	sub.ResetWith(sim.NewRunner(clean.Clone(), refPr, d, sim.Options{}).AppendEnabled(nil))
	sameEnabled("ResetWith to the clean start", sub, clean)
}
