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

// lockstep steps ref and sub side by side to the end of their runs and
// fails at the first difference: the configuration, the enabled set and
// the Result after every step, and the final done/error pair.
func lockstep(t *testing.T, ref, sub *sim.Runner, refCfg, subCfg *sim.Configuration) {
	t.Helper()
	for step := 0; ; step++ {
		for p := range refCfg.States {
			if a, b := core.At(refCfg, p), core.At(subCfg, p); a != b {
				t.Fatalf("step %d: processor %d is %+v after Reset, %+v after NewRunner", step, p, b, a)
			}
		}
		if a, b := ref.Enabled(), sub.Enabled(); !reflect.DeepEqual(a, b) {
			t.Fatalf("step %d: enabled %v after Reset, %v after NewRunner", step, b, a)
		}
		a, b := ref.Result(), sub.Result()
		if a.Steps != b.Steps || a.Moves != b.Moves || a.Rounds != b.Rounds ||
			a.Terminal != b.Terminal || a.Stopped != b.Stopped ||
			!reflect.DeepEqual(a.MovesPerAction, b.MovesPerAction) {
			t.Fatalf("step %d: result %+v after Reset, %+v after NewRunner", step, b, a)
		}
		doneRef, errRef := ref.Step()
		doneSub, errSub := sub.Step()
		if doneRef != doneSub || fmt.Sprint(errRef) != fmt.Sprint(errSub) {
			t.Fatalf("step %d: Step() = (%v, %v) after Reset, (%v, %v) after NewRunner",
				step, doneSub, errSub, doneRef, errRef)
		}
		if doneRef {
			return
		}
	}
}

// TestResetMatchesNewRunner pins Reset's contract: one runner restarted
// with Reset for every scenario steps exactly like a fresh NewRunner per
// scenario. The matrix crosses line, ring and grid topologies, every
// fault.All() start and the synchronous, central-random and
// distributed-random daemons; the random daemons and a small fairness
// bound (forcing draws too) make a stale seed or age visible, and the
// stop predicate ends each run after a few rounds. The reused runner
// carries a warm-up run's counters, ages, RNG position and enabled cache
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
				// The two sides need their own protocol instances (core.Protocol
				// numbers broadcasts); both run the same sequence of runs, so
				// their counters stay equal.
				refPr, err := core.New(g, 0)
				if err != nil {
					t.Fatal(err)
				}
				subPr, err := core.New(g, 0)
				if err != nil {
					t.Fatal(err)
				}
				subCfg := sim.NewConfiguration(g, subPr)
				sub := sim.NewRunner(subCfg, subPr, d, opts)
				warm := sim.NewRunner(sim.NewConfiguration(g, refPr), refPr, d, opts)
				for i := 0; i < 25; i++ {
					sub.Step()
					warm.Step()
				}

				for i, inj := range fault.All() {
					start := sim.NewConfiguration(g, refPr)
					inj.Apply(start, refPr, rand.New(rand.NewSource(int64(i+1))))
					refCfg := start.Clone()
					subCfg.CopyFrom(start)
					ref := sim.NewRunner(refCfg, refPr, d, opts)
					sub.Reset()
					lockstep(t, ref, sub, refCfg, subCfg)
				}
			})
		}
	}
}

// TestResetAfterPreStoppedStart covers the runner whose stop predicate held
// before its first step, so NewRunner built no guard cache: a Reset once
// the predicate no longer holds starts a full run, exactly like NewRunner.
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
	subCfg := sim.NewConfiguration(g, subPr)
	sub := sim.NewRunner(subCfg, subPr, d, opts)
	if done, err := sub.Step(); !done || err != nil || !sub.Result().Stopped {
		t.Fatalf("pre-stopped run: Step() = (%v, %v), result %+v", done, err, sub.Result())
	}

	stop = false
	refCfg := sim.NewConfiguration(g, refPr)
	fault.PhantomTree().Apply(refCfg, refPr, rand.New(rand.NewSource(5)))
	subCfg.CopyFrom(refCfg)
	ref := sim.NewRunner(refCfg, refPr, d, opts)
	sub.Reset()
	lockstep(t, ref, sub, refCfg, subCfg)
	if got := sub.Result().Steps; got != opts.MaxSteps {
		t.Fatalf("the restarted run took %d steps, want the full %d", got, opts.MaxSteps)
	}
}
