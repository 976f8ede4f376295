package flat_test

import (
	"math/rand"
	"testing"

	"snappif/internal/core"
	"snappif/internal/event"
	"snappif/internal/fault"
	"snappif/internal/flat"
	"snappif/internal/graph"
	"snappif/internal/sim"
)

// TestNewConfigMatchesSim: the flat normal-start builder must agree with
// sim.NewConfiguration at every processor.
func TestNewConfigMatchesSim(t *testing.T) {
	g, err := graph.Grid(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := core.New(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	k, err := flat.FromCore(pr)
	if err != nil {
		t.Fatal(err)
	}
	fc, err := flat.NewConfig(k)
	if err != nil {
		t.Fatal(err)
	}
	sc := sim.NewConfiguration(g, pr)
	for p := 0; p < g.N(); p++ {
		if got, want := fc.StateAt(p), core.At(sc, p); got != want {
			t.Fatalf("proc %d: flat %+v, sim %+v", p, got, want)
		}
	}
}

// TestConfigRoundTrip: FromSim → ToSim and FromSim → WriteSim are exact
// inverses on a corrupted configuration (exercising every state field).
func TestConfigRoundTrip(t *testing.T) {
	g, err := graph.Ring(12)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := core.New(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	sc := sim.NewConfiguration(g, pr)
	fault.UniformRandom().Apply(sc, pr, rand.New(rand.NewSource(8)))

	fc, err := flat.FromSim(sc)
	if err != nil {
		t.Fatal(err)
	}
	back := fc.ToSim()
	for p := 0; p < g.N(); p++ {
		if got, want := core.At(back, p), core.At(sc, p); got != want {
			t.Fatalf("ToSim proc %d: %+v, want %+v", p, got, want)
		}
	}

	// WriteSim overwrites boxes in place.
	dst := sim.NewConfiguration(g, pr)
	if err := fc.WriteSim(dst); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < g.N(); p++ {
		if got, want := core.At(dst, p), core.At(sc, p); got != want {
			t.Fatalf("WriteSim proc %d: %+v, want %+v", p, got, want)
		}
	}

	// Length mismatch is an error, not a panic.
	small := &sim.Configuration{G: g}
	if err := fc.WriteSim(small); err == nil {
		t.Fatal("WriteSim accepted a configuration with mismatched length")
	}
}

// TestConfigCloneAndCopyFrom: Clone is deep for state (mutating the clone
// leaves the original intact) and CopyFrom restores it.
func TestConfigCloneAndCopyFrom(t *testing.T) {
	g, err := graph.Line(9)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := core.New(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	k, err := flat.FromCore(pr)
	if err != nil {
		t.Fatal(err)
	}
	orig, err := flat.NewConfig(k)
	if err != nil {
		t.Fatal(err)
	}
	snap := orig.Clone()

	s := orig.StateAt(4)
	s.Pif, s.L, s.Count, s.Fok, s.Msg, s.Val, s.Agg = core.B, 3, 7, true, 99, -5, 11
	orig.SetState(4, s)
	if snap.StateAt(4) == orig.StateAt(4) {
		t.Fatal("mutating the original leaked into the clone")
	}

	orig.CopyFrom(snap)
	for p := 0; p < g.N(); p++ {
		if orig.StateAt(p) != snap.StateAt(p) {
			t.Fatalf("proc %d differs after CopyFrom: %+v vs %+v",
				p, orig.StateAt(p), snap.StateAt(p))
		}
	}
}

// TestFromCoreValidates: FromCore carries the source parameters over.
// (event.Runner's refusal of a configuration from another network is
// pinned by internal/event's TestEventRequiresScheduler.)
func TestFromCoreValidates(t *testing.T) {
	g, err := graph.Ring(9)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := core.New(g, 2, core.WithLmax(12), core.WithNPrime(11))
	if err != nil {
		t.Fatal(err)
	}
	k, err := flat.FromCore(pr)
	if err != nil {
		t.Fatal(err)
	}
	if k.Root != 2 || k.N != 9 || k.Lmax != 12 || k.NPrime != 11 {
		t.Fatalf("FromCore parameters: %+v", k)
	}
	if k.Name() != pr.Name() {
		t.Fatalf("kernel name %q, protocol name %q", k.Name(), pr.Name())
	}
}

// TestFlatRunnerStepEquivalentToRun pins the flat engine's stepping API
// (event.Runner.Step under an external daemon) to its batch API
// (event.Run).
func TestFlatRunnerStepEquivalentToRun(t *testing.T) {
	g, err := graph.Ring(9)
	if err != nil {
		t.Fatal(err)
	}
	opts := event.Options{Options: sim.Options{
		Seed:     3,
		StopWhen: func(rs *sim.RunState) bool { return rs.Steps >= 500 },
	}}

	run := func(step bool) (sim.Result, *sim.Configuration) {
		pr, err := core.New(g, 0)
		if err != nil {
			t.Fatal(err)
		}
		k, err := flat.FromCore(pr)
		if err != nil {
			t.Fatal(err)
		}
		fc, err := flat.NewConfig(k)
		if err != nil {
			t.Fatal(err)
		}
		if !step {
			res, err := event.Run(fc, k, sim.DistributedRandom{P: 0.5}, opts)
			if err != nil {
				t.Fatal(err)
			}
			return res, fc.ToSim()
		}
		r, err := event.NewRunner(fc, k, sim.DistributedRandom{P: 0.5}, opts)
		if err != nil {
			t.Fatal(err)
		}
		for {
			done, err := r.Step()
			if done {
				if err != nil {
					t.Fatal(err)
				}
				return r.Result(), fc.ToSim()
			}
		}
	}

	res1, cfg1 := run(false)
	res2, cfg2 := run(true)
	compareResults(t, res1, res2)
	compareStates(t, cfg1, cfg2)
}
