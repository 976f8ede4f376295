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

// warmFlatRunner builds the flat engine (event.Runner under the external
// daemon d) on g and steps it past the warm-up horizon: enough for the
// choice/dirty buffers to hit their high-water marks and the MovesPerAction
// map to hold every label.
func warmFlatRunner(tb testing.TB, g *graph.Graph, d sim.Daemon, warmup int) *event.Runner {
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
	fault.UniformRandom().Apply(cfg, pr, rand.New(rand.NewSource(3)))
	fc, err := flat.FromSim(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	r, err := event.NewRunner(fc, k, d, event.Options{
		Options: sim.Options{Seed: 1, MaxSteps: 1 << 30},
	})
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < warmup; i++ {
		if done, err := r.Step(); done {
			tb.Fatalf("run ended during warm-up: %v", err)
		}
	}
	return r
}

// TestFlatZeroAllocsPerStep is the flat engine's allocation contract: once
// warm, a committed step of the SoA kernels under an external daemon
// performs zero heap allocations — the guard refresh, the staging commit,
// the hierarchical enabled set, and the incremental round/fairness
// accounting leave nothing for the allocator. internal/event's
// TestEventZeroAllocsPerStep covers the same step in every mode.
func TestFlatZeroAllocsPerStep(t *testing.T) {
	g, err := graph.Ring(64)
	if err != nil {
		t.Fatal(err)
	}
	r := warmFlatRunner(t, g, sim.Synchronous{}, 2000)
	allocs := testing.AllocsPerRun(200, func() {
		if done, err := r.Step(); done {
			t.Fatalf("run ended mid-measurement: %v", err)
		}
	})
	if allocs != 0 {
		t.Errorf("flat Step allocates %.2f objects/step after warm-up, want 0", allocs)
	}
}

// TestFlatZeroAllocsPerStepDistributed repeats the contract under the
// randomized distributed daemon (the other commonly hit selection path).
func TestFlatZeroAllocsPerStepDistributed(t *testing.T) {
	g, err := graph.Ring(64)
	if err != nil {
		t.Fatal(err)
	}
	r := warmFlatRunner(t, g, sim.DistributedRandom{P: 0.5}, 2000)
	allocs := testing.AllocsPerRun(200, func() {
		if done, err := r.Step(); done {
			t.Fatalf("run ended mid-measurement: %v", err)
		}
	})
	if allocs != 0 {
		t.Errorf("flat Step allocates %.2f objects/step after warm-up, want 0", allocs)
	}
}

// TestFlatCopyFromZeroAllocs gates the restore path used by search rollouts
// and the scale benchmarks: Config.CopyFrom copies slices in place.
func TestFlatCopyFromZeroAllocs(t *testing.T) {
	g, err := graph.Ring(64)
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
	src, err := flat.NewConfig(k)
	if err != nil {
		t.Fatal(err)
	}
	dst := src.Clone()
	allocs := testing.AllocsPerRun(200, func() {
		dst.CopyFrom(src)
	})
	if allocs != 0 {
		t.Errorf("flat CopyFrom allocates %.2f objects/call, want 0", allocs)
	}
}
