package runtime_test

import (
	"math/rand"
	"testing"
	"time"

	"snappif/internal/core"
	"snappif/internal/fault"
	"snappif/internal/graph"
	"snappif/internal/obs"
	rt "snappif/internal/runtime"
	"snappif/internal/sim"
)

func TestConcurrentCleanStart(t *testing.T) {
	if testing.Short() {
		t.Skip("concurrent run in -short mode")
	}
	for _, build := range []func() (*graph.Graph, error){
		func() (*graph.Graph, error) { return graph.Ring(12) },
		func() (*graph.Graph, error) { return graph.Grid(4, 4) },
		func() (*graph.Graph, error) {
			return graph.RandomConnected(20, 0.2, rand.New(rand.NewSource(1)))
		},
	} {
		g, err := build()
		if err != nil {
			t.Fatal(err)
		}
		t.Run(g.Name(), func(t *testing.T) {
			res, err := rt.Run(g, 0, 3, rt.Options{Timeout: 20 * time.Second})
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if len(res.Cycles) < 3 {
				t.Fatalf("completed %d cycles, want 3", len(res.Cycles))
			}
			for i, cs := range res.Cycles[:3] {
				if !cs.OK(g.N()) {
					t.Errorf("cycle %d: delivered %d/%d acked %d/%d",
						i, cs.Delivered, g.N()-1, cs.Acked, g.N()-1)
				}
			}
		})
	}
}

func TestConcurrentFromCorruptedConfiguration(t *testing.T) {
	if testing.Short() {
		t.Skip("concurrent run in -short mode")
	}
	g, err := graph.RandomConnected(16, 0.25, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	for _, inj := range []fault.Injector{
		fault.UniformRandom(), fault.PhantomTree(), fault.StaleRegion(),
	} {
		t.Run(inj.Name, func(t *testing.T) {
			corrupt := func(c *sim.Configuration, pr *core.Protocol) {
				inj.Apply(c, pr, rand.New(rand.NewSource(99)))
			}
			res, err := rt.Run(g, 0, 2, rt.Options{
				Corrupt: corrupt,
				Timeout: 20 * time.Second,
			})
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			for i, cs := range res.Cycles[:2] {
				if !cs.OK(g.N()) {
					t.Errorf("cycle %d after %s: delivered %d/%d acked %d/%d",
						i, inj.Name, cs.Delivered, g.N()-1, cs.Acked, g.N()-1)
				}
			}
		})
	}
}

func TestStopTheWorldInvariantChecking(t *testing.T) {
	if testing.Short() {
		t.Skip("concurrent run in -short mode")
	}
	g, err := graph.RandomConnected(14, 0.25, rand.New(rand.NewSource(8)))
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	res, err := rt.Run(g, 0, 3, rt.Options{
		Timeout:         20 * time.Second,
		CheckInvariants: true,
		CheckEvery:      500 * time.Microsecond,
		Metrics:         reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("runtime.check_snapshots").Value(); got != int64(res.Snapshots) {
		t.Errorf("runtime.check_snapshots = %d, result has %d", got, res.Snapshots)
	}
	// One moves_per_proc observation per processor, summing to the moves.
	if h := reg.Histogram("runtime.moves_per_proc"); h.Count() != int64(g.N()) || h.Sum() != res.Moves {
		t.Errorf("runtime.moves_per_proc count=%d sum=%d, want %d and %d", h.Count(), h.Sum(), g.N(), res.Moves)
	}
	if len(res.InvariantViolations) > 0 {
		t.Fatalf("invariants violated under concurrency: %v", res.InvariantViolations[0])
	}
	if res.Snapshots == 0 {
		t.Fatal("no stop-the-world snapshots taken")
	}
	for i, cs := range res.Cycles[:3] {
		if !cs.OK(g.N()) {
			t.Fatalf("cycle %d: %+v", i, cs)
		}
	}
}
