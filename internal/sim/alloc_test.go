package sim_test

import (
	"errors"
	"math/rand"
	"runtime"
	"testing"

	"snappif/internal/core"
	"snappif/internal/fault"
	"snappif/internal/graph"
	"snappif/internal/sim"
)

// warmRunner builds a runner on g under d and steps it past the warm-up
// horizon: enough steps for the choice buffers to reach their high-water
// marks and for the MovesPerAction map to hold every action label.
func warmRunner(tb testing.TB, g *graph.Graph, d sim.Daemon, warmup int) *sim.Runner {
	tb.Helper()
	pr, err := core.New(g, 0)
	if err != nil {
		tb.Fatal(err)
	}
	cfg := sim.NewConfiguration(g, pr)
	r := sim.NewRunner(cfg, pr, d, sim.Options{Seed: 1, MaxSteps: 1 << 30})
	for i := 0; i < warmup; i++ {
		if done, err := r.Step(); done {
			tb.Fatalf("run ended during warm-up: %v", err)
		}
	}
	return r
}

// TestZeroAllocsPerStep is the tentpole's contract: once warm, a committed
// computation step of the PIF simulation performs zero heap allocations —
// the bitset bookkeeping, the shadow-box commit, the pooled choice buffers
// and the incremental enabled cache leave nothing for the allocator.
func TestZeroAllocsPerStep(t *testing.T) {
	g, err := graph.Ring(64)
	if err != nil {
		t.Fatal(err)
	}
	r := warmRunner(t, g, sim.Synchronous{}, 2000)
	allocs := testing.AllocsPerRun(200, func() {
		if done, err := r.Step(); done {
			t.Fatalf("run ended mid-measurement: %v", err)
		}
	})
	if allocs != 0 {
		t.Errorf("Step allocates %.2f objects/step after warm-up, want 0", allocs)
	}
}

// TestZeroAllocsPerStepDistributed repeats the contract under a randomized
// distributed daemon, whose in-place filtering of the enabled list is the
// other commonly hit selection path.
func TestZeroAllocsPerStepDistributed(t *testing.T) {
	g, err := graph.Ring(64)
	if err != nil {
		t.Fatal(err)
	}
	r := warmRunner(t, g, sim.DistributedRandom{P: 0.5}, 2000)
	allocs := testing.AllocsPerRun(200, func() {
		if done, err := r.Step(); done {
			t.Fatalf("run ended mid-measurement: %v", err)
		}
	})
	if allocs != 0 {
		t.Errorf("Step allocates %.2f objects/step after warm-up, want 0", allocs)
	}
}

// TestZeroAllocsResetStep gates the restart path the exhaustive explorer
// takes per transition: once warm, restoring a corrupted start, Reset and a
// step allocate nothing — under a deterministic daemon (the RNG is never
// seeded) and under a random one (the first draw reseeds the generator in
// place).
func TestZeroAllocsResetStep(t *testing.T) {
	g, err := graph.Ring(64)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []sim.Daemon{sim.Synchronous{}, sim.DistributedRandom{P: 0.5}} {
		r := warmRunner(t, g, d, 2000)
		cfg := r.Result().Final
		pr, err := core.New(g, 0)
		if err != nil {
			t.Fatal(err)
		}
		start := sim.NewConfiguration(g, pr)
		fault.UniformRandom().Apply(start, pr, rand.New(rand.NewSource(3)))
		allocs := testing.AllocsPerRun(200, func() {
			cfg.CopyFrom(start)
			r.Reset()
			if done, err := r.Step(); done {
				t.Fatalf("run ended on its first step: %v", err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: Reset+Step allocates %.2f objects after warm-up, want 0", d.Name(), allocs)
		}
	}
}

// TestCycleByteBudget bounds total heap traffic across many full PIF cycles
// on a ring of 32: a warm runner driving thousands of steps (a ring-32
// synchronous cycle is ~100 steps, so this spans dozens of complete
// broadcast/feedback/clean waves) must stay within a tiny byte budget.
//
// The runtime may start an OS thread inside a window (ReadMemStats stops
// and restarts the world, and a restart may start one), and the thread's
// runtime objects — 5.5 KB — then count against the runner. So the test
// measures three back-to-back windows and bounds the smallest: a thread
// start is a one-off that cannot land in all three, but an allocation on
// the step path lands in every one.
func TestCycleByteBudget(t *testing.T) {
	const steps = 10_000
	const budgetBytes = 2048 // total across one window's steps, not per step
	g, err := graph.Ring(32)
	if err != nil {
		t.Fatal(err)
	}
	r := warmRunner(t, g, sim.Synchronous{}, 2000)
	runtime.GC()
	var m0, m1 runtime.MemStats
	least := ^uint64(0)
	for w := 0; w < 3; w++ {
		runtime.ReadMemStats(&m0)
		for i := 0; i < steps; i++ {
			if done, err := r.Step(); done {
				t.Fatalf("run ended mid-measurement: %v", err)
			}
		}
		runtime.ReadMemStats(&m1)
		least = min(least, m1.TotalAlloc-m0.TotalAlloc)
	}
	if least > budgetBytes {
		t.Errorf("%d warm steps allocated %d bytes in the least of three windows, budget %d", steps, least, budgetBytes)
	}
}

// BenchmarkRunnerStep measures the hot path on the acceptance topology.
// The seed engine ran ring-64/synchronous at ~8900 ns/step with ~95
// allocs/step; the bitset engine's budget is ≤ 1/3 of that time and zero
// steady-state allocations (asserted separately by TestZeroAllocsPerStep).
func BenchmarkRunnerStep(b *testing.B) {
	bench := func(b *testing.B, g *graph.Graph, d sim.Daemon) {
		b.Helper()
		r := warmRunner(b, g, d, 2000)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if done, err := r.Step(); done {
				b.Fatalf("run ended mid-benchmark: %v", err)
			}
		}
	}
	b.Run("ring-64/synchronous", func(b *testing.B) {
		g, err := graph.Ring(64)
		if err != nil {
			b.Fatal(err)
		}
		bench(b, g, sim.Synchronous{})
	})
	b.Run("ring-64/dist-random", func(b *testing.B) {
		g, err := graph.Ring(64)
		if err != nil {
			b.Fatal(err)
		}
		bench(b, g, sim.DistributedRandom{P: 0.5})
	})
	b.Run("grid-8x8/synchronous", func(b *testing.B) {
		g, err := graph.Grid(8, 8)
		if err != nil {
			b.Fatal(err)
		}
		bench(b, g, sim.Synchronous{})
	})
}

// BenchmarkRunnerCycle measures whole runs (NewRunner included), the shape
// the experiment harness uses.
func BenchmarkRunnerCycle(b *testing.B) {
	g, err := graph.Ring(64)
	if err != nil {
		b.Fatal(err)
	}
	pr, err := core.New(g, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := sim.NewConfiguration(g, pr)
		if _, err := sim.Run(cfg, pr, sim.Synchronous{}, sim.Options{
			Seed:     1,
			StopWhen: func(rs *sim.RunState) bool { return rs.Steps >= 1000 },
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestCopyFromZeroAllocs gates the hunter's rollout restore path: once both
// configurations exist, Configuration.CopyFrom performs zero heap
// allocations — every state box is reused in place via InPlaceState.
func TestCopyFromZeroAllocs(t *testing.T) {
	g, err := graph.Ring(64)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := core.New(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	src := sim.NewConfiguration(g, pr)
	dst := src.Clone()
	allocs := testing.AllocsPerRun(200, func() {
		dst.CopyFrom(src)
	})
	if allocs != 0 {
		t.Errorf("CopyFrom allocates %.2f objects/call, want 0", allocs)
	}
}

// TestCopyFromRestores checks CopyFrom is a faithful deep restore: the
// destination matches the source afterwards, and further mutation of the
// destination never leaks back into the source (no aliased boxes).
func TestCopyFromRestores(t *testing.T) {
	g, err := graph.Ring(16)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := core.New(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	src := sim.NewConfiguration(g, pr)
	// March the source a few steps so it is not the all-clean configuration.
	if _, err := sim.Run(src, pr, sim.Synchronous{}, sim.Options{Seed: 1, MaxSteps: 5}); err != nil && !errors.Is(err, sim.ErrStepLimit) {
		t.Fatal(err)
	}

	dst := sim.NewConfiguration(g, pr)
	dst.CopyFrom(src)
	for p := 0; p < g.N(); p++ {
		if dst.States[p] == src.States[p] {
			t.Fatalf("CopyFrom aliased the state box of processor %d", p)
		}
		if core.At(dst, p) != core.At(src, p) {
			t.Fatalf("processor %d differs after CopyFrom: %+v vs %+v",
				p, core.At(dst, p), core.At(src, p))
		}
	}

	// Mutating the copy must not disturb the source.
	before := core.At(src, 1)
	s := core.At(dst, 1)
	s.L = 7
	core.Set(dst, 1, s)
	if got := core.At(src, 1); got != before {
		t.Fatalf("mutating the copy changed the source: %+v -> %+v", before, got)
	}

	// The slow path: copying into an empty configuration still works.
	empty := &sim.Configuration{G: g}
	empty.CopyFrom(src)
	for p := 0; p < g.N(); p++ {
		if core.At(empty, p) != core.At(src, p) {
			t.Fatalf("slow-path CopyFrom differs at processor %d", p)
		}
	}
}
