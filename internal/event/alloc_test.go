package event_test

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"snappif/internal/core"
	"snappif/internal/event"
	"snappif/internal/fault"
	"snappif/internal/flat"
	"snappif/internal/graph"
	"snappif/internal/sim"
)

// warmEventRunner builds an event runner on g and steps it past the
// warm-up horizon so the wake queue, batch buffers, and staging arrays
// reach their high-water marks.
func warmEventRunner(tb testing.TB, g *graph.Graph, d sim.Daemon, lat event.Latency, warmup int) *event.Runner {
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
		Latency: lat,
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

// TestEventZeroAllocsPerStep is the event engine's allocation contract,
// the analogue of flat's: once warm, a committed step — wake-queue pop,
// batch filter, frontier re-guard, staging commit, epoch round accounting
// — performs zero heap allocations, in both daemon mode and latency mode.
// scripts/ci.sh gates on this test.
func TestEventZeroAllocsPerStep(t *testing.T) {
	g, err := graph.Ring(64)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		d    sim.Daemon
		lat  event.Latency
	}{
		{"daemon-synchronous", sim.Synchronous{}, nil},
		{"daemon-distributed", sim.DistributedRandom{P: 0.5}, nil},
		{"latency-const0", nil, event.Constant(0)},
		{"latency-uniform", nil, event.Uniform{Lo: 1, Hi: 4}},
		{"latency-pareto", nil, event.Pareto{Alpha: 1.5, Cap: 16}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := warmEventRunner(t, g, tc.d, tc.lat, 2000)
			allocs := testing.AllocsPerRun(200, func() {
				if done, err := r.Step(); done {
					t.Fatalf("run ended mid-measurement: %v", err)
				}
			})
			if allocs != 0 {
				t.Errorf("event Step allocates %.2f objects/step after warm-up, want 0", allocs)
			}
		})
	}
}

// TestZeroAllocsAfterFirstWave pins the high-water growth of the runners'
// per-step buffers: on both engines, a runner that has stepped through one
// PIF wave from the clean start under the synchronous daemon allocates
// nothing over the next wave, though the front widens from the root to
// thousands of processors and back within it. The first wave reaches the
// widest front, so every buffer has grown by its end. The larger network
// is stored in BFS slot order (see flat.Config), the smaller one by ID.
func TestZeroAllocsAfterFirstWave(t *testing.T) {
	for _, n := range []int{2_000, 20_000} {
		g, err := graph.RandomSparse(n, n/4, rand.New(rand.NewSource(int64(n))))
		if err != nil {
			t.Fatal(err)
		}
		pr, err := core.New(g, 0)
		if err != nil {
			t.Fatal(err)
		}
		opts := sim.Options{Seed: 1, MaxSteps: 1 << 30}
		cfg := sim.NewConfiguration(g, pr)
		simRunner := sim.NewRunner(cfg, pr, sim.Synchronous{}, opts)
		k, err := flat.FromCore(pr)
		if err != nil {
			t.Fatal(err)
		}
		fc, err := flat.NewConfig(k)
		if err != nil {
			t.Fatal(err)
		}
		eventRunner, err := event.NewRunner(fc, k, sim.Synchronous{}, event.Options{Options: opts})
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range []struct {
			name string
			step func() (bool, error)
			root func() core.Phase
		}{
			{"sim", simRunner.Step, func() core.Phase { return core.At(cfg, 0).Pif }},
			{"event", eventRunner.Step, func() core.Phase { return fc.Phase(0) }},
		} {
			t.Run(fmt.Sprintf("%s/%s", e.name, g.Name()), func(t *testing.T) {
				// wave steps until the root turns from broadcast to feedback.
				wave := func() int {
					steps := 0
					for prev := e.root(); ; steps++ {
						if done, err := e.step(); done {
							t.Fatalf("run ended mid-wave: %v", err)
						}
						cur := e.root()
						if prev == core.B && cur == core.F {
							return steps + 1
						}
						prev = cur
					}
				}
				first := wave()
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
				var m0, m1 runtime.MemStats
				runtime.ReadMemStats(&m0)
				steps := wave()
				runtime.ReadMemStats(&m1)
				if allocs := m1.Mallocs - m0.Mallocs; allocs != 0 {
					t.Errorf("%d allocations over the %d steps of the second wave (first wave %d steps), want 0", allocs, steps, first)
				}
			})
		}
	}
}

// TestScaleRetainedBytes is the large-N engine's memory gate: on the shape
// of perfbench's scale workload — a fixed-seed RandomSparse(100000, 25000)
// network, stored in BFS slot order, a summing fold and the synchronous
// daemon — the graph, kernel, configuration and runner retain at most 145
// bytes of heap per processor after two waves. That is the graph's CSR
// adjacency, the slot layout, the state columns, the runner's columns and
// the step buffers sized by the widest front. It read 178 B with a slice
// header per graph node, 64-bit step stamps and a 64-byte core.State staged
// per move, and 127 B with the CSR graph, int32 stamps and 16-byte write
// sets. Each wave must also deliver the sum of the processors' values.
func TestScaleRetainedBytes(t *testing.T) {
	const n, extra, budget = 100_000, 25_000, 145
	heap := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	before := heap()
	rng := rand.New(rand.NewSource(1))
	g, err := graph.RandomSparse(n, extra, rng)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := core.New(g, 0, core.WithCombine(func(acc, child int64) int64 { return acc + child }))
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
	if fc.Identity() {
		t.Fatal("the network is stored by ID; the test needs the BFS slot layout")
	}
	var sum int64
	for p := 0; p < n; p++ {
		st := fc.StateAt(p)
		st.Val = rng.Int63n(1 << 20)
		fc.SetState(p, st)
		sum += st.Val
	}
	r, err := event.NewRunner(fc, k, sim.Synchronous{}, event.Options{Options: sim.Options{Seed: 1, MaxSteps: math.MaxInt32}})
	if err != nil {
		t.Fatal(err)
	}
	for wave := 1; wave <= 2; {
		prev := fc.Phase(0)
		if done, err := r.Step(); done {
			t.Fatalf("run ended in wave %d: %v", wave, err)
		}
		if prev == core.B && fc.Phase(0) == core.F {
			if got := fc.Agg(0); got != sum {
				t.Fatalf("wave %d delivered %d, want the value sum %d", wave, got, sum)
			}
			wave++
		}
	}
	after := heap()
	runtime.KeepAlive(r)
	perProc := float64(after-before) / n
	t.Logf("%.2f MB retained after two waves, %.1f B per processor", float64(after-before)/(1<<20), perProc)
	if perProc > budget {
		t.Fatalf("the large-N engine retains %.1f B per processor, want ≤ %d", perProc, budget)
	}
}

// TestEventRunDeterministic: two runs with identical options must agree
// exactly — results, final states, and virtual clocks — and the stepping
// API (Runner.Step) must agree with the batch API (Run), in every latency
// mode and under an external daemon. scripts/ci.sh gates on this test; any
// hidden map iteration or time dependence would break it.
func TestEventRunDeterministic(t *testing.T) {
	g, err := graph.Grid(4, 5)
	if err != nil {
		t.Fatal(err)
	}
	type detCase struct {
		name string
		d    sim.Daemon
		lat  event.Latency
	}
	cases := []detCase{{name: "daemon-dist-random", d: sim.DistributedRandom{P: 0.5}}}
	for _, lat := range diffLatencies() {
		cases = append(cases, detCase{name: lat.Name(), lat: lat})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// run executes one run through Runner.Step, or through Run when
			// batch is set (which reports no virtual clock: -1).
			run := func(batch bool) (sim.Result, []core.State, int64) {
				pr, err := core.New(g, 0)
				if err != nil {
					t.Fatal(err)
				}
				k, err := flat.FromCore(pr)
				if err != nil {
					t.Fatal(err)
				}
				cfg := sim.NewConfiguration(g, pr)
				fault.UniformRandom().Apply(cfg, pr, rand.New(rand.NewSource(11)))
				fc, err := flat.FromSim(cfg)
				if err != nil {
					t.Fatal(err)
				}
				const steps = 500
				opts := event.Options{
					Options: sim.Options{
						Seed: 42, MaxSteps: steps + 1,
						StopWhen: func(rs *sim.RunState) bool { return rs.Steps >= steps },
					},
					Latency: tc.lat,
				}
				res, vt := sim.Result{}, int64(-1)
				if batch {
					if res, err = event.Run(fc, k, tc.d, opts); err != nil {
						t.Fatal(err)
					}
				} else {
					r, err := event.NewRunner(fc, k, tc.d, opts)
					if err != nil {
						t.Fatal(err)
					}
					for {
						done, serr := r.Step()
						if done {
							if serr != nil {
								t.Fatal(serr)
							}
							break
						}
					}
					res, vt = r.Result(), r.VirtualTime()
				}
				res.Final = nil // pointer identity, not run state
				final := make([]core.State, g.N())
				c := fc.ToSim()
				for p := range final {
					final[p] = core.At(c, p)
				}
				return res, final, vt
			}
			same := func(what string, r1, r2 sim.Result, s1, s2 []core.State) {
				t.Helper()
				if fmt.Sprintf("%+v", r1) != fmt.Sprintf("%+v", r2) {
					t.Fatalf("results differ across %s:\n%+v\n%+v", what, r1, r2)
				}
				for p := range s1 {
					if s1[p] != s2[p] {
						t.Fatalf("proc %d final state differs across %s: %+v vs %+v", p, what, s1[p], s2[p])
					}
				}
			}
			r1, s1, v1 := run(false)
			r2, s2, v2 := run(false)
			same("identical runs", r1, r2, s1, s2)
			if v1 != v2 {
				t.Fatalf("virtual clocks differ across identical runs: %d vs %d", v1, v2)
			}
			r3, s3, _ := run(true)
			same("Step and Run", r1, r3, s1, s3)
		})
	}
}
