// Repository-level benchmarks: one benchmark family per experiment of the
// harness (E1–E12, F1–F4, MC — see DESIGN.md §3 and EXPERIMENTS.md), plus micro
// benchmarks of the simulation engine's hot paths. Custom metrics report
// the quantities the paper bounds (rounds per cycle, rounds to stabilize).
//
// Run with:
//
//	go test -bench=. -benchmem
package snappif_test

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"snappif"

	"snappif/internal/baseline/echo"
	"snappif/internal/baseline/selfstab"
	"snappif/internal/baseline/treepif"
	"snappif/internal/check"
	"snappif/internal/core"
	"snappif/internal/event"
	"snappif/internal/exp"
	"snappif/internal/explore"
	"snappif/internal/fault"
	"snappif/internal/flat"
	"snappif/internal/graph"
	"snappif/internal/msgnet"
	"snappif/internal/msgnet/register"
	"snappif/internal/sim"
	"snappif/internal/wave"
)

// benchTopologies are the networks used across the benchmark families.
func benchTopologies(b *testing.B) []*graph.Graph {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	var out []*graph.Graph
	for _, f := range []func() (*graph.Graph, error){
		func() (*graph.Graph, error) { return graph.Line(32) },
		func() (*graph.Graph, error) { return graph.Ring(32) },
		func() (*graph.Graph, error) { return graph.Grid(6, 6) },
		func() (*graph.Graph, error) { return graph.Hypercube(5) },
		func() (*graph.Graph, error) { return graph.RandomConnected(32, 0.15, rng) },
	} {
		g, err := f()
		if err != nil {
			b.Fatal(err)
		}
		out = append(out, g)
	}
	return out
}

// BenchmarkE1CycleRounds measures full PIF cycles from a clean start
// (Theorem 4's workload) and reports rounds per cycle next to the 5h+5
// bound.
func BenchmarkE1CycleRounds(b *testing.B) {
	for _, g := range benchTopologies(b) {
		b.Run(g.Name(), func(b *testing.B) {
			pr := core.MustNew(g, 0)
			cfg := sim.NewConfiguration(g, pr)
			obs := check.NewCycleObserver(pr)
			b.ResetTimer()
			if _, err := sim.Run(cfg, pr, sim.Synchronous{}, sim.Options{
				MaxSteps:  1 << 40,
				Observers: []sim.Observer{obs},
				StopWhen:  obs.StopAfterCycles(b.N),
			}); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			var rounds, height int
			for _, rec := range obs.Cycles {
				rounds += rec.Rounds()
				if rec.Height > height {
					height = rec.Height
				}
			}
			b.ReportMetric(float64(rounds)/float64(b.N), "rounds/cycle")
			b.ReportMetric(float64(5*height+5), "bound(5h+5)")
		})
	}
}

// BenchmarkE2ErrorCorrection measures recovery from a uniformly random
// configuration to a normal configuration (Theorem 1's workload).
func BenchmarkE2ErrorCorrection(b *testing.B) {
	g, err := graph.RandomConnected(32, 0.15, rand.New(rand.NewSource(3)))
	if err != nil {
		b.Fatal(err)
	}
	pr := core.MustNew(g, 0)
	inj := fault.UniformRandom()
	totalRounds := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cfg := sim.NewConfiguration(g, pr)
		inj.Apply(cfg, pr, rand.New(rand.NewSource(int64(i))))
		b.StartTimer()
		res, err := sim.Run(cfg, pr, sim.DistributedRandom{P: 0.5}, sim.Options{
			Seed: int64(i) + 1,
			StopWhen: func(rs *sim.RunState) bool {
				return len(check.Abnormal(rs.Config, pr)) == 0
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		totalRounds += res.Rounds
	}
	b.ReportMetric(float64(totalRounds)/float64(b.N), "rounds/recovery")
	b.ReportMetric(float64(3*pr.Lmax+3), "bound(3Lmax+3)")
}

// BenchmarkE3Stabilization measures full stabilization to an SBN
// configuration from every adversarial fault pattern (Theorems 2–3).
func BenchmarkE3Stabilization(b *testing.B) {
	g, err := graph.RandomConnected(24, 0.2, rand.New(rand.NewSource(5)))
	if err != nil {
		b.Fatal(err)
	}
	pr := core.MustNew(g, 0)
	for _, inj := range fault.All() {
		b.Run(inj.Name, func(b *testing.B) {
			totalRounds := 0
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				cfg := sim.NewConfiguration(g, pr)
				inj.Apply(cfg, pr, rand.New(rand.NewSource(int64(i))))
				b.StartTimer()
				res, err := sim.Run(cfg, pr, sim.DistributedRandom{P: 0.5}, sim.Options{
					Seed: int64(i) + 1,
					StopWhen: func(rs *sim.RunState) bool {
						return check.IsSBN(rs.Config, pr)
					},
				})
				if err != nil {
					b.Fatal(err)
				}
				totalRounds += res.Rounds
			}
			b.ReportMetric(float64(totalRounds)/float64(b.N), "rounds/stabilize")
		})
	}
}

// BenchmarkE4SnapVsSelfStab measures the first wave from a corrupted
// configuration for the snap protocol and the self-stabilizing baseline —
// the head-to-head the paper's Contribution section draws.
func BenchmarkE4SnapVsSelfStab(b *testing.B) {
	g, err := graph.Ring(24)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("snap-pif", func(b *testing.B) {
		pr := core.MustNew(g, 0)
		violations := 0
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			cfg := sim.NewConfiguration(g, pr)
			fault.UniformRandom().Apply(cfg, pr, rand.New(rand.NewSource(int64(i))))
			obs := check.NewCycleObserver(pr)
			b.StartTimer()
			if _, err := sim.Run(cfg, pr, sim.DistributedRandom{P: 0.5}, sim.Options{
				Seed:      int64(i) + 1,
				Observers: []sim.Observer{obs},
				StopWhen:  obs.StopAfterCycles(1),
			}); err != nil {
				b.Fatal(err)
			}
			if len(obs.Cycles) == 0 || !obs.Cycles[0].OK() {
				violations++
			}
		}
		b.ReportMetric(float64(violations)/float64(b.N), "violations/wave")
	})
	b.Run("selfstab-pif", func(b *testing.B) {
		pr := selfstab.MustNew(g, 0)
		violations := 0
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			cfg := sim.NewConfiguration(g, pr)
			selfstab.RandomConfiguration(cfg, pr, rand.New(rand.NewSource(int64(i))))
			obs := selfstab.NewCycleObserver(pr)
			b.StartTimer()
			if _, err := sim.Run(cfg, pr, sim.DistributedRandom{P: 0.5}, sim.Options{
				Seed:      int64(i) + 1,
				Observers: []sim.Observer{obs},
				StopWhen:  obs.StopAfterCycles(1),
			}); err != nil {
				b.Fatal(err)
			}
			if len(obs.Cycles) == 0 || !obs.Cycles[0].OK(g.N()) {
				violations++
			}
		}
		b.ReportMetric(float64(violations)/float64(b.N), "violations/wave")
	})
}

// BenchmarkE5Invariants measures the cost of full invariant monitoring
// (Properties 1–2 plus domains) attached to every computation step.
func BenchmarkE5Invariants(b *testing.B) {
	g, err := graph.Grid(5, 5)
	if err != nil {
		b.Fatal(err)
	}
	pr := core.MustNew(g, 0)
	for _, monitored := range []bool{false, true} {
		name := "bare"
		if monitored {
			name = "monitored"
		}
		b.Run(name, func(b *testing.B) {
			cfg := sim.NewConfiguration(g, pr)
			obs := check.NewCycleObserver(pr)
			observers := []sim.Observer{obs}
			var mon *check.Monitor
			if monitored {
				mon = check.NewMonitor(pr, check.StandardChecks())
				observers = append(observers, mon)
			}
			b.ResetTimer()
			if _, err := sim.Run(cfg, pr, sim.Synchronous{}, sim.Options{
				MaxSteps:  1 << 40,
				Observers: observers,
				StopWhen:  obs.StopAfterCycles(b.N),
			}); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			if mon != nil && len(mon.Violations) > 0 {
				b.Fatalf("invariant violations: %v", mon.Violations[0])
			}
		})
	}
}

// BenchmarkE6Chordless measures clean-start cycles with the chordless
// ParentPath assertion evaluated on every step (Theorem 4's structural
// property).
func BenchmarkE6Chordless(b *testing.B) {
	g, err := graph.RandomConnected(24, 0.25, rand.New(rand.NewSource(7)))
	if err != nil {
		b.Fatal(err)
	}
	pr := core.MustNew(g, 0)
	cfg := sim.NewConfiguration(g, pr)
	obs := check.NewCycleObserver(pr)
	mon := check.NewMonitor(pr, []check.Check{{Name: "chordless", Fn: check.ChordlessParentPaths}})
	b.ResetTimer()
	if _, err := sim.Run(cfg, pr, sim.DistributedRandom{P: 0.5}, sim.Options{
		MaxSteps:  1 << 40,
		Observers: []sim.Observer{obs, mon},
		StopWhen:  obs.StopAfterCycles(b.N),
	}); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	if len(mon.Violations) > 0 {
		b.Fatalf("chordless violated: %v", mon.Violations[0])
	}
}

// BenchmarkE7AblationFokGate compares clean-cycle throughput with and
// without the Count/Fok gate (the snap protocol vs the gate-less baseline).
func BenchmarkE7AblationFokGate(b *testing.B) {
	g, err := graph.Grid(5, 5)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("with-gate", func(b *testing.B) {
		pr := core.MustNew(g, 0)
		cfg := sim.NewConfiguration(g, pr)
		obs := check.NewCycleObserver(pr)
		b.ResetTimer()
		if _, err := sim.Run(cfg, pr, sim.Synchronous{}, sim.Options{
			MaxSteps:  1 << 40,
			Observers: []sim.Observer{obs},
			StopWhen:  obs.StopAfterCycles(b.N),
		}); err != nil {
			b.Fatal(err)
		}
	})
	b.Run("without-gate", func(b *testing.B) {
		pr := selfstab.MustNew(g, 0)
		cfg := sim.NewConfiguration(g, pr)
		obs := selfstab.NewCycleObserver(pr)
		b.ResetTimer()
		if _, err := sim.Run(cfg, pr, sim.Synchronous{}, sim.Options{
			MaxSteps:  1 << 40,
			Observers: []sim.Observer{obs},
			StopWhen:  obs.StopAfterCycles(b.N),
		}); err != nil {
			b.Fatal(err)
		}
	})
}

// BenchmarkE8Daemons measures cycle cost under each daemon.
func BenchmarkE8Daemons(b *testing.B) {
	g, err := graph.Grid(5, 5)
	if err != nil {
		b.Fatal(err)
	}
	daemons := []sim.Daemon{
		sim.Synchronous{},
		sim.Central{Order: sim.CentralRandom},
		sim.DistributedRandom{P: 0.5},
		sim.LocallyCentral{},
		&sim.Adversarial{},
	}
	for _, d := range daemons {
		b.Run(d.Name(), func(b *testing.B) {
			pr := core.MustNew(g, 0)
			cfg := sim.NewConfiguration(g, pr)
			obs := check.NewCycleObserver(pr)
			b.ResetTimer()
			if _, err := sim.Run(cfg, pr, d, sim.Options{
				MaxSteps:  1 << 40,
				Observers: []sim.Observer{obs},
				StopWhen:  obs.StopAfterCycles(b.N),
			}); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			rounds := 0
			for _, rec := range obs.Cycles {
				rounds += rec.Rounds()
			}
			b.ReportMetric(float64(rounds)/float64(b.N), "rounds/cycle")
		})
	}
}

// BenchmarkE9TreeBaseline compares the pre-constructed-tree PIF with the
// snap protocol on the same network.
func BenchmarkE9TreeBaseline(b *testing.B) {
	g, err := graph.Grid(5, 5)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("tree-pif", func(b *testing.B) {
		pr := treepif.MustNewBFS(g, 0)
		cfg := sim.NewConfiguration(g, pr)
		obs := treepif.NewCycleObserver(pr)
		b.ResetTimer()
		if _, err := sim.Run(cfg, pr, sim.Synchronous{}, sim.Options{
			MaxSteps:  1 << 40,
			Observers: []sim.Observer{obs},
			StopWhen:  obs.StopAfterCycles(b.N),
		}); err != nil {
			b.Fatal(err)
		}
	})
	b.Run("snap-pif", func(b *testing.B) {
		pr := core.MustNew(g, 0)
		cfg := sim.NewConfiguration(g, pr)
		obs := check.NewCycleObserver(pr)
		b.ResetTimer()
		if _, err := sim.Run(cfg, pr, sim.Synchronous{}, sim.Options{
			MaxSteps:  1 << 40,
			Observers: []sim.Observer{obs},
			StopWhen:  obs.StopAfterCycles(b.N),
		}); err != nil {
			b.Fatal(err)
		}
	})
}

// BenchmarkE10Applications measures one application operation per
// iteration: an exact network-wide infimum via a single wave.
func BenchmarkE10Applications(b *testing.B) {
	g, err := graph.RandomConnected(24, 0.2, rand.New(rand.NewSource(9)))
	if err != nil {
		b.Fatal(err)
	}
	values := make([]int64, g.N())
	for p := range values {
		values[p] = int64((p * 31) % 101)
	}
	b.Run("infimum", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := wave.Infimum(g, 0, values, wave.Min, wave.WithSeed(int64(i)+1)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("reset", func(b *testing.B) {
		rc, err := wave.NewResetCoordinator(g, 0, wave.WithSeed(2))
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := rc.Reset(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE11MessagePassing compares the classic echo algorithm with the
// link-register emulation of the snap protocol, per wave, over the
// discrete-event message-passing simulator.
func BenchmarkE11MessagePassing(b *testing.B) {
	g, err := graph.Grid(4, 4)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("echo", func(b *testing.B) {
		msgs := 0
		for i := 0; i < b.N; i++ {
			res, err := echo.Run(g, 0, uint64(i)+1, msgnet.Options{Seed: int64(i) + 1})
			if err != nil {
				b.Fatal(err)
			}
			msgs += res.Messages
		}
		b.ReportMetric(float64(msgs)/float64(b.N), "msgs/wave")
	})
	b.Run("register-snap", func(b *testing.B) {
		res, err := register.Run(g, 0, b.N, register.Options{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Messages)/float64(b.N), "msgs/wave")
	})
}

// BenchmarkModelChecker measures the exhaustive checker's throughput on the
// smallest instance: the full 46,656-configuration domain of a 3-line,
// every central schedule, EF-clean included.
func BenchmarkModelChecker(b *testing.B) {
	g, err := graph.Line(3)
	if err != nil {
		b.Fatal(err)
	}
	inits, err := explore.Inits("domain", g, 0, nil)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		e, err := explore.New(g, 0, explore.Options{})
		if err != nil {
			b.Fatal(err)
		}
		res, err := e.Run(inits)
		if err != nil {
			b.Fatal(err)
		}
		if res.Verdict != "certified" {
			b.Fatalf("verification failed: %s", res.Violation)
		}
		b.ReportMetric(float64(res.States), "states")
	}
}

// BenchmarkConcurrentRuntime measures goroutine-per-processor waves.
func BenchmarkConcurrentRuntime(b *testing.B) {
	topo, err := snappif.Random(32, 0.15, 4)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	res, err := snappif.RunConcurrent(topo, 0, b.N, snappif.ConcurrentOptions{
		Timeout: 10 * time.Minute,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	for _, w := range res.Waves {
		if w.Delivered != topo.N()-1 {
			b.Fatalf("delivery violated: %d/%d", w.Delivered, topo.N()-1)
		}
	}
}

// BenchmarkGuardEvaluation measures the hot path of the simulator: a full
// enabled-set computation over a configuration.
func BenchmarkGuardEvaluation(b *testing.B) {
	for _, n := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			g, err := graph.RandomConnected(n, 0.1, rand.New(rand.NewSource(2)))
			if err != nil {
				b.Fatal(err)
			}
			pr := core.MustNew(g, 0)
			cfg := sim.NewConfiguration(g, pr)
			// A mid-broadcast configuration exercises the expensive guards.
			fault.PhantomTree().Apply(cfg, pr, rand.New(rand.NewSource(3)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if got := sim.EnabledChoices(cfg, pr); len(got) == 0 {
					b.Fatal("no enabled processor in mid-broadcast configuration")
				}
			}
		})
	}
}

// BenchmarkExperimentHarness runs the full quick experiment suite once per
// iteration — the end-to-end cost of regenerating every table.
func BenchmarkExperimentHarness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, e := range exp.All() {
			out, err := e.Run(exp.Options{Quick: true, Trials: 1, Seed: int64(i) + 1})
			if err != nil {
				b.Fatalf("%s: %v", e.ID, err)
			}
			if out.BoundExceeded != 0 || out.SnapViolations != 0 {
				b.Fatalf("%s: reproduction failure", e.ID)
			}
		}
	}
}

// BenchmarkIncrementalGuards compares the runner's incremental
// guard-evaluation fast path (LocalProtocol) with full per-step
// recomputation, under a central daemon where the gap is largest.
func BenchmarkIncrementalGuards(b *testing.B) {
	g, err := graph.RandomConnected(128, 0.05, rand.New(rand.NewSource(6)))
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, proto sim.Protocol, pr *core.Protocol) {
		cfg := sim.NewConfiguration(g, pr)
		obs := check.NewCycleObserver(pr)
		b.ResetTimer()
		if _, err := sim.Run(cfg, proto, sim.Central{Order: sim.CentralRandom}, sim.Options{
			MaxSteps:  1 << 40,
			Observers: []sim.Observer{obs},
			StopWhen:  obs.StopAfterCycles(b.N),
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("incremental", func(b *testing.B) {
		pr := core.MustNew(g, 0)
		run(b, pr, pr)
	})
	b.Run("full-recompute", func(b *testing.B) {
		pr := core.MustNew(g, 0)
		run(b, nonLocal{pr}, pr)
	})
}

// nonLocal hides the LocalProtocol marker.
type nonLocal struct{ p sim.Protocol }

func (h nonLocal) Name() string                                   { return h.p.Name() }
func (h nonLocal) ActionNames() []string                          { return h.p.ActionNames() }
func (h nonLocal) InitialState(p int) sim.State                   { return h.p.InitialState(p) }
func (h nonLocal) Enabled(c *sim.Configuration, p int) []int      { return h.p.Enabled(c, p) }
func (h nonLocal) Apply(c *sim.Configuration, p, a int) sim.State { return h.p.Apply(c, p, a) }

// BenchmarkLargeWave measures a full wave on a 512-processor network —
// the scale a downstream simulation study would run at.
func BenchmarkLargeWave(b *testing.B) {
	g, err := graph.RandomConnected(512, 0.01, rand.New(rand.NewSource(12)))
	if err != nil {
		b.Fatal(err)
	}
	pr := core.MustNew(g, 0)
	cfg := sim.NewConfiguration(g, pr)
	obs := check.NewCycleObserver(pr)
	b.ResetTimer()
	if _, err := sim.Run(cfg, pr, sim.DistributedRandom{P: 0.5}, sim.Options{
		MaxSteps:  1 << 40,
		Observers: []sim.Observer{obs},
		StopWhen:  obs.StopAfterCycles(b.N),
	}); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	for _, rec := range obs.Cycles {
		if !rec.OK() {
			b.Fatal("delivery violated at scale")
		}
	}
}

// BenchmarkE12MultiInitiator measures one all-initiators-once round of the
// concurrent-initiator composition.
func BenchmarkE12MultiInitiator(b *testing.B) {
	topo, err := snappif.Grid(4, 4)
	if err != nil {
		b.Fatal(err)
	}
	net, err := snappif.NewMultiNetwork(topo, []int{0, 5, 15}, snappif.WithSeed(3))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	waves, err := net.RunWavesEach(b.N)
	if err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	for _, w := range waves {
		if !w.OK(topo.N()) {
			b.Fatal("concurrent wave violated")
		}
	}
}

// benchStepper abstracts the two engines for the step benchmarks.
type benchStepper interface {
	Step() (bool, error)
}

// benchSteps drives a warm stepper for b.N committed steps. The snap-PIF
// protocol cycles forever from the clean start, so the loop never hits a
// terminal configuration.
func benchSteps(b *testing.B, s benchStepper, warmup int) {
	b.Helper()
	for i := 0; i < warmup; i++ {
		if done, err := s.Step(); done {
			b.Fatalf("run ended during warm-up: %v", err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if done, err := s.Step(); done {
			b.Fatalf("run ended during measurement: %v", err)
		}
	}
}

// benchStepSizes are the network sizes of the engine step benchmarks:
// large enough that the SoA layout matters, small enough for benchstat
// iteration counts.
var benchStepSizes = []int{1_000, 10_000}

// BenchmarkStepSim measures one committed step of the interface-based sim
// engine (sim.Runner) on the snap-PIF protocol under the synchronous
// daemon — the baseline the event engine is compared against.
func BenchmarkStepSim(b *testing.B) {
	for _, n := range benchStepSizes {
		b.Run(fmt.Sprintf("ring-%d", n), func(b *testing.B) {
			g, err := graph.Ring(n)
			if err != nil {
				b.Fatal(err)
			}
			pr := core.MustNew(g, 0)
			cfg := sim.NewConfiguration(g, pr)
			r := sim.NewRunner(cfg, pr, sim.Synchronous{}, sim.Options{Seed: 1, MaxSteps: 1 << 40})
			benchSteps(b, r, 200)
		})
	}
}

// BenchmarkStepEvent measures the same step on the event engine: the SoA
// kernel (internal/flat) driven by event.Runner under the synchronous
// daemon. Identical schedule to BenchmarkStepSim — the engines are
// bit-identical — so ns/op is directly comparable.
func BenchmarkStepEvent(b *testing.B) {
	for _, n := range benchStepSizes {
		b.Run(fmt.Sprintf("ring-%d", n), func(b *testing.B) {
			g, err := graph.Ring(n)
			if err != nil {
				b.Fatal(err)
			}
			k, err := flat.FromCore(core.MustNew(g, 0))
			if err != nil {
				b.Fatal(err)
			}
			fc, err := flat.NewConfig(k)
			if err != nil {
				b.Fatal(err)
			}
			r, err := event.NewRunner(fc, k, sim.Synchronous{}, event.Options{
				Options: sim.Options{Seed: 1, MaxSteps: 1 << 40},
			})
			if err != nil {
				b.Fatal(err)
			}
			benchSteps(b, r, 200)
		})
	}
}
