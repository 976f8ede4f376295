// Package exp implements the experiment harness: one experiment per result
// of the paper (Properties 1–3, Theorems 1–4, the snap-stabilization claim,
// and the baseline comparisons), each regenerating a table whose shape must
// match the proved bound or claim. See DESIGN.md §3 for the experiment
// index and EXPERIMENTS.md for recorded paper-vs-measured outcomes.
//
// The harness is shared by cmd/pifexp (prints every table) and the
// repository-level benchmarks (one Benchmark per experiment).
package exp

import (
	"fmt"
	"math/rand"

	"snappif/internal/check"
	"snappif/internal/core"
	"snappif/internal/event"
	"snappif/internal/fault"
	"snappif/internal/flat"
	"snappif/internal/graph"
	"snappif/internal/obs"
	"snappif/internal/sim"
	"snappif/internal/telemetry"
	"snappif/internal/trace"
)

// Options scales an experiment.
type Options struct {
	// Quick shrinks topology sizes and trial counts for tests/benchmarks.
	Quick bool
	// Trials is the number of repetitions per table cell (default 5 quick,
	// 20 full).
	Trials int
	// Seed seeds all randomness (default 1).
	Seed int64
	// Parallel fans independent table cells across GOMAXPROCS workers (see
	// runGrid). Every cell seeds its own randomness from Seed plus fixed
	// cell parameters, so the resulting tables are identical to a serial
	// run.
	Parallel bool
	// Timings, if non-nil, collects per-cell wall-clock durations.
	Timings *trace.Timings
	// Metrics, if non-nil, receives executor counters: exp.cells (completed
	// table cells), exp.cell_errors, and the exp.cell_ns histogram of cell
	// wall times — the live progress feed behind pifexp's -http endpoint.
	Metrics *obs.Registry
	// Engine selects the simulation engine for the snap-PIF runs that
	// support it: "generic" (the interface-based sim.Runner, the default),
	// or "flat" / "event" (event.Runner over the struct-of-arrays kernel in
	// internal/flat; "event" additionally honors Latency). The engines are
	// bit-identical — same moves, rounds, daemon choices, and traces — so
	// every table is byte-identical across engines; the choice only changes
	// how fast the cells run (see DESIGN.md §9 and §12).
	Engine string
	// Latency, for the event engine only, replaces the daemon with the
	// named per-link latency distribution (event.ParseLatency syntax,
	// e.g. "const:2", "uniform:1-5", "pareto:a=1.5,cap=64"). Empty keeps
	// the daemon-driven zero-latency mode that is bit-identical to the
	// other engines.
	Latency string
	// VClock, if non-nil, receives the event engine's virtual-time tick
	// counter as each step commits, so a telemetry Config.Clock built on it
	// stamps spans in virtual time. Ignored by the other engines.
	VClock *event.VirtualClock
	// Telemetry, if non-nil, receives the per-step aggregation hooks of
	// every snap-PIF cycle run (both engines). The instance is shared
	// across cells — its counters and histograms aggregate the whole
	// experiment batch, and with Parallel the cells feed it concurrently
	// (all hooks are safe for concurrent use).
	Telemetry *telemetry.Telemetry
}

func (o Options) withDefaults() Options {
	if o.Trials == 0 {
		if o.Quick {
			o.Trials = 5
		} else {
			o.Trials = 20
		}
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Engine == "" {
		o.Engine = "generic"
	}
	return o
}

// Outcome is an experiment's result: the rendered table plus the aggregate
// verdict counters the tests assert on.
type Outcome struct {
	// Table is the regenerated result table.
	Table *trace.Table
	// BoundExceeded counts measurements above the paper's bound (must be 0
	// for a successful reproduction).
	BoundExceeded int
	// SnapViolations counts PIF-specification violations by the
	// snap-stabilizing protocol (must be 0).
	SnapViolations int
	// BaselineViolations counts specification violations by the non-snap
	// baselines (expected > 0 in the adversarial experiments — that gap is
	// the paper's contribution).
	BaselineViolations int
}

// topology is one experiment network.
type topology struct {
	g *graph.Graph
}

// topologies returns the experiment topology suite.
func topologies(quick bool, seed int64) []topology {
	rng := rand.New(rand.NewSource(seed))
	mk := func(g *graph.Graph, err error) topology {
		if err != nil {
			panic(fmt.Sprintf("exp: topology construction: %v", err))
		}
		return topology{g: g}
	}
	if quick {
		return []topology{
			mk(graph.Line(12)),
			mk(graph.Ring(12)),
			mk(graph.Star(12)),
			mk(graph.Complete(8)),
			mk(graph.Grid(3, 4)),
			mk(graph.Hypercube(3)),
			mk(graph.BinaryTree(15)),
			mk(graph.Caterpillar(4, 2)),
			mk(graph.Lollipop(4, 4)),
			mk(graph.RandomConnected(12, 0.2, rng)),
		}
	}
	return []topology{
		mk(graph.Line(16)),
		mk(graph.Line(48)),
		mk(graph.Ring(16)),
		mk(graph.Ring(48)),
		mk(graph.Star(32)),
		mk(graph.Complete(16)),
		mk(graph.Grid(5, 5)),
		mk(graph.Grid(8, 8)),
		mk(graph.Torus(5, 5)),
		mk(graph.Hypercube(5)),
		mk(graph.BinaryTree(31)),
		mk(graph.BinaryTree(63)),
		mk(graph.KaryTree(3, 40)),
		mk(graph.Caterpillar(8, 3)),
		mk(graph.Lollipop(8, 8)),
		mk(graph.Barbell(8, 4)),
		mk(graph.Wheel(24)),
		mk(graph.Circulant(24, []int{1, 3, 5})),
		mk(graph.CompleteBipartite(8, 12)),
		mk(graph.RandomConnected(32, 0.1, rng)),
		mk(graph.RandomConnected(32, 0.3, rng)),
		mk(graph.RandomConnected(64, 0.1, rng)),
	}
}

// runCycles runs k clean-start PIF cycles of the snap protocol on the
// engine opt selects and returns the cycle records. The engines are
// bit-identical, so the records do not depend on the choice.
func runCycles(opt Options, g *graph.Graph, d sim.Daemon, k int, seed int64) ([]check.CycleRecord, error) {
	pr, err := core.New(g, 0)
	if err != nil {
		return nil, err
	}
	obs := check.NewCycleObserver(pr)
	simOpts := sim.Options{
		MaxSteps:  20_000_000,
		Seed:      seed,
		Observers: []sim.Observer{obs},
		StopWhen:  obs.StopAfterCycles(k),
	}
	meta := telemetry.RunMeta{
		G:       g,
		Root:    0,
		Seed:    seed - 1, // scenario convention: injector seed; run seed is Seed+1
		Engine:  opt.Engine,
		Daemon:  d.Name(),
		NextMsg: pr.NextMsg,
	}
	switch opt.Engine {
	case "", "generic":
		cfg := sim.NewConfiguration(g, pr)
		if opt.Telemetry.Enabled() {
			to := &telemetry.Observer{T: opt.Telemetry, Proto: pr}
			to.Begin(meta, cfg)
			simOpts.Observers = append(simOpts.Observers, to)
		}
		if _, err := sim.Run(cfg, pr, d, simOpts); err != nil {
			return nil, err
		}
	case "flat", "event":
		kern, err := flat.FromCore(pr)
		if err != nil {
			return nil, err
		}
		fc, err := flat.NewConfig(kern)
		if err != nil {
			return nil, err
		}
		eopts := event.Options{
			Options:       simOpts,
			Telemetry:     opt.Telemetry,
			TelemetryMeta: meta,
		}
		if opt.Engine == "event" {
			if eopts.Latency, err = event.ParseLatency(opt.Latency); err != nil {
				return nil, err
			}
			eopts.VClock = opt.VClock
			if eopts.Latency != nil {
				// Latency mode schedules itself; the daemon argument is unused.
				d = nil
			}
		}
		if _, err := event.Run(fc, kern, d, eopts); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("exp: unknown engine %q (want generic, flat, or event)", opt.Engine)
	}
	return obs.Cycles, nil
}

// injectors returns the fault suite used by the stabilization experiments.
func injectors() []fault.Injector { return fault.All() }
