package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"time"

	"snappif/internal/core"
	"snappif/internal/event"
	"snappif/internal/exp"
	"snappif/internal/flat"
	"snappif/internal/graph"
	"snappif/internal/sim"
)

// scaleCell is one measured (topology, N, engine) point of the scaling
// grid.
type scaleCell struct {
	Topology      string  `json:"topology"`
	N             int     `json:"n"`
	Engine        string  `json:"engine"`
	Daemon        string  `json:"daemon"`
	Steps         int     `json:"steps"`
	NsPerStep     float64 `json:"ns_per_step"`
	StepsPerSec   float64 `json:"steps_per_sec"`
	MovesPerStep  float64 `json:"moves_per_step"`
	AllocsPerStep float64 `json:"allocs_per_step"`
}

// scaleReport is the BENCH_scale.json schema: the large-N companion to
// BENCH_sim.json. Every cell runs the snap-PIF protocol from the clean
// start under the synchronous daemon with a fixed seed, so the schedule —
// and therefore moves/step — is identical for every engine at a given
// (topology, N); only the time columns may differ.
type scaleReport struct {
	GoVersion  string      `json:"go_version"`
	GOMAXPROCS int         `json:"gomaxprocs"`
	NumCPU     int         `json:"num_cpu"`
	Commit     string      `json:"commit"`
	Seed       int64       `json:"seed"`
	Cells      []scaleCell `json:"cells"`
}

// scalePoint is one N of the grid: the measured step count shrinks as N
// grows so the whole grid stays minutes, not hours; genericOK gates the
// interface-based engine out of the sizes where a single cell would take
// longer than the rest of the grid combined.
type scalePoint struct {
	n         int
	warmup    int
	steps     int
	genericOK bool
}

var scalePoints = []scalePoint{
	{n: 64, warmup: 2000, steps: 50_000, genericOK: true},
	{n: 1_000, warmup: 2000, steps: 20_000, genericOK: true},
	{n: 10_000, warmup: 1000, steps: 5_000, genericOK: true},
	{n: 100_000, warmup: 300, steps: 1_000, genericOK: false},
	{n: 1_000_000, warmup: 100, steps: 300, genericOK: false},
}

// scaleTopologies builds the four topology families at size n. The random
// family is the degree-bounded sparse graph (a 1M-node Erdős–Rényi graph
// would need ~10^11 edge draws); its seed derives from n so every run of
// the emitter measures the same graphs.
func scaleTopologies(n int, seed int64) ([]*graph.Graph, error) {
	side := int(math.Round(math.Sqrt(float64(n))))
	rng := rand.New(rand.NewSource(seed + int64(n)))
	var out []*graph.Graph
	for _, b := range []func() (*graph.Graph, error){
		func() (*graph.Graph, error) { return graph.Line(n) },
		func() (*graph.Graph, error) { return graph.Ring(n) },
		func() (*graph.Graph, error) { return graph.Grid(side, (n+side-1)/side) },
		func() (*graph.Graph, error) { return graph.RandomSparse(n, n/4, rng) },
	} {
		g, err := b()
		if err != nil {
			return nil, err
		}
		out = append(out, g)
	}
	return out, nil
}

// stepper abstracts the two engines' stepping loops for measurement.
type stepper interface {
	Step() (bool, error)
	Moves() int
}

type genericStepper struct{ r *sim.Runner }

func (s genericStepper) Step() (bool, error) { return s.r.Step() }
func (s genericStepper) Moves() int          { return s.r.Result().Moves }

type eventStepper struct{ r *event.Runner }

func (s eventStepper) Step() (bool, error) { return s.r.Step() }
func (s eventStepper) Moves() int          { return s.r.Result().Moves }

// stepCost is one measured window of committed steps, per step: wall
// time, throughput, moves, heap allocations and heap bytes.
type stepCost struct{ ns, sps, moves, allocs, bytes float64 }

// measureStepper warms a stepper and measures its cost over the given
// number of committed steps. The warm-up absorbs one-time allocations
// (runner scratch, map growth), so a zero-allocation engine reads ≈ 0
// allocs and bytes per step.
func measureStepper(s stepper, warmup, steps int) (stepCost, error) {
	for i := 0; i < warmup; i++ {
		if done, err := s.Step(); done {
			return stepCost{}, fmt.Errorf("run ended during warm-up: %v", err)
		}
	}
	movesBefore := s.Moves()
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	//snapvet:ok benchmark wall time is the measured quantity itself
	start := time.Now()
	for i := 0; i < steps; i++ {
		if done, err := s.Step(); done {
			return stepCost{}, fmt.Errorf("run ended during measurement: %v", err)
		}
	}
	//snapvet:ok benchmark wall time is the measured quantity itself
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)
	fs := float64(steps)
	return stepCost{
		ns:     float64(elapsed.Nanoseconds()) / fs,
		sps:    fs / elapsed.Seconds(),
		moves:  float64(s.Moves()-movesBefore) / fs,
		allocs: float64(m1.Mallocs-m0.Mallocs) / fs,
		bytes:  float64(m1.TotalAlloc-m0.TotalAlloc) / fs,
	}, nil
}

// measureScaleCell measures one engine on one graph. engine is "generic"
// or "event" (event.Runner under the synchronous daemon).
func measureScaleCell(g *graph.Graph, engine string, pt scalePoint, seed int64) (scaleCell, error) {
	pr, err := core.New(g, 0)
	if err != nil {
		return scaleCell{}, err
	}
	d := sim.Synchronous{}
	simOpts := sim.Options{Seed: seed, MaxSteps: pt.warmup + pt.steps + 1}
	var s stepper
	switch engine {
	case "generic":
		cfg := sim.NewConfiguration(g, pr)
		s = genericStepper{r: sim.NewRunner(cfg, pr, d, simOpts)}
	case "event":
		kern, err := flat.FromCore(pr)
		if err != nil {
			return scaleCell{}, err
		}
		fc, err := flat.NewConfig(kern)
		if err != nil {
			return scaleCell{}, err
		}
		er, err := event.NewRunner(fc, kern, d, event.Options{Options: simOpts})
		if err != nil {
			return scaleCell{}, err
		}
		s = eventStepper{r: er}
	default:
		return scaleCell{}, fmt.Errorf("scale: unknown engine %q", engine)
	}
	c, err := measureStepper(s, pt.warmup, pt.steps)
	if err != nil {
		return scaleCell{}, fmt.Errorf("scale: %s/%s/N=%d: %w", engine, g.Name(), g.N(), err)
	}
	return scaleCell{
		Topology:      g.Name(),
		N:             g.N(),
		Engine:        engine,
		Daemon:        d.Name(),
		Steps:         pt.steps,
		NsPerStep:     c.ns,
		StepsPerSec:   c.sps,
		MovesPerStep:  c.moves,
		AllocsPerStep: c.allocs,
	}, nil
}

// frontierPoints sizes the cleaning-frontier cells: the regime the event
// engine exists for, where the active frontier is a vanishing fraction of N.
type frontierPoint struct {
	n      int
	warmup int
	steps  int
}

var frontierPoints = []frontierPoint{
	{n: 100_000, warmup: 300, steps: 1_000},
	{n: 1_000_000, warmup: 100, steps: 300},
}

// loadFrontier scatters a mid-cleaning-wave configuration of a line into
// fc: processors 0..front carry the feedback tail of a completed wave
// (chain tree, Fok raised), processors past front are already clean. The
// guards admit exactly one move — Cleaning(front) — and each C-action
// hands the frontier to front−1, so every committed step has one enabled
// processor, one move, and (under the synchronous daemon) one round. That
// makes the cell a pure measurement of per-step overhead that scales with
// N: a runner that copies a Θ(N/64) pending bitset at every round boundary
// pays it on every step here, while the event engine's epoch accounting
// touches only the frontier.
func loadFrontier(fc *flat.Config, n, front int) {
	for p := 0; p < n; p++ {
		s := core.State{Pif: core.C, Par: p - 1, L: p}
		if p == 0 {
			s.Par = core.ParNone
		}
		if p <= front {
			s.Pif = core.F
			s.Fok = true
			s.Count = 1
			s.Msg = 1
		}
		fc.SetState(p, s)
	}
}

// measureFrontierCell measures the event engine on the mid-cleaning-wave
// line of size n.
func measureFrontierCell(fp frontierPoint, seed int64) (scaleCell, error) {
	g, err := graph.Line(fp.n)
	if err != nil {
		return scaleCell{}, err
	}
	pr, err := core.New(g, 0)
	if err != nil {
		return scaleCell{}, err
	}
	kern, err := flat.FromCore(pr)
	if err != nil {
		return scaleCell{}, err
	}
	fc, err := flat.NewConfig(kern)
	if err != nil {
		return scaleCell{}, err
	}
	// The frontier retreats one processor per committed step; +8 keeps the
	// run from draining (and the root from re-broadcasting) inside the
	// measured window.
	loadFrontier(fc, fp.n, fp.warmup+fp.steps+8)
	d := sim.Synchronous{}
	simOpts := sim.Options{Seed: seed, MaxSteps: fp.warmup + fp.steps + 1}
	er, err := event.NewRunner(fc, kern, d, event.Options{Options: simOpts})
	if err != nil {
		return scaleCell{}, err
	}
	c, err := measureStepper(eventStepper{r: er}, fp.warmup, fp.steps)
	if err != nil {
		return scaleCell{}, fmt.Errorf("scale: event/line-frontier/N=%d: %w", fp.n, err)
	}
	return scaleCell{
		Topology:      "line-frontier",
		N:             fp.n,
		Engine:        "event",
		Daemon:        d.Name(),
		Steps:         fp.steps,
		NsPerStep:     c.ns,
		StepsPerSec:   c.sps,
		MovesPerStep:  c.moves,
		AllocsPerStep: c.allocs,
	}, nil
}

// writeScale measures the full scaling grid and writes BENCH_scale.json.
func writeScale(path string, seed int64) error {
	commit, err := exp.VCSCommit()
	if err != nil {
		return err
	}
	rep := scaleReport{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Commit:     commit,
		Seed:       seed,
	}
	for _, pt := range scalePoints {
		tops, err := scaleTopologies(pt.n, seed)
		if err != nil {
			return err
		}
		for _, g := range tops {
			engines := []string{"event"}
			if pt.genericOK {
				engines = append([]string{"generic"}, engines...)
			}
			for _, eng := range engines {
				cell, err := measureScaleCell(g, eng, pt, seed)
				if err != nil {
					return err
				}
				rep.Cells = append(rep.Cells, cell)
				fmt.Fprintf(os.Stderr, "pifexp: scale %s N=%d %s: %.0f ns/step (%.0f steps/sec)\n",
					cell.Topology, cell.N, cell.Engine, cell.NsPerStep, cell.StepsPerSec)
			}
		}
	}
	for _, fp := range frontierPoints {
		cell, err := measureFrontierCell(fp, seed)
		if err != nil {
			return err
		}
		rep.Cells = append(rep.Cells, cell)
		fmt.Fprintf(os.Stderr, "pifexp: scale %s N=%d %s: %.0f ns/step (%.0f steps/sec)\n",
			cell.Topology, cell.N, cell.Engine, cell.NsPerStep, cell.StepsPerSec)
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
