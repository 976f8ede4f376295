package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"

	"snappif/internal/core"
	"snappif/internal/exp"
	"snappif/internal/graph"
	"snappif/internal/sim"
	"snappif/internal/trace"
)

// benchCell is one measured (topology, daemon) configuration of the
// simulation hot path.
type benchCell struct {
	Topology      string  `json:"topology"`
	N             int     `json:"n"`
	Engine        string  `json:"engine"`
	Daemon        string  `json:"daemon"`
	Steps         int     `json:"steps"`
	NsPerStep     float64 `json:"ns_per_step"`
	StepsPerSec   float64 `json:"steps_per_sec"`
	MovesPerStep  float64 `json:"moves_per_step"`
	AllocsPerStep float64 `json:"allocs_per_step"`
	BytesPerStep  float64 `json:"bytes_per_step"`
}

// benchReport is the BENCH_sim.json schema.
type benchReport struct {
	GoVersion  string         `json:"go_version"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	Commit     string         `json:"commit"`
	Cells      []benchCell    `json:"cells"`
	CellTimes  []trace.Timing `json:"experiment_cell_seconds,omitempty"`
}

// measureSim measures the generic engine's hot path on one (topology,
// daemon) cell: measureStepper over a warm sim.Runner.
func measureSim(g *graph.Graph, d sim.Daemon, steps int) (benchCell, error) {
	const warmup = 2000
	pr, err := core.New(g, 0)
	if err != nil {
		return benchCell{}, err
	}
	r := sim.NewRunner(sim.NewConfiguration(g, pr), pr, d, sim.Options{Seed: 1, MaxSteps: warmup + steps + 1})
	c, err := measureStepper(genericStepper{r: r}, warmup, steps)
	if err != nil {
		return benchCell{}, fmt.Errorf("bench: %s/%s: %w", g.Name(), d.Name(), err)
	}
	return benchCell{
		Topology:      g.Name(),
		N:             g.N(),
		Engine:        "generic",
		Daemon:        d.Name(),
		Steps:         steps,
		NsPerStep:     c.ns,
		StepsPerSec:   c.sps,
		MovesPerStep:  c.moves,
		AllocsPerStep: c.allocs,
		BytesPerStep:  c.bytes,
	}, nil
}

// writeBench measures the benchmark grid and writes the JSON report.
func writeBench(path string, timings *trace.Timings) error {
	mk := func(g *graph.Graph, err error) *graph.Graph {
		if err != nil {
			panic(fmt.Sprintf("pifexp: bench topology: %v", err))
		}
		return g
	}
	grid := []struct {
		g *graph.Graph
		d sim.Daemon
	}{
		{mk(graph.Ring(64)), sim.Synchronous{}},
		{mk(graph.Ring(64)), sim.DistributedRandom{P: 0.5}},
		{mk(graph.Grid(8, 8)), sim.Synchronous{}},
		{mk(graph.Line(64)), sim.Central{Order: sim.CentralRandom}},
	}
	commit, err := exp.VCSCommit()
	if err != nil {
		return err
	}
	rep := benchReport{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Commit:     commit,
	}
	for _, c := range grid {
		cell, err := measureSim(c.g, c.d, 50_000)
		if err != nil {
			return err
		}
		rep.Cells = append(rep.Cells, cell)
	}
	if timings != nil && timings.Len() > 0 {
		rep.CellTimes = timings.Entries()
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
