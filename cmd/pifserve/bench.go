package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"

	"snappif/internal/exp"
	"snappif/internal/graph"
	"snappif/internal/service"
)

// loadCell is one (engine, topology, offered rate) point of the open-loop
// load grid: offered load versus achieved throughput and latency
// percentiles. All numbers are virtual-time, so cells are byte-identical
// across hosts and runs.
type loadCell struct {
	Engine        string  `json:"engine"`
	Topology      string  `json:"topology"`
	N             int     `json:"n"`
	Lanes         int     `json:"lanes"`
	Process       string  `json:"process"`
	OfferedRate   float64 `json:"offered_rate"`
	Requests      int     `json:"requests"`
	Waves         int     `json:"waves"`
	Ticks         int64   `json:"ticks"`
	WavesPerKTick float64 `json:"achieved_waves_per_ktick"`
	P50Ticks      int64   `json:"p50_ticks"`
	P90Ticks      int64   `json:"p90_ticks"`
	P99Ticks      int64   `json:"p99_ticks"`
}

// pipelineCell is one pipelined-vs-serial comparison at a given depth; the
// emitter enforces the ≥ 1.5× speedup gate on every cell with depth ≥ 2.
type pipelineCell struct {
	Engine       string  `json:"engine"`
	Topology     string  `json:"topology"`
	N            int     `json:"n"`
	Depth        int     `json:"depth"`
	WavesEach    int     `json:"waves_each"`
	SerialWPK    float64 `json:"serial_waves_per_ktick"`
	PipelinedWPK float64 `json:"pipelined_waves_per_ktick"`
	Speedup      float64 `json:"speedup"`
}

// benchReport is the BENCH_service.json schema.
type benchReport struct {
	GoVersion     string         `json:"go_version"`
	Commit        string         `json:"commit"`
	Seed          int64          `json:"seed"`
	LoadCells     []loadCell     `json:"load_cells"`
	PipelineCells []pipelineCell `json:"pipeline_cells"`
}

// benchTopo describes one topology of the load grid with rates chosen to
// straddle its serving capacity (so the grid shows both the linear region
// and saturation).
type benchTopo struct {
	spec  string
	rates []float64
}

func runBench(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("pifserve bench", flag.ContinueOnError)
	outFile := fs.String("out", "BENCH_service.json", "output file")
	quick := fs.Bool("quick", false, "small grid for CI smoke (sim engine, small topologies)")
	seed := fs.Int64("seed", 1, "workload and lane seed")
	if err := fs.Parse(args); err != nil {
		return err
	}

	commit, err := exp.VCSCommit()
	if err != nil {
		return err
	}
	rep := benchReport{GoVersion: runtime.Version(), Commit: commit, Seed: *seed}

	engines := []string{"sim", "event"}
	topos := []benchTopo{
		{"ring:256", []float64{1, 2, 4, 8}},
		{"grid:16x16", []float64{5, 10, 20, 40}},
	}
	pipeTopos := []struct {
		spec   string
		depths []int
	}{
		{"ring:1000", []int{2, 4}},
		{"grid:32x32", []int{2, 4}},
	}
	requests := 120
	wavesEach := 4
	if *quick {
		engines = []string{"sim"}
		topos = []benchTopo{
			{"ring:64", []float64{2, 8}},
			{"grid:8x8", []float64{5, 20}},
		}
		pipeTopos = pipeTopos[:0]
		requests = 30
	}

	for _, tp := range topos {
		g, err := graph.Parse(tp.spec)
		if err != nil {
			return err
		}
		initiators := []int{0, g.N() / 2}
		for _, eng := range engines {
			for _, rate := range tp.rates {
				w := service.Workload{
					Process: "poisson", Rate: rate, Requests: requests,
					Lanes: len(initiators), Seed: *seed,
				}
				arrivals, err := w.Generate()
				if err != nil {
					return err
				}
				srv, err := service.New(service.Options{
					Graph: g, Engine: eng, Initiators: initiators,
					Seed: *seed, MaxTicks: 1 << 24,
				})
				if err != nil {
					return err
				}
				r, err := srv.Run(arrivals)
				if err != nil {
					return fmt.Errorf("bench %s/%s/rate=%g: %w", eng, tp.spec, rate, err)
				}
				rep.LoadCells = append(rep.LoadCells, loadCell{
					Engine:        eng,
					Topology:      tp.spec,
					N:             g.N(),
					Lanes:         len(initiators),
					Process:       "poisson",
					OfferedRate:   rate,
					Requests:      requests,
					Waves:         len(r.Waves),
					Ticks:         r.Ticks,
					WavesPerKTick: r.WavesPerKTick(),
					P50Ticks:      r.QuantileTicks(0.50),
					P90Ticks:      r.QuantileTicks(0.90),
					P99Ticks:      r.QuantileTicks(0.99),
				})
				fmt.Fprintf(out, "pifserve: bench %s %s rate=%g: %.3f waves/ktick p99=%d\n",
					eng, tp.spec, rate, r.WavesPerKTick(), r.QuantileTicks(0.99))
			}
		}
	}

	for _, pt := range pipeTopos {
		g, err := graph.Parse(pt.spec)
		if err != nil {
			return err
		}
		for _, depth := range pt.depths {
			initiators := make([]int, depth)
			for i := range initiators {
				initiators[i] = i * g.N() / depth
			}
			var arrivals []service.Arrival
			kinds := service.Kinds()
			for j := 0; j < wavesEach; j++ {
				for l := range initiators {
					arrivals = append(arrivals, service.Arrival{
						T: int64(1 + j), Lane: l, Kind: kinds[(j+l)%len(kinds)],
					})
				}
			}
			service.SortArrivals(arrivals)
			mkRun := func(serial bool) (*service.Report, error) {
				srv, err := service.New(service.Options{
					Graph: g, Engine: "sim", Initiators: initiators,
					Seed: *seed, MaxTicks: 1 << 25,
				})
				if err != nil {
					return nil, err
				}
				if serial {
					return srv.RunSerial(arrivals)
				}
				return srv.Run(arrivals)
			}
			serial, err := mkRun(true)
			if err != nil {
				return err
			}
			pipe, err := mkRun(false)
			if err != nil {
				return err
			}
			sp := pipe.WavesPerKTick() / serial.WavesPerKTick()
			if depth >= 2 && sp < 1.5 {
				return fmt.Errorf("bench: pipelining gate failed on %s depth %d: %.2fx < 1.5x", pt.spec, depth, sp)
			}
			rep.PipelineCells = append(rep.PipelineCells, pipelineCell{
				Engine:       "sim",
				Topology:     pt.spec,
				N:            g.N(),
				Depth:        depth,
				WavesEach:    wavesEach,
				SerialWPK:    serial.WavesPerKTick(),
				PipelinedWPK: pipe.WavesPerKTick(),
				Speedup:      sp,
			})
			fmt.Fprintf(out, "pifserve: bench pipeline %s depth=%d: %.2fx\n", pt.spec, depth, sp)
		}
	}

	data, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(*outFile, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(out, "pifserve: wrote %s (%d load cells, %d pipeline cells)\n",
		*outFile, len(rep.LoadCells), len(rep.PipelineCells))
	return nil
}

// writeJSON indents v onto out.
func writeJSON(out io.Writer, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(out, string(data))
	return err
}
