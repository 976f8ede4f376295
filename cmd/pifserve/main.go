// Command pifserve runs the PIF-as-a-service layer: open-loop request
// streams served by pipelined waves over per-initiator lanes.
//
// Usage:
//
//	pifserve run      -topo ring:64 -engine sim -rate 20 -requests 200 [-serial] [-json]
//	pifserve capacity -topo ring:64 -engine sim -slo-p99 2000 [-lo 1] [-hi 500]
//	pifserve dump     -topo ring:64 -engine event -rate 10 -requests 50 -out scenario.json
//	pifserve bench    -out BENCH_service.json [-quick]
//
// `run` serves one workload and reports throughput and latency percentiles.
// `capacity` binary-searches the highest arrival rate whose exact p99 wave
// latency stays under the SLO. `dump` writes the run as a replayable
// pifhunt scenario (replay with `pifhunt replay -in scenario.json`).
// `bench` emits the BENCH_service.json load grid.
//
// Everything runs on virtual time: the same flags produce byte-identical
// reports on every host and worker count.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"snappif/internal/event"
	"snappif/internal/graph"
	"snappif/internal/service"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "pifserve:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: pifserve <run|capacity|dump|bench> [flags]")
	}
	switch args[0] {
	case "run":
		return runServe(args[1:], out, false)
	case "dump":
		return runServe(args[1:], out, true)
	case "capacity":
		return runCapacity(args[1:], out)
	case "bench":
		return runBench(args[1:], out)
	}
	return fmt.Errorf("unknown subcommand %q (want run, capacity, dump, or bench)", args[0])
}

// serveFlags is the flag set shared by run/dump/capacity.
type serveFlags struct {
	fs         *flag.FlagSet
	topo       *string
	engine     *string
	latency    *string
	initiators *string
	faults     *string
	rate       *float64
	process    *string
	requests   *int
	mix        *string
	seed       *int64
	maxTicks   *int64
}

func newServeFlags(name string) *serveFlags {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	return &serveFlags{
		fs:         fs,
		topo:       fs.String("topo", "ring:32", "topology spec (line/ring/star/complete/hypercube/btree:N or grid:RxC)"),
		engine:     fs.String("engine", "sim", "execution engine: sim (one synchronous step per tick) or event (per-link latencies)"),
		latency:    fs.String("latency", "", "event engine only: link-latency distribution (const:K, uniform:LO-HI, pareto:a=A,cap=C)"),
		initiators: fs.String("initiators", "0", "comma-separated lane roots (pipeline depth = lane count)"),
		faults:     fs.String("faults", "", "comma-separated per-lane fault injectors for the start states"),
		rate:       fs.Float64("rate", 10, "offered load: requests per 1000 virtual ticks"),
		process:    fs.String("process", "poisson", "arrival process: poisson or constant"),
		requests:   fs.Int("requests", 100, "stream length"),
		mix:        fs.String("mix", "", "request-kind mix as kind=weight,... (default uniform over "+strings.Join(service.Kinds(), ",")+")"),
		seed:       fs.Int64("seed", 1, "workload and lane seed"),
		maxTicks:   fs.Int64("max-ticks", 0, "virtual-clock bound (0 = default)"),
	}
}

// build resolves the flags into service options and a generated workload.
func (sf *serveFlags) build() (service.Options, []service.Arrival, error) {
	g, err := graph.Parse(*sf.topo)
	if err != nil {
		return service.Options{}, nil, err
	}
	initiators, err := parseIntList(*sf.initiators)
	if err != nil {
		return service.Options{}, nil, fmt.Errorf("-initiators: %w", err)
	}
	var lat event.Latency
	if *sf.latency != "" {
		if lat, err = event.ParseLatency(*sf.latency); err != nil {
			return service.Options{}, nil, err
		}
	}
	var faults []string
	if *sf.faults != "" {
		faults = strings.Split(*sf.faults, ",")
	}
	mix, err := parseMix(*sf.mix)
	if err != nil {
		return service.Options{}, nil, err
	}
	opts := service.Options{
		Graph:      g,
		Engine:     *sf.engine,
		Latency:    lat,
		Initiators: initiators,
		Faults:     faults,
		Seed:       *sf.seed,
		MaxTicks:   *sf.maxTicks,
	}
	w := service.Workload{
		Process:  *sf.process,
		Rate:     *sf.rate,
		Requests: *sf.requests,
		Lanes:    len(initiators),
		Mix:      mix,
		Seed:     *sf.seed,
	}
	arrivals, err := w.Generate()
	if err != nil {
		return service.Options{}, nil, err
	}
	return opts, arrivals, nil
}

func runServe(args []string, out io.Writer, dump bool) error {
	sf := newServeFlags("pifserve run")
	serial := sf.fs.Bool("serial", false, "serve closed-loop (one wave in flight globally) instead of pipelined")
	jsonOut := sf.fs.Bool("json", false, "emit the report summary as JSON")
	outFile := sf.fs.String("out", "", "dump: scenario output file (required for dump)")
	name := sf.fs.String("name", "pifserve-run", "dump: scenario name")
	if err := sf.fs.Parse(args); err != nil {
		return err
	}
	opts, arrivals, err := sf.build()
	if err != nil {
		return err
	}

	if dump {
		if *outFile == "" {
			return fmt.Errorf("dump: -out is required")
		}
		sc, err := service.DumpScenario(*name, opts, arrivals, *serial)
		if err != nil {
			return err
		}
		data, err := sc.Marshal()
		if err != nil {
			return err
		}
		if err := os.WriteFile(*outFile, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "pifserve: wrote scenario %s (%d arrivals on %s); replay with: pifhunt replay -in %s\n",
			*outFile, len(arrivals), *sf.topo, *outFile)
		return nil
	}

	srv, err := service.New(opts)
	if err != nil {
		return err
	}
	var rep *service.Report
	if *serial {
		rep, err = srv.RunSerial(arrivals)
	} else {
		rep, err = srv.Run(arrivals)
	}
	if err != nil {
		return err
	}
	if *jsonOut {
		data, err := rep.MarshalJSONSummary()
		if err != nil {
			return err
		}
		fmt.Fprintln(out, string(data))
		return nil
	}
	mode := "pipelined"
	if *serial {
		mode = "serial"
	}
	fmt.Fprintf(out, "pifserve: %s %s on %s: %d waves in %d ticks (%.3f waves/ktick), residue=%d aborts=%d\n",
		mode, rep.Engine, *sf.topo, len(rep.Waves), rep.Ticks, rep.WavesPerKTick(), rep.Residue, rep.Aborts)
	fmt.Fprintf(out, "pifserve: latency ticks p50=%d p90=%d p99=%d\n",
		rep.QuantileTicks(0.50), rep.QuantileTicks(0.90), rep.QuantileTicks(0.99))
	return nil
}

func runCapacity(args []string, out io.Writer) error {
	sf := newServeFlags("pifserve capacity")
	sloP99 := sf.fs.Int64("slo-p99", 0, "SLO: max acceptable p99 wave latency in virtual ticks (required)")
	lo := sf.fs.Float64("lo", 1, "search bracket: lowest rate probed")
	hi := sf.fs.Float64("hi", 1000, "search bracket: highest rate probed")
	iters := sf.fs.Int("iters", 12, "binary-search probes")
	jsonOut := sf.fs.Bool("json", false, "emit the capacity result as JSON")
	if err := sf.fs.Parse(args); err != nil {
		return err
	}
	opts, _, err := sf.build()
	if err != nil {
		return err
	}
	w := service.Workload{
		Process:  *sf.process,
		Rate:     *sf.rate, // overridden per probe
		Requests: *sf.requests,
		Lanes:    len(opts.Initiators),
		Seed:     *sf.seed,
	}
	if mix, merr := parseMix(*sf.mix); merr == nil {
		w.Mix = mix
	} else {
		return merr
	}
	res, err := service.PlanCapacity(opts, w, service.SLO{P99Ticks: *sloP99}, *lo, *hi, *iters)
	if err != nil {
		return err
	}
	if *jsonOut {
		return writeJSON(out, res)
	}
	if res.Sustainable == 0 {
		fmt.Fprintf(out, "pifserve: %s on %s cannot sustain even %.3g req/ktick at p99 ≤ %d ticks\n",
			*sf.engine, *sf.topo, *lo, *sloP99)
		return nil
	}
	fmt.Fprintf(out, "pifserve: %s on %s sustains %.3f req/ktick at p99 ≤ %d ticks (measured p99=%d, %.3f waves/ktick, %d probes)\n",
		*sf.engine, *sf.topo, res.Sustainable, *sloP99, res.P99Ticks, res.WavesPerKTick, len(res.Probes))
	for _, p := range res.Probes {
		verdict := "MISS"
		if p.OK {
			verdict = "ok"
		}
		fmt.Fprintf(out, "pifserve:   probe rate=%.3f p99=%d waves/ktick=%.3f %s\n",
			p.Rate, p.P99Ticks, p.WavesPerKTick, verdict)
	}
	return nil
}

// parseIntList parses "0,5,11".
func parseIntList(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad entry %q", part)
		}
		out = append(out, v)
	}
	return out, nil
}

// parseMix parses "snapshot=3,barrier=1" ("" = nil, meaning uniform).
func parseMix(s string) (map[string]float64, error) {
	if s == "" {
		return nil, nil
	}
	mix := make(map[string]float64)
	for _, part := range strings.Split(s, ",") {
		kv := strings.SplitN(part, "=", 2)
		if len(kv) != 2 {
			return nil, fmt.Errorf("-mix: bad entry %q (want kind=weight)", part)
		}
		wt, err := strconv.ParseFloat(kv[1], 64)
		if err != nil {
			return nil, fmt.Errorf("-mix: bad weight in %q", part)
		}
		mix[strings.TrimSpace(kv[0])] = wt
	}
	return mix, nil
}
