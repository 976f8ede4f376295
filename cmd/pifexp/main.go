// Command pifexp runs the experiment harness: for every result in the
// paper (Theorems 1–4, Properties 1–3, the snap-stabilization claim, and
// the baseline comparisons) it regenerates the corresponding table and
// prints it, together with a reproduction verdict. EXPERIMENTS.md records
// the output of a full run.
//
// Usage:
//
//	pifexp [-quick] [-trials N] [-seed S] [-only E4[,E7]] [-md] [-parallel]
//	       [-engine generic|flat|event] [-latency DIST]
//	       [-bench FILE] [-scale FILE]
//	       [-telemetry] [-spans FILE] [-flight FILE]
//	       [-http ADDR] [-cpuprofile FILE] [-memprofile FILE]
//
// -parallel fans both the experiments and their table cells across
// GOMAXPROCS workers; every cell derives its randomness from its own seed,
// so stdout is byte-identical to a serial run (timing goes to stderr).
// -engine=flat runs the cycle-based experiments on the struct-of-arrays
// kernel (internal/flat) under the experiment's daemon; -engine=event runs
// them on the same runner (internal/event) and also accepts -latency. The
// engines are bit-identical, so the tables do not change — only the wall
// clock does. -latency DIST (event engine only)
// switches to asynchronous message-latency scheduling with the named
// per-link distribution — const:K, uniform:LO-HI, or pareto:a=A,cap=C —
// replacing the daemon; telemetry steps and span timestamps are then in
// virtual time (see DESIGN.md §12).
// -bench additionally measures the simulation hot path and writes a JSON
// report (steps/sec, allocs/step) to the given file. -scale measures the
// large-N grid — N up to 10^6 on line/ring/grid/random topologies, generic
// vs event — and writes the BENCH_scale JSON report.
//
// -telemetry turns on the large-N observability layer (internal/telemetry):
// lock-free counters, wave-latency histograms, and the sampled time series,
// all published under /debug/vars and summarized on stderr at exit. -spans
// additionally writes the causal wave spans as Chrome trace_event JSON that
// loads in Perfetto (or chrome://tracing); -flight keeps the flight
// recorder running and dumps the last recorded window as a replayable
// pifhunt scenario. Both imply -telemetry. A Telemetry follows one run at a
// time, so all three require a serial run (no -parallel).
//
// -http serves live observability while the experiments run: the harness
// metrics at /debug/vars (expvar; see the "snappif" variable), a /healthz
// liveness endpoint, and the standard pprof profiles at /debug/pprof/; the
// registry also carries meta.* stamps (engine, seed, topology suite, start
// time) identifying the run. -cpuprofile and -memprofile write one-shot
// pprof profiles covering the whole run.
package main

import (
	"bytes"
	_ "expvar" // registers /debug/vars on the default mux
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"snappif/internal/event"
	"snappif/internal/exp"
	"snappif/internal/obs"
	"snappif/internal/telemetry"
	"snappif/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "pifexp:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) (err error) {
	fs := flag.NewFlagSet("pifexp", flag.ContinueOnError)
	var (
		quick    = fs.Bool("quick", false, "small topologies and few trials")
		trials   = fs.Int("trials", 0, "trials per table cell (0 = default)")
		seed     = fs.Int64("seed", 1, "random seed")
		only     = fs.String("only", "", "comma-separated experiment IDs (e.g. E1,E4)")
		markdown = fs.Bool("md", false, "emit tables as markdown")
		csvDir   = fs.String("csv", "", "also write each table as <dir>/<id>.csv")
		parallel = fs.Bool("parallel", false, "fan experiments and table cells across GOMAXPROCS workers (stdout identical to serial)")
		engine   = fs.String("engine", "generic", "simulation engine for the cycle-based experiments: generic, flat, or event (tables are byte-identical; flat runs the large-N SoA kernel under the daemon, event the same runner with optional -latency)")
		latency  = fs.String("latency", "", "event engine only: per-link latency distribution (const:K, uniform:LO-HI, pareto:a=A,cap=C); replaces the daemon with asynchronous virtual-time scheduling")
		bench    = fs.String("bench", "", "measure the simulation hot path and write a JSON report to this file")
		scale    = fs.String("scale", "", "measure the large-N scaling grid (generic vs event) and write a BENCH_scale JSON report to this file")
		telem    = fs.Bool("telemetry", false, "enable the aggregating telemetry layer (counters, wave histograms, sampled time series); published at /debug/vars, summarized on stderr; serial runs only")
		spansOut = fs.String("spans", "", "write causal wave spans as Chrome trace_event JSON (Perfetto-loadable) to this file; implies -telemetry, serial runs only")
		flightTo = fs.String("flight", "", "run the flight recorder and dump its last window as a replayable pifhunt scenario (JSON) to this file; implies -telemetry, serial runs only")
		httpAddr = fs.String("http", "", "serve /debug/vars, /healthz, and /debug/pprof on this address while running (e.g. localhost:6060)")
		cpuProf  = fs.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
		memProf  = fs.String("memprofile", "", "write a heap profile at the end of the run to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	var ids []string
	for _, e := range exp.All() {
		ids = append(ids, e.ID)
	}
	want := make(map[string]bool)
	for _, id := range strings.Split(*only, ",") {
		if id = strings.ToUpper(strings.TrimSpace(id)); id != "" {
			if !slices.Contains(ids, id) {
				return fmt.Errorf("-only: unknown experiment ID %q (valid IDs: %s)", id, strings.Join(ids, ", "))
			}
			want[id] = true
		}
	}

	if *cpuProf != "" {
		f, cerr := os.Create(*cpuProf)
		if cerr != nil {
			return cerr
		}
		// A profile written to a full disk is silently truncated unless the
		// close error reaches the exit code; the deferred close runs after
		// StopCPUProfile has flushed.
		defer func() {
			if cerr := f.Close(); cerr != nil && err == nil {
				err = fmt.Errorf("cpuprofile: %w", cerr)
			}
		}()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, ferr := os.Create(*memProf)
			if ferr != nil {
				if err == nil {
					err = fmt.Errorf("memprofile: %w", ferr)
				}
				return
			}
			runtime.GC()
			werr := pprof.WriteHeapProfile(f)
			cerr := f.Close()
			if err == nil && werr != nil {
				err = fmt.Errorf("memprofile: %w", werr)
			}
			if err == nil && cerr != nil {
				err = fmt.Errorf("memprofile: %w", cerr)
			}
		}()
	}
	if *latency != "" {
		if *engine != "event" {
			return fmt.Errorf("-latency requires -engine=event (got -engine=%s)", *engine)
		}
		if _, lerr := event.ParseLatency(*latency); lerr != nil {
			return lerr
		}
	}
	metrics := obs.NewRegistry()
	metrics.Publish("snappif")
	stampMeta(metrics, *engine, *latency, *seed, *quick)

	var tel *telemetry.Telemetry
	var vclock *event.VirtualClock
	if *telem || *spansOut != "" || *flightTo != "" {
		if *parallel {
			return fmt.Errorf("-telemetry, -spans and -flight follow one run at a time and need a serial run; drop -parallel")
		}
		//snapvet:ok telemetry clock base for span timestamps; timing fields are measurement output, not engine state
		base := time.Now()
		tcfg := telemetry.Config{
			// Monotonic-delta clock: durations survive wall-clock steps.
			//snapvet:ok monotonic telemetry clock; timing fields are measurement output, not engine state
			Clock: func() int64 { return int64(time.Since(base)) },
		}
		if *latency != "" {
			// Asynchronous event runs stamp spans in virtual time: the
			// runner publishes its tick counter through the shared clock, so
			// span durations are measured in ticks, not wall nanoseconds.
			vclock = new(event.VirtualClock)
			tcfg.Clock = vclock.Now
		}
		if *flightTo != "" {
			tcfg.FlightDepth = 8
		}
		tel = telemetry.New(tcfg)
		tel.PublishTo(metrics)
	}

	if *httpAddr != "" {
		// expvar and net/http/pprof register themselves on the default mux;
		// the server outlives run() only until main exits.
		serveHealthz(metrics)
		go func() {
			if err := http.ListenAndServe(*httpAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "pifexp: http:", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "pifexp: serving /debug/vars, /healthz, and /debug/pprof on %s\n", *httpAddr)
	}

	timings := &trace.Timings{}
	opt := exp.Options{
		Quick:     *quick,
		Trials:    *trials,
		Seed:      *seed,
		Parallel:  *parallel,
		Timings:   timings,
		Metrics:   metrics,
		Engine:    *engine,
		Latency:   *latency,
		VClock:    vclock,
		Telemetry: tel,
	}

	var selected []exp.Experiment
	for _, e := range exp.All() {
		if len(want) > 0 && !want[e.ID] {
			continue
		}
		selected = append(selected, e)
	}

	// Each experiment renders into its own buffer; buffers are flushed to
	// out in registry order, so stdout is identical whether the experiments
	// ran sequentially or concurrently. Wall-clock timing goes to stderr —
	// it is the one line that legitimately differs between the modes.
	type result struct {
		buf     bytes.Buffer
		elapsed time.Duration
		failed  bool
		err     error
	}
	results := make([]result, len(selected))
	runOne := func(i int) {
		e, r := selected[i], &results[i]
		//snapvet:ok experiment harness timing recorded in the artifact; never feeds engine state
		start := time.Now()
		o, err := e.Run(opt)
		//snapvet:ok experiment harness timing recorded in the artifact; never feeds engine state
		r.elapsed = time.Since(start)
		if err != nil {
			r.err = fmt.Errorf("%s: %w", e.ID, err)
			return
		}
		fmt.Fprintf(&r.buf, "=== %s — %s\n", e.ID, e.Paper)
		if *markdown {
			o.Table.Markdown(&r.buf)
		} else {
			o.Table.Render(&r.buf)
		}
		if *csvDir != "" {
			if err := writeCSV(*csvDir, e.ID, o.Table); err != nil {
				r.err = err
				return
			}
		}
		ok := o.BoundExceeded == 0 && o.SnapViolations == 0
		verdict := "REPRODUCED"
		if !ok {
			verdict = "FAILED"
			r.failed = true
		}
		fmt.Fprintf(&r.buf, "verdict: %s (bound exceeded: %d, snap violations: %d, baseline violations: %d)\n\n",
			verdict, o.BoundExceeded, o.SnapViolations, o.BaselineViolations)
	}
	if *parallel {
		workers := runtime.GOMAXPROCS(0)
		if workers > len(selected) {
			workers = len(selected)
		}
		idx := make(chan int)
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for i := range idx {
					runOne(i)
				}
			}()
		}
		for i := range selected {
			idx <- i
		}
		close(idx)
		wg.Wait()
	} else {
		for i := range selected {
			runOne(i)
		}
	}

	failures := 0
	for i := range results {
		if results[i].err != nil {
			return results[i].err
		}
		if _, err := io.Copy(out, &results[i].buf); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "pifexp: %s %.1fs\n", selected[i].ID, results[i].elapsed.Seconds())
		if results[i].failed {
			failures++
		}
	}
	if tel != nil {
		if err := finishTelemetry(tel, *spansOut, *flightTo); err != nil {
			return err
		}
	}
	if *bench != "" {
		if err := writeBench(*bench, timings); err != nil {
			return err
		}
	}
	if *scale != "" {
		if err := writeScale(*scale, *seed); err != nil {
			return err
		}
	}
	if failures > 0 {
		return fmt.Errorf("%d experiments failed", failures)
	}
	return nil
}

// stampMeta registers the run-identifying meta.* Text variables, so
// /debug/vars (and /healthz) answer "what is this process running" without
// grepping logs.
func stampMeta(reg *obs.Registry, engine, latency string, seed int64, quick bool) {
	suite := "full"
	if quick {
		suite = "quick"
	}
	stamp := func(name, value string) {
		t := new(obs.Text)
		t.Set(value)
		reg.Register(name, t)
	}
	stamp("meta.engine", engine)
	stamp("meta.latency", latency)
	stamp("meta.seed", fmt.Sprint(seed))
	stamp("meta.topology_suite", suite)
	stamp("meta.go", runtime.Version())
	//snapvet:ok run timestamp in the artifact metadata; never feeds engine state
	stamp("meta.started", time.Now().UTC().Format(time.RFC3339))
}

// healthz registration is once-guarded because run() is re-entered by tests
// and the default mux panics on duplicate patterns; the handler reads the
// latest registry through the atomic pointer so re-runs stay visible.
var (
	healthzOnce sync.Once
	healthzReg  atomic.Pointer[obs.Registry]
)

func serveHealthz(reg *obs.Registry) {
	healthzReg.Store(reg)
	healthzOnce.Do(func() {
		http.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
			reg := healthzReg.Load()
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprintf(w, "{\"status\":\"ok\",\"engine\":%s,\"seed\":%s,\"started\":%s}\n",
				reg.Text("meta.engine"),
				reg.Text("meta.seed"),
				reg.Text("meta.started"))
		})
	})
}

// finishTelemetry prints the end-of-run telemetry summary to stderr and
// writes the optional span/flight artifacts.
func finishTelemetry(tel *telemetry.Telemetry, spansPath, flightPath string) error {
	steps, moves := tel.Totals()
	waves, abn := tel.Waves()
	wr := tel.Hist("wave_rounds")
	fmt.Fprintf(os.Stderr,
		"pifexp: telemetry: %d steps, %d moves, %d waves (%d abnormal); wave rounds p50≤%d p95≤%d p99≤%d\n",
		steps, moves, waves, abn, wr.Quantile(0.50), wr.Quantile(0.95), wr.Quantile(0.99))
	if spansPath != "" {
		f, err := os.Create(spansPath)
		if err != nil {
			return err
		}
		if err := tel.WriteSpans(f); err != nil {
			f.Close()
			return fmt.Errorf("spans: %w", err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("spans: %w", err)
		}
		fmt.Fprintf(os.Stderr, "pifexp: wrote %d wave spans to %s (load in Perfetto or chrome://tracing)\n",
			len(tel.Spans()), spansPath)
	}
	if flightPath != "" {
		sc, err := tel.DumpScenario()
		if err != nil {
			return fmt.Errorf("flight: %w", err)
		}
		data, err := sc.Marshal()
		if err != nil {
			return fmt.Errorf("flight: %w", err)
		}
		if err := os.WriteFile(flightPath, data, 0o644); err != nil {
			return fmt.Errorf("flight: %w", err)
		}
		fmt.Fprintf(os.Stderr, "pifexp: flight recorder dumped %s (replay with: pifhunt replay -in %s)\n",
			flightPath, flightPath)
	}
	return nil
}

// writeCSV writes one experiment table to <dir>/<id>.csv.
func writeCSV(dir, id string, tbl *trace.Table) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, strings.ToLower(id)+".csv"))
	if err != nil {
		return err
	}
	if err := tbl.CSV(f); err != nil {
		f.Close()
		return err
	}
	// The close error is the write error on many filesystems; losing it
	// would report a truncated CSV as success.
	return f.Close()
}
