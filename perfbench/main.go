// Command perfbench is the repository benchmark. It drives the snappif layers
// from outside, timing calls into their public entry points, on one workload
// per run:
//
//	serve    open-loop PIF requests through internal/service (event engine)
//	scale    consecutive PIF waves on a 100,000-processor graph, event runner
//	         under the synchronous daemon
//	certify  exhaustive safety exploration plus a liveness certificate
//	         (internal/explore)
//
// Every run checks every output, stamps provenance, writes a result file under
// --out and prints one JSON object as the last line of standard output: the
// end-to-end metrics of BENCHMARK.json with --trace 0, the per-layer metrics
// with --trace 1. Build and run it through run.sh from the repository root:
//
//	bash perfbench/run.sh --workload serve --seed 1 --seconds 15 --trace 0
//
// README.md in this directory says why each workload and metric was chosen.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// metricDef is one metric of BENCHMARK.json: its name and unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics every untraced run reports, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"mem_peak_mb", "MB"},
	{"ops_per_s", "1/s"},
}

// perLayer are the metrics every traced run reports. A workload reports 0
// for a layer it never calls.
var perLayer = []metricDef{
	{"graph.build_s", "s"},
	{"flat.kernel_s", "s"},
	{"event.new_runner_s", "s"},
	{"event.step_ns_p50", "ns"},
	{"event.step_ns_p99", "ns"},
	{"event.moves_per_s", "1/s"},
	{"event.moves_per_step", "count"},
	{"event.steps_per_wave", "count"},
	{"service.generate_s", "s"},
	{"service.new_s", "s"},
	{"service.run_s", "s"},
	{"service.ns_per_tick", "ns"},
	{"service.ticks_per_req", "ticks"},
	{"service.p50_ticks", "ticks"},
	{"service.p99_ticks", "ticks"},
	{"service.queue_wait_ticks_p50", "ticks"},
	{"service.queue_wait_ticks_p99", "ticks"},
	{"service.inflight_ticks_p50", "ticks"},
	{"service.inflight_ticks_p99", "ticks"},
	{"service.req_wall_ms_p50", "ms"},
	{"service.req_wall_ms_p99", "ms"},
	{"service.aborts", "count"},
	{"service.residue", "count"},
	{"explore.setup_s", "s"},
	{"explore.run_s", "s"},
	{"explore.liveness_s", "s"},
	{"explore.states", "count"},
	{"explore.transitions", "count"},
	{"explore.liveness_states", "count"},
	{"explore.states_per_s", "1/s"},
	{"explore.por_saved_frac", "ratio"},
	{"trace.overhead_frac", "ratio"},
	{"trace.span_coverage_frac", "ratio"},
}

// workload is one benchmark workload: its fixed parameters, the number of
// threads it may use, and the function that sets it up, measures it for a
// time budget and checks its outputs.
type workload struct {
	name    string
	threads int
	params  map[string]any
	run     func(r *runCtx) error
}

var workloads = []*workload{serveWorkload, scaleWorkload, certifyWorkload}

func workloadByName(name string) (*workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultFile is the full record written under --out/results.
type resultFile struct {
	Workload    string             `json:"workload"`
	Seed        int64              `json:"seed"`
	Seconds     float64            `json:"seconds"`
	Traced      bool               `json:"traced"`
	Provenance  provenance         `json:"provenance"`
	Params      map[string]any     `json:"params"`
	Attempted   int64              `json:"attempted"`
	Failed      int64              `json:"failed"`
	FailedFrac  float64            `json:"failed_frac"`
	Problems    []string           `json:"problems,omitempty"`
	EndToEnd    map[string]float64 `json:"end_to_end,omitempty"`
	PerLayer    map[string]float64 `json:"per_layer,omitempty"`
	Exact       map[string]string  `json:"exact"`
	Info        map[string]float64 `json:"info"`
	SelfTime    []selfTimeRow      `json:"self_time,omitempty"`
	SpansFile   string             `json:"spans_file,omitempty"`
	Holdout     *resultLine        `json:"holdout,omitempty"`
	HoldoutSeed int64              `json:"holdout_seed,omitempty"`
}

func main() {
	os.Exit(mainErr())
}

func mainErr() int {
	var (
		name    = flag.String("workload", "", "workload to run: serve, scale, certify, or all of them in turn")
		seed    = flag.Int64("seed", 1, "seed every generated input derives from")
		seconds = flag.Float64("seconds", 15, "measurement budget in seconds")
		trace   = flag.Int("trace", 0, "1 brackets a traced phase between two untraced half-length phases and reports per-layer metrics")
		root    = flag.String("root", ".", "repository root (holds BENCHMARK.json and the module sources)")
		out     = flag.String("out", ".bench_build", "directory for result, determinism and trace files")
		holdout = flag.Int64("holdout", 0, "when non-zero, also run this held-out seed in a child process and report it beside the main seed")
	)
	flag.Parse()
	names := []string{*name}
	if *name == "all" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	status := 0
	for _, n := range names {
		if err := run(n, *seed, *seconds, *trace, *root, *out, *holdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			status = 1
		}
	}
	return status
}

// errChecksFailed marks a run that completed and printed its result but
// failed an output, determinism or provenance check.
var errChecksFailed = errors.New("output checks failed")

func run(name string, seed int64, seconds float64, trace int, root, out string, holdoutSeed int64) error {
	w, err := workloadByName(name)
	if err != nil {
		return err
	}
	if seconds <= 0 || seconds > 120 {
		return fmt.Errorf("--seconds %g out of range (0, 120]", seconds)
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace %d: want 0 or 1", trace)
	}
	if err := checkSpec(filepath.Join(root, "BENCHMARK.json")); err != nil {
		return err
	}
	if w.threads > runtime.NumCPU() {
		return fmt.Errorf("workload %s wants %d threads but only %d CPUs are available", name, w.threads, runtime.NumCPU())
	}
	runtime.GOMAXPROCS(w.threads)
	prov, err := stampProvenance(root, seed, w.params)
	if err != nil {
		return err
	}

	res := &resultFile{
		Workload: name, Seed: seed, Seconds: seconds, Traced: trace == 1,
		Provenance: prov, Params: w.params,
	}
	var ops, failed int64
	phase := func(secs float64, tr *tracer) (*runCtx, error) {
		r := &runCtx{seed: seed, seconds: secs, tr: tr}
		if err := w.run(r); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		res.Problems = append(res.Problems, r.problems...)
		ops += r.ops
		failed += r.failedOps
		return r, nil
	}
	line := resultLine{Metrics: map[string]metricValue{}}
	var plain *runCtx
	if trace == 0 {
		if plain, err = phase(seconds, nil); err != nil {
			return err
		}
		res.EndToEnd = map[string]float64{}
		for _, m := range endToEnd {
			v, ok := plain.e2e[m.name]
			if !ok || v <= 0 {
				res.Problems = append(res.Problems, fmt.Sprintf("end-to-end metric %s missing or not positive (%g)", m.name, v))
			}
			res.EndToEnd[m.name] = v
			line.Metrics[m.name] = metricValue{v, m.unit}
		}
	} else {
		// The traced phase sits between two untraced half-length phases,
		// so a drift of the host's speed during the run cancels out of the
		// tracing overhead.
		tr := newTracer()
		var traced, after *runCtx
		if plain, err = phase(seconds/2, nil); err == nil {
			if traced, err = phase(seconds, tr); err == nil {
				after, err = phase(seconds/2, nil)
			}
		}
		if err != nil {
			return err
		}
		for _, other := range []*runCtx{traced, after} {
			if d := diffExact(plain.exact, other.exact); d != "" {
				res.Problems = append(res.Problems, "determinism: traced and untraced phases differ: "+d)
			}
		}
		traced.layer["trace.overhead_frac"] = traced.unitCost/((plain.unitCost+after.unitCost)/2) - 1
		traced.layer["trace.span_coverage_frac"] = tr.coverage()
		res.SelfTime = tr.selfTimes()
		res.PerLayer = map[string]float64{}
		for _, m := range perLayer {
			v := traced.layer[m.name] // 0 for a layer this workload never calls
			res.PerLayer[m.name] = v
			line.Metrics[m.name] = metricValue{v, m.unit}
		}
		spans := filepath.Join(out, "trace", fmt.Sprintf("%s-seed%d.spans.json", name, seed))
		if err := tr.write(spans); err != nil {
			return err
		}
		res.SpansFile = spans
		printSelfTimes(name, res.SelfTime, traced.layer["trace.span_coverage_frac"], traced.layer["trace.overhead_frac"])
	}
	res.Exact, res.Info = plain.exact, plain.info

	if msg, err := gateDeterminism(out, name, seed, prov, plain.exact); err != nil {
		return err
	} else if msg != "" {
		res.Problems = append(res.Problems, msg)
	}
	if holdoutSeed != 0 {
		h, err := runHoldout(name, holdoutSeed, seconds, root, out)
		if err != nil {
			res.Problems = append(res.Problems, fmt.Sprintf("holdout seed %d: %v", holdoutSeed, err))
		}
		res.Holdout, res.HoldoutSeed = h, holdoutSeed
	}

	res.Attempted, res.Failed = ops, failed
	if ops == 0 {
		res.Problems = append(res.Problems, "no operation was attempted")
	} else {
		res.FailedFrac = float64(failed) / float64(ops)
	}
	line.Correct = len(res.Problems) == 0 && failed == 0
	line.Attempted, line.Failed = ops, failed
	if err := prov.complete(); err != nil {
		return fmt.Errorf("refusing to write a result: %w", err)
	}
	if err := writeJSON(filepath.Join(out, "results", fmt.Sprintf("%s-seed%d-trace%d.json", name, seed, trace)), res); err != nil {
		return err
	}

	printReport(res, line)
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	if !line.Correct {
		return errChecksFailed
	}
	return nil
}

// checkSpec fails when BENCHMARK.json and the metric tables above disagree,
// so the names and units printed are always the ones the spec declares.
func checkSpec(path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("reading the benchmark spec: %w", err)
	}
	type specMetric struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	var spec struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []specMetric `json:"end_to_end"`
		PerLayer []specMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	same := func(kind string, got []specMetric, want []metricDef) error {
		if len(got) != len(want) {
			return fmt.Errorf("%s: %d %s metrics, the benchmark reports %d", path, len(got), kind, len(want))
		}
		for i, m := range want {
			if got[i].Name != m.name || got[i].Unit != m.unit {
				return fmt.Errorf("%s: %s metric %d is %s [%s], the benchmark reports %s [%s]", path, kind, i, got[i].Name, got[i].Unit, m.name, m.unit)
			}
		}
		return nil
	}
	if err := same("end_to_end", spec.EndToEnd, endToEnd); err != nil {
		return err
	}
	if err := same("per_layer", spec.PerLayer, perLayer); err != nil {
		return err
	}
	if len(spec.Workloads) != len(workloads) {
		return fmt.Errorf("%s lists %d workloads, the benchmark has %d", path, len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			return fmt.Errorf("%s: workload %d is %q, the benchmark has %q", path, i, spec.Workloads[i].Name, w.name)
		}
	}
	return nil
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// printReport prints the human-readable summary that precedes the result
// line: every reported metric by name with its unit, the workload's own
// figures, and any failed check.
func printReport(res *resultFile, line resultLine) {
	p := res.Provenance
	fmt.Printf("perfbench %s seed=%d seconds=%g traced=%v\n", res.Workload, res.Seed, res.Seconds, res.Traced)
	fmt.Printf("  provenance: %s %s, go %s, GOMAXPROCS=%d, NumCPU=%d, source sha256 %.16s\n",
		p.Commit, p.Tree, p.GoVersion, p.GOMAXPROCS, p.NumCPU, p.SourceSHA256)
	names := make([]string, 0, len(line.Metrics))
	for n := range line.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := line.Metrics[n]
		fmt.Printf("  %-30s %16.6g %s\n", n, m.Value, m.Unit)
	}
	info := make([]string, 0, len(res.Info))
	for n := range res.Info {
		info = append(info, n)
	}
	sort.Strings(info)
	for _, n := range info {
		fmt.Printf("  (%s) %-24s %16.6g\n", res.Workload, n, res.Info[n])
	}
	if h := res.Holdout; h != nil {
		fmt.Printf("  held-out seed %d beside seed %d (correct=%v attempted=%d failed=%d):\n", res.HoldoutSeed, res.Seed, h.Correct, h.Attempted, h.Failed)
		for _, m := range endToEnd {
			fmt.Printf("    %-28s %16.6g %16.6g %s\n", m.name, res.EndToEnd[m.name], h.Metrics[m.name].Value, m.unit)
		}
	}
	fmt.Printf("  attempted=%d failed=%d failed_frac=%g\n", res.Attempted, res.Failed, res.FailedFrac)
	for _, pr := range res.Problems {
		fmt.Printf("  CHECK FAILED: %s\n", pr)
	}
}
