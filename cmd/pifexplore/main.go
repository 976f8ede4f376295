// Command pifexplore performs bounded exhaustive schedule exploration of
// the real simulation engines: every daemon schedule from every chosen
// initial configuration, up to symmetry and partial-order reduction, with
// any violation exported as a scenario that pifhunt replays bit for bit.
// See DESIGN.md §10.
//
// Usage:
//
//	pifexplore run     -topo line:3 [-root R] [-engine sim|flat|event]
//	                   [-power central|distributed|synchronous]
//	                   [-init clean|faults:K|domain] [-depth D] [-workers W]
//	                   [-por=false] [-symmetry=false] [-plant NAME]
//	                   [-max-states N] [-expect-states N] [-json FILE]
//	                   [-scenario FILE] [-seeds DIR]
//	pifexplore certify [-json FILE]
//
// `run` explores one instance and exits 1 on any violation (the emitted
// -scenario artifact replays under `pifhunt replay`). -expect-states
// asserts the deterministic state count, which is how CI pins run-to-run
// stability. `certify` runs the standard certification tables — the safety
// rows plus the round-bound liveness rows (Theorem 1's 3·Lmax+3 and
// Theorem 4's 5h+5, certified over every central schedule) — and writes
// both into explore.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"

	"snappif/internal/explore"
	"snappif/internal/graph"
)

func main() {
	err := run(os.Args[1:], os.Stdout)
	switch {
	case err == errViolation:
		os.Exit(1)
	case err != nil:
		fmt.Fprintln(os.Stderr, "pifexplore:", err)
		os.Exit(2)
	}
}

// errViolation distinguishes "exploration worked and found a violation"
// (exit 1) from operational errors (exit 2).
var errViolation = fmt.Errorf("violation found")

func run(args []string, out io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: pifexplore <run|certify> [flags]")
	}
	switch args[0] {
	case "run":
		return runOne(args[1:], out)
	case "certify":
		return runCertify(args[1:], out)
	}
	return fmt.Errorf("unknown subcommand %q (want run or certify)", args[0])
}

func runOne(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("pifexplore run", flag.ContinueOnError)
	var (
		topo      = fs.String("topo", "line:3", "topology (line:N, ring:N, star:N, complete:N, grid:RxC)")
		root      = fs.Int("root", 0, "PIF initiator")
		engine    = fs.String("engine", "sim", "engine under test (sim, flat or event)")
		power     = fs.String("power", "central", "daemon power (central, distributed, synchronous)")
		initMode  = fs.String("init", "faults:3", "initial states (clean, faults:K, domain)")
		depth     = fs.Int("depth", 0, "BFS layer bound (0 = run to closure)")
		workers   = fs.Int("workers", 0, "expansion workers (0 = GOMAXPROCS)")
		por       = fs.Bool("por", true, "sleep-set partial-order reduction (central daemon)")
		symmetry  = fs.Bool("symmetry", true, "canonicalize under admissible automorphisms")
		plant     = fs.String("plant", "", "test-only planted protocol bug")
		maxStates = fs.Int("max-states", 0, "abort beyond this many states (0 = 1e6)")
		expect    = fs.Int("expect-states", -1, "fail unless exactly this many states explored (CI determinism gate)")
		jsonPath  = fs.String("json", "", "write the machine-readable result here")
		scenPath  = fs.String("scenario", "", "write a violating schedule as a pifhunt scenario here")
		seedsDir  = fs.String("seeds", "", "write frontier states as pifhunt seed scenarios into this directory")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	g, err := graph.Parse(*topo)
	if err != nil {
		return err
	}
	res, e, err := exploreOnce(g, *root, explore.Options{
		Engine:    *engine,
		Power:     *power,
		Depth:     *depth,
		Workers:   *workers,
		POR:       *por,
		Symmetry:  *symmetry,
		Plant:     *plant,
		MaxStates: *maxStates,
	}, *initMode)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, renderRow(res))
	if *jsonPath != "" {
		if err := writeJSON(*jsonPath, res); err != nil {
			return err
		}
	}
	if *seedsDir != "" {
		seeds, err := e.FrontierSeeds("frontier-"+g.Name(), "central-random", 0)
		if err != nil {
			return err
		}
		for _, sc := range seeds {
			if err := writeJSON(filepath.Join(*seedsDir, sc.Name+".json"), sc); err != nil {
				return err
			}
		}
		fmt.Fprintf(out, "pifexplore: %d frontier seeds written to %s\n", len(seeds), *seedsDir)
	}
	if res.Verdict == "violation" {
		fmt.Fprintf(out, "pifexplore: VIOLATION %s\n", res.Violation)
		if *scenPath != "" {
			sc, err := e.Scenario("explore-" + g.Name())
			if err != nil {
				return err
			}
			if err := writeJSON(*scenPath, sc); err != nil {
				return err
			}
			fmt.Fprintf(out, "pifexplore: replay with: pifhunt replay -in %s\n", *scenPath)
		}
		return errViolation
	}
	if *expect >= 0 && res.States != *expect {
		return fmt.Errorf("explored %d states, expected exactly %d", res.States, *expect)
	}
	return nil
}

// certRow is one line of the standard certification table.
type certRow struct {
	topo    string
	root    int
	opts    explore.Options
	init    string
	expect  string // expected verdict
	comment string
}

// certTable is the EXPERIMENTS.md certification matrix: the acceptance
// topologies under the central daemon from fault-injected starts, the flat
// engine cross-check, the stronger daemon powers, the planted-bug detection
// row, and the full-domain certificate on the 3-line (every initial
// configuration the specification quantifies over).
func certTable() []certRow {
	return []certRow{
		{"line:3", 0, explore.Options{POR: true, Symmetry: true}, "faults:3", "certified", "central sim"},
		{"ring:3", 0, explore.Options{POR: true, Symmetry: true}, "faults:3", "certified", "central sim"},
		{"star:4", 0, explore.Options{POR: true, Symmetry: true}, "faults:3", "certified", "central sim"},
		{"star:4", 0, explore.Options{Engine: "flat", POR: true}, "faults:3", "certified", "flat engine cross-check"},
		{"line:3", 0, explore.Options{Power: explore.PowerSynchronous}, "faults:3", "certified", "synchronous"},
		{"ring:3", 0, explore.Options{Power: explore.PowerDistributed}, "faults:2", "certified", "distributed subsets"},
		{"line:3", 0, explore.Options{Plant: "level-overflow", POR: true}, "clean", "violation", "planted bug detected"},
		{"line:3", 0, explore.Options{POR: true, Symmetry: true}, "domain", "certified", "every initial configuration"},
	}
}

// liveRow is one line of the liveness certification table.
type liveRow struct {
	topo string
	root int
	opts explore.LivenessOptions
	init string
}

// livenessTable is the round-bound (liveness) certification matrix: the
// Theorem-4 cycle bound from the clean start and the Theorem-1
// normal-configuration bound from corrupted starts, on ≥5-processor
// non-star topologies, plus the flat/event engine cross-checks. Every row
// expects "certified".
func livenessTable() []liveRow {
	return []liveRow{
		{"line:5", 0, explore.LivenessOptions{Target: explore.TargetCycle}, "clean"},
		{"ring:5", 0, explore.LivenessOptions{Target: explore.TargetCycle}, "clean"},
		{"grid:2x3", 0, explore.LivenessOptions{Target: explore.TargetCycle}, "clean"},
		{"line:5", 0, explore.LivenessOptions{Target: explore.TargetCycle, Engine: "flat"}, "clean"},
		{"line:5", 0, explore.LivenessOptions{Target: explore.TargetCycle, Engine: "event"}, "clean"},
		{"line:5", 0, explore.LivenessOptions{Target: explore.TargetNormal}, "faults:2"},
		{"ring:5", 0, explore.LivenessOptions{Target: explore.TargetNormal}, "faults:2"},
	}
}

// certArtifact is the explore.json layout: the safety rows (reachable-state
// certification) and the liveness rows (round-bound certification).
type certArtifact struct {
	Safety   []*explore.Result         `json:"safety"`
	Liveness []*explore.LivenessResult `json:"liveness"`
}

func runCertify(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("pifexplore certify", flag.ContinueOnError)
	jsonPath := fs.String("json", "explore.json", "write the machine-readable results here ('' = skip)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	fmt.Fprintln(out, tableHeader())
	var art certArtifact
	bad := 0
	for _, row := range certTable() {
		g, err := graph.Parse(row.topo)
		if err != nil {
			return err
		}
		res, _, err := exploreOnce(g, row.root, row.opts, row.init)
		if err != nil {
			return err
		}
		art.Safety = append(art.Safety, res)
		line := renderRow(res)
		if res.Verdict != row.expect {
			bad++
			line += fmt.Sprintf("   << want %s", row.expect)
		}
		fmt.Fprintln(out, line)
	}
	fmt.Fprintln(out, "\n"+livenessHeader())
	for _, row := range livenessTable() {
		g, err := graph.Parse(row.topo)
		if err != nil {
			return err
		}
		inits, err := explore.Inits(row.init, g, row.root, row.opts.CoreOptions)
		if err != nil {
			return err
		}
		res, err := explore.CertifyLiveness(g, row.root, inits, row.opts)
		if err != nil {
			return err
		}
		res.InitMode = row.init
		art.Liveness = append(art.Liveness, res)
		line := renderLivenessRow(res)
		if res.Verdict != "certified" {
			bad++
			line += "   << want certified"
		}
		fmt.Fprintln(out, line)
	}
	if *jsonPath != "" {
		if err := writeJSON(*jsonPath, art); err != nil {
			return err
		}
		fmt.Fprintf(out, "pifexplore: results written to %s\n", *jsonPath)
	}
	if bad > 0 {
		fmt.Fprintf(out, "pifexplore: %d row(s) off their expected verdict\n", bad)
		return errViolation
	}
	fmt.Fprintln(out, "pifexplore: all rows match their expected verdicts")
	return nil
}

// exploreOnce builds the initial vectors and runs one exploration.
func exploreOnce(g *graph.Graph, root int, opts explore.Options, initMode string) (*explore.Result, *explore.Explorer, error) {
	inits, err := explore.Inits(initMode, g, root, opts.CoreOptions)
	if err != nil {
		return nil, nil, err
	}
	e, err := explore.New(g, root, opts)
	if err != nil {
		return nil, nil, err
	}
	res, err := e.Run(inits)
	if err != nil {
		return nil, nil, err
	}
	res.InitMode = initMode
	return res, e, nil
}

// tableHeader returns the certification table's markdown header.
func tableHeader() string {
	return "| topology | engine | power | init | depth | states | transitions | POR saved | autos | verdict |\n" +
		"|---|---|---|---|---|---|---|---|---|---|"
}

// livenessHeader returns the liveness table's markdown header.
func livenessHeader() string {
	return "| topology | engine | target | init | bound | worst | product states | transitions | verdict |\n" +
		"|---|---|---|---|---|---|---|---|---|"
}

// renderLivenessRow renders one LivenessResult as a markdown table row.
func renderLivenessRow(r *explore.LivenessResult) string {
	return fmt.Sprintf("| %s | %s | %s | %s | %d | %d | %d | %d | %s |",
		r.Topology, r.Engine, r.Target, r.InitMode,
		r.Bound, r.WorstRounds, r.ProductStates, r.Transitions, r.Verdict)
}

// renderRow renders one Result as a markdown table row.
func renderRow(r *explore.Result) string {
	depth := "closure"
	if r.Depth > 0 {
		depth = strconv.Itoa(r.Depth)
	}
	verdict := r.Verdict
	if r.Plant != "" {
		verdict += " (plant " + r.Plant + ")"
	}
	return fmt.Sprintf("| %s | %s | %s | %s | %s | %d | %d | %.1f%% | %d | %s |",
		r.Topology, r.Engine, r.Power, r.InitMode, depth,
		r.States, r.Transitions, r.PORSavingsPct, r.SymmetryAutos, verdict)
}

// writeJSON writes v as indented JSON, creating parent directories.
func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
