package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"snappif/internal/exp"
)

// minReps is the fewest repetitions a repeated workload makes, so the
// in-run determinism gate always has two runs of one seed to compare.
const minReps = 2

// Set-ups are timed in slices of at least setupSamples set-ups and at least
// setupSlice seconds of set-up work (at most maxSetups); setup_s is the
// median of every set-up a run times. Repeated workloads time a slice before
// every repetition, so that setup_s samples the host over the same span as
// the throughput, even where one set-up takes a millisecond. Each set-up
// starts from a collected heap: otherwise some of the millisecond set-ups
// would include a collection and others not.
const (
	setupSamples = 15
	setupSlice   = 0.25 // seconds
	maxSetups    = 1000
)

// moreSetups reports whether a slice should time another set-up, given the
// durations (seconds) of the set-ups it has timed so far.
func moreSetups(slice []float64) bool {
	var total float64
	for _, s := range slice {
		total += s
	}
	return len(slice) < maxSetups && (len(slice) < setupSamples || total < setupSlice)
}

// maxProblems caps the failed-check messages kept per run; the counts are
// always complete.
const maxProblems = 20

// runCtx collects one measurement phase of a workload: its checks, its
// metrics and, in a traced phase, its spans.
type runCtx struct {
	seed    int64
	seconds float64
	tr      *tracer // nil in an untraced phase

	ops, failedOps int64    // operations attempted and failed their output check
	problems       []string // every failed check, operations and gates alike
	dropped        int      // failed checks beyond maxProblems

	e2e   map[string]float64 // end-to-end metrics
	layer map[string]float64 // per-layer metrics
	exact map[string]string  // determinism-gated values, identical for one seed
	info  map[string]float64 // the workload's own figures, printed beside the metrics

	// unitCost is the measured wall time of one operation; the traced and
	// untraced phases' ratio is the tracing overhead.
	unitCost float64
}

func (r *runCtx) fail(format string, args ...any) {
	if len(r.problems) < maxProblems {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	} else if r.dropped++; r.dropped == 1 {
		r.problems = append(r.problems, "further failed checks omitted")
	}
}

// gateExact records one repetition's determinism-gated values and fails on
// any difference from the first repetition of the run.
func (r *runCtx) gateExact(rep int, vals map[string]string) {
	if rep == 0 {
		r.exact = vals
		return
	}
	if d := diffExact(r.exact, vals); d != "" {
		r.fail("determinism: repetition %d differs from repetition 0: %s", rep, d)
	}
}

// diffExact describes the first difference between two sets of
// determinism-gated values, or returns "".
func diffExact(a, b map[string]string) string {
	keys := make([]string, 0, len(a)+len(b))
	for k := range a {
		keys = append(keys, k)
	}
	for k := range b {
		if _, ok := a[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		if a[k] != b[k] {
			return fmt.Sprintf("%s: %q vs %q", k, a[k], b[k])
		}
	}
	return ""
}

// derive maps the workload seed and a stream number to an independent,
// positive, non-zero seed (splitmix64); the layers read 0 as "default seed".
func derive(seed int64, stream uint64) int64 {
	z := uint64(seed) + stream*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z>>1) | 1
}

// liveHeapMB collects garbage and returns the live Go heap in MiB. Callers
// keep the structures they want counted reachable across the call, and
// subtract a reading taken before they built them, so that the benchmark's
// own bookkeeping, which grows with the number of set-ups and repetitions a
// fast or slow host fits into the budget, stays out of mem_peak_mb.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// median returns the middle value (mean of the middle two for an even
// count) without reordering xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// provenance identifies what produced a result. A result is never written
// without every field: complete() enforces it.
type provenance struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	// Commit is the git revision (exp.VCSCommit), or "none" when the
	// sources are not a git checkout; SourceSHA256 then identifies them.
	Commit string `json:"commit"`
	// Tree is "clean", "dirty" or "unversioned".
	Tree         string         `json:"tree"`
	SourceSHA256 string         `json:"source_sha256"`
	Seed         int64          `json:"seed"`
	Params       map[string]any `json:"params"`
}

func stampProvenance(root string, seed int64, params map[string]any) (provenance, error) {
	p := provenance{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Seed:       seed,
		Params:     params,
	}
	// Ask git only about a git checkout: a copy of the sources nested in
	// some other repository must not borrow that repository's commit.
	p.Commit, p.Tree = "none", "unversioned"
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		commit, err := exp.VCSCommit()
		if err != nil {
			return p, fmt.Errorf("provenance: %w", err)
		}
		p.Commit, p.Tree = strings.TrimSuffix(commit, "+dirty"), "clean"
		if strings.HasSuffix(commit, "+dirty") {
			p.Tree = "dirty"
		}
	}
	sum, err := sourceDigest(root)
	if err != nil {
		return p, fmt.Errorf("provenance: %w", err)
	}
	p.SourceSHA256 = sum
	return p, nil
}

func (p provenance) complete() error {
	var missing []string
	for name, ok := range map[string]bool{
		"go_version":    p.GoVersion != "",
		"gomaxprocs":    p.GOMAXPROCS > 0,
		"num_cpu":       p.NumCPU > 0,
		"commit":        p.Commit != "",
		"tree":          p.Tree != "",
		"source_sha256": p.SourceSHA256 != "",
		"params":        len(p.Params) > 0,
	} {
		if !ok {
			missing = append(missing, name)
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return fmt.Errorf("provenance lacks %s", strings.Join(missing, ", "))
	}
	return nil
}

// sourceDigest hashes the module's sources — every .go, go.mod, go.sum and
// .sh file and BENCHMARK.json, by path and content, skipping dot
// directories — so a result names the exact tree it measured even where no
// commit exists.
func sourceDigest(root string) (string, error) {
	var paths []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && strings.HasPrefix(name, ".") {
				return filepath.SkipDir
			}
			return nil
		}
		switch {
		case strings.HasSuffix(name, ".go"), strings.HasSuffix(name, ".sh"),
			name == "go.mod", name == "go.sum", name == "BENCHMARK.json":
			paths = append(paths, path)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return "", err
		}
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(rel), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// gateDeterminism compares this run's determinism-gated values with the
// ones stored by an earlier run of the same workload, seed and sources, and
// stores them when there are none. It returns a failed-check message on a
// mismatch.
func gateDeterminism(out, name string, seed int64, prov provenance, exact map[string]string) (string, error) {
	type record struct {
		SourceSHA256 string            `json:"source_sha256"`
		Exact        map[string]string `json:"exact"`
	}
	path := filepath.Join(out, "determinism", fmt.Sprintf("%s-seed%d.json", name, seed))
	if raw, err := os.ReadFile(path); err == nil {
		var prev record
		if err := json.Unmarshal(raw, &prev); err == nil && prev.SourceSHA256 == prov.SourceSHA256 {
			if d := diffExact(prev.Exact, exact); d != "" {
				return "determinism: differs from an earlier run of the same seed and sources: " + d, nil
			}
			return "", nil
		}
	}
	tmp := path + ".tmp"
	if err := writeJSON(tmp, record{prov.SourceSHA256, exact}); err != nil {
		return "", err
	}
	return "", os.Rename(tmp, path)
}

// runHoldout runs the same workload on a held-out seed in a child process
// of this binary and returns its result line; the child's own checks must
// pass.
func runHoldout(name string, seed int64, secs float64, root, out string) (*resultLine, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "--workload", name, "--seed", fmt.Sprint(seed),
		"--seconds", fmt.Sprint(secs), "--trace", "0", "--root", root, "--out", out)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var line resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		return nil, fmt.Errorf("no result line (exit: %v)", runErr)
	}
	if runErr != nil || !line.Correct {
		return &line, fmt.Errorf("checks failed (exit: %v)", runErr)
	}
	return &line, nil
}
