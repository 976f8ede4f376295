package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"snappif/internal/check"
	"snappif/internal/core"
	"snappif/internal/fault"
	"snappif/internal/graph"
	"snappif/internal/obs"
	"snappif/internal/sim"
)

// recordRun records one corrupted-start run to path and returns the result.
func recordRun(t *testing.T, path string, seed int64) sim.Result {
	t.Helper()
	g, err := graph.RandomConnected(10, 0.3, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	pr := core.MustNew(g, 0)
	cfg := sim.NewConfiguration(g, pr)
	fault.UniformRandom().Apply(cfg, pr, rand.New(rand.NewSource(5)))

	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.New(f, obs.WithProtocol(pr))
	tr.BeginRun(g, "dist-random-0.50", seed, cfg)
	cyc := check.NewCycleObserver(pr)
	res, err := sim.Run(cfg, pr, sim.DistributedRandom{P: 0.5}, sim.Options{
		Seed:      seed,
		Observers: []sim.Observer{cyc, tr},
		StopWhen:  cyc.StopAfterCycles(2),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return res
}

// TestDiffAcceptance is the PR's acceptance criterion: a recorded trace of a
// corrupted-start run replays bit-identically through `piftrace diff`
// against a live rerun, and a perturbed rerun is detected.
func TestDiffAcceptance(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "a.jsonl")
	b := filepath.Join(dir, "b.jsonl")
	c := filepath.Join(dir, "c.jsonl")
	recordRun(t, a, 11)
	recordRun(t, b, 11)
	recordRun(t, c, 12)

	var out bytes.Buffer
	if err := run([]string{"diff", a, b}, &out); err != nil {
		t.Fatalf("identical reruns diverge: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "equivalent") {
		t.Fatalf("diff output lacks verdict: %s", out.String())
	}

	out.Reset()
	if err := run([]string{"diff", a, c}, &out); err == nil {
		t.Fatalf("different seed not detected:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "diverge") {
		t.Fatalf("diff output lacks divergence report: %s", out.String())
	}
}

// TestCheckReplaysTrace replays the recorded schedule offline: invariants
// hold, totals match the summary, and the final state matches the snapshot.
func TestCheckReplaysTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	res := recordRun(t, path, 11)

	var out bytes.Buffer
	if err := run([]string{"check", path}, &out); err != nil {
		t.Fatalf("check failed: %v\n%s", err, out.String())
	}
	got := out.String()
	for _, want := range []string{
		"totals match the recorded summary",
		"final state matches the recorded snapshot bit for bit",
		"offline check OK",
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("check output lacks %q:\n%s", want, got)
		}
	}
	if res.Steps == 0 {
		t.Fatal("recorded run made no steps")
	}
}

// TestCheckDetectsTampering proves check is a real verifier: a truncated
// schedule fails the totals cross-check and a corrupted final snapshot
// fails the bit-for-bit state comparison.
func TestCheckDetectsTampering(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.jsonl")
	recordRun(t, path, 11)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(data), "\n")

	// Tamper 1: drop every step event after the fifth.
	var truncated []string
	steps := 0
	for _, l := range lines {
		if strings.HasPrefix(l, `{"t":"step",`) {
			steps++
			if steps > 5 {
				continue
			}
		}
		truncated = append(truncated, l)
	}
	if steps <= 5 {
		t.Fatalf("recorded run has only %d steps", steps)
	}
	bad := filepath.Join(dir, "truncated.jsonl")
	if err := os.WriteFile(bad, []byte(strings.Join(truncated, "\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"check", bad}, &out); err == nil {
		t.Fatalf("truncated trace passed the offline check:\n%s", out.String())
	} else if !strings.Contains(err.Error(), "totals diverge") {
		t.Fatalf("unexpected detection: %v", err)
	}

	// Tamper 2: corrupt the recorded final snapshot's count vector.
	corrupted := append([]string(nil), lines...)
	tampered := false
	for i, l := range corrupted {
		if !strings.HasPrefix(l, `{"t":"final",`) {
			continue
		}
		var snap map[string]any
		if err := json.Unmarshal([]byte(l), &snap); err != nil {
			t.Fatal(err)
		}
		count := snap["count"].([]any)
		count[0] = count[0].(float64) + 7
		fixed, err := json.Marshal(snap)
		if err != nil {
			t.Fatal(err)
		}
		corrupted[i] = string(fixed)
		tampered = true
		break
	}
	if !tampered {
		t.Fatal("no final snapshot in trace")
	}
	bad2 := filepath.Join(dir, "corrupted.jsonl")
	if err := os.WriteFile(bad2, []byte(strings.Join(corrupted, "\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := run([]string{"check", bad2}, &out); err == nil {
		t.Fatalf("corrupted final snapshot passed the offline check:\n%s", out.String())
	}
}

// TestSummaryAndTimeline smoke-tests the reporting subcommands on a real
// trace.
func TestSummaryAndTimeline(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	res := recordRun(t, path, 11)

	var out bytes.Buffer
	if err := run([]string{"summary", path}, &out); err != nil {
		t.Fatalf("summary: %v", err)
	}
	got := out.String()
	if !strings.Contains(got, "protocol:") || !strings.Contains(got, "totals:") {
		t.Fatalf("summary output incomplete:\n%s", got)
	}
	if !strings.Contains(got, "waves") {
		t.Fatalf("summary lacks the wave table:\n%s", got)
	}

	out.Reset()
	if err := run([]string{"timeline", path}, &out); err != nil {
		t.Fatalf("timeline: %v", err)
	}
	got = out.String()
	if !strings.Contains(got, "p0") || !strings.Contains(got, "p9") {
		t.Fatalf("timeline lacks processor rows:\n%s", got)
	}
	if !strings.Contains(got, "wave 1: rounds") {
		t.Fatalf("timeline lacks wave spans:\n%s", got)
	}
	// Each Gantt row samples one column per round.
	for _, line := range strings.Split(got, "\n") {
		if !strings.HasPrefix(line, "p0") {
			continue
		}
		row := strings.TrimSpace(strings.TrimPrefix(line, "p0"))
		if len(row) != res.Rounds {
			t.Fatalf("p0 row has %d columns, run had %d rounds:\n%s", len(row), res.Rounds, got)
		}
	}

	out.Reset()
	if err := run([]string{"timeline", "-every", "2", path}, &out); err != nil {
		t.Fatalf("timeline -every 2: %v", err)
	}

	// Without the meta header there is no root to pair waves against, but
	// the totals still print.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	_, rest, _ := strings.Cut(string(data), "\n")
	headless := filepath.Join(t.TempDir(), "headless.jsonl")
	if err := os.WriteFile(headless, []byte(rest), 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := run([]string{"summary", headless}, &out); err != nil {
		t.Fatalf("summary without a meta header: %v", err)
	}
	if got := out.String(); !strings.Contains(got, "totals:") || !strings.Contains(got, "no meta header") {
		t.Fatalf("headless summary lacks its totals or the wave note:\n%s", got)
	}

	// Three runs under one tracer: every wave names its run, and a wave a
	// run end cut is not reported as open at the end of the trace.
	segments := filepath.Join(t.TempDir(), "segments.jsonl")
	recordSegments(t, segments)
	out.Reset()
	if err := run([]string{"timeline", segments}, &out); err != nil {
		t.Fatalf("timeline of three runs: %v", err)
	}
	got = out.String()
	for _, want := range []string{
		"run 1 wave 3: rounds 57.. (cut by a run end or fault)",
		"run 2 wave 4: rounds 15..42 (28 rounds), steps 15..42",
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("timeline of three runs lacks %q:\n%s", want, got)
		}
	}
	if n := strings.Count(got, "open at end of trace"); n > 1 {
		t.Fatalf("%d waves reported open at the end of the trace:\n%s", n, got)
	}
	out.Reset()
	if err := run([]string{"summary", segments}, &out); err != nil {
		t.Fatalf("summary of three runs: %v", err)
	}
	header, wave4 := false, false
	for _, line := range strings.Split(out.String(), "\n") {
		f := strings.Fields(line)
		header = header || len(f) > 2 && f[0] == "run" && f[1] == "wave" && f[2] == "msg"
		wave4 = wave4 || len(f) > 1 && f[0] == "2" && f[1] == "4"
	}
	if !header || !wave4 {
		t.Fatalf("summary's wave table lacks the run column or wave 4's run 2:\n%s", out.String())
	}
}

// recordSegments records one ring-12 configuration driven by the
// synchronous daemon through three 70-step runs under one tracer, so waves
// are cut at the run boundaries and step and round numbers restart.
func recordSegments(t *testing.T, path string) {
	t.Helper()
	g, err := graph.Ring(12)
	if err != nil {
		t.Fatal(err)
	}
	pr := core.MustNew(g, 0)
	cfg := sim.NewConfiguration(g, pr)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.New(f, obs.WithProtocol(pr))
	d := sim.Synchronous{}
	for seed := int64(1); seed <= 3; seed++ {
		tr.BeginRun(g, d.Name(), seed, cfg)
		if _, err := sim.Run(cfg, pr, d, sim.Options{
			MaxSteps: 1000, Seed: seed, Observers: []sim.Observer{tr},
			StopWhen: func(rs *sim.RunState) bool { return rs.Steps >= 70 },
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestUsageErrors covers the CLI error paths.
func TestUsageErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run(nil, &out); err == nil {
		t.Fatal("no error on empty args")
	}
	if err := run([]string{"bogus"}, &out); err == nil {
		t.Fatal("no error on unknown subcommand")
	}
	if err := run([]string{"summary"}, &out); err == nil {
		t.Fatal("no error on missing file")
	}
	if err := run([]string{"diff", "only-one"}, &out); err == nil {
		t.Fatal("no error on diff with one file")
	}
	if err := run([]string{"summary", filepath.Join(t.TempDir(), "nope.jsonl")}, &out); err == nil {
		t.Fatal("no error on nonexistent file")
	}
}
