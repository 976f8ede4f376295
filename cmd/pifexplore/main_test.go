package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"snappif/internal/explore"
	"snappif/internal/graph"
	"snappif/internal/hunt"
)

func TestRunCertifiesLine3(t *testing.T) {
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "explore.json")
	var out bytes.Buffer
	err := run([]string{"run", "-topo", "line:3", "-init", "faults:3",
		"-expect-states", "209", "-json", jsonPath}, &out)
	if err != nil {
		t.Fatalf("run failed: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "certified") {
		t.Fatalf("missing certified verdict:\n%s", out.String())
	}
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var res explore.Result
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatal(err)
	}
	if res.States != 209 || res.Verdict != "certified" || res.InitMode != "faults:3" {
		t.Fatalf("unexpected result artifact: %+v", res)
	}
}

func TestRunExpectStatesGate(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"run", "-topo", "line:3", "-init", "faults:3",
		"-expect-states", "1"}, &out)
	if err == nil || !strings.Contains(err.Error(), "expected exactly 1") {
		t.Fatalf("determinism gate did not trip: %v", err)
	}
}

func TestRunPlantedBugExportsReplayableScenario(t *testing.T) {
	dir := t.TempDir()
	scenPath := filepath.Join(dir, "viol.json")
	var out bytes.Buffer
	err := run([]string{"run", "-topo", "line:3", "-init", "clean",
		"-plant", "level-overflow", "-scenario", scenPath}, &out)
	if !errors.Is(err, errViolation) {
		t.Fatalf("want errViolation, got %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "VIOLATION") {
		t.Fatalf("no violation reported:\n%s", out.String())
	}
	data, err := os.ReadFile(scenPath)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := hunt.Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sc.Run(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) == 0 || rep.Violations[0].Check != "domains" {
		t.Fatalf("exported scenario did not reproduce the domains violation: %+v", rep.Violations)
	}
}

func TestRunFrontierSeedsArtifact(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	err := run([]string{"run", "-topo", "line:3", "-init", "clean",
		"-depth", "1", "-seeds", dir}, &out)
	if err != nil {
		t.Fatalf("run failed: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "bounded") {
		t.Fatalf("depth-bounded run not reported bounded:\n%s", out.String())
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("no frontier seeds written")
	}
	data, err := os.ReadFile(filepath.Join(dir, entries[0].Name()))
	if err != nil {
		t.Fatal(err)
	}
	sc, err := hunt.Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sc.Run(nil, nil); err != nil {
		t.Fatalf("frontier seed does not run: %v", err)
	}
}

// TestCertifyRewritesArtifact runs the full certification table and checks
// that it rewrites the committed explore.json byte for byte: every state
// count, fingerprint and round bound in the artifact is reproducible.
func TestCertifyRewritesArtifact(t *testing.T) {
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "explore.json")
	var out bytes.Buffer
	if err := run([]string{"certify", "-json", jsonPath}, &out); err != nil {
		t.Fatalf("certify failed: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "all rows match") {
		t.Fatalf("missing success verdict:\n%s", out.String())
	}
	// The planted row must certify as an expected violation, not a failure.
	if !strings.Contains(out.String(), "violation (plant level-overflow)") {
		t.Fatalf("planted row missing:\n%s", out.String())
	}
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var art certArtifact
	if err := json.Unmarshal(data, &art); err != nil {
		t.Fatal(err)
	}
	if len(art.Safety) != len(certTable()) {
		t.Fatalf("artifact has %d safety rows, want %d", len(art.Safety), len(certTable()))
	}
	if len(art.Liveness) != len(livenessTable()) {
		t.Fatalf("artifact has %d liveness rows, want %d", len(art.Liveness), len(livenessTable()))
	}
	for _, r := range art.Liveness {
		if r.Verdict != "certified" || r.WorstRounds > r.Bound {
			t.Fatalf("liveness row off its bound: %+v", r)
		}
	}
	committed, err := os.ReadFile(filepath.Join("..", "..", "explore.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, committed) {
		t.Fatal("certify wrote an explore.json that differs from the committed artifact; rerun `go run ./cmd/pifexplore certify` and inspect the diff")
	}
}

func TestParseTopo(t *testing.T) {
	for _, tc := range []struct {
		spec string
		n    int
	}{
		{"line:5", 5}, {"ring:6", 6}, {"star:7", 7}, {"complete:4", 4}, {"grid:2x3", 6},
	} {
		g, err := graph.Parse(tc.spec)
		if err != nil {
			t.Fatalf("graph.Parse(%q): %v", tc.spec, err)
		}
		if g.N() != tc.n {
			t.Fatalf("graph.Parse(%q).N() = %d, want %d", tc.spec, g.N(), tc.n)
		}
	}
	for _, bad := range []string{"", "grid", "grid:2", "blob:4", "line:x", "grid:axb"} {
		if _, err := graph.Parse(bad); err == nil {
			t.Fatalf("graph.Parse(%q) accepted", bad)
		}
	}
}

func TestBadUsage(t *testing.T) {
	var out bytes.Buffer
	if err := run(nil, &out); err == nil {
		t.Fatal("no args accepted")
	}
	if err := run([]string{"nope"}, &out); err == nil {
		t.Fatal("unknown subcommand accepted")
	}
	if err := run([]string{"run", "-topo", "bogus"}, &out); err == nil {
		t.Fatal("bogus topology accepted")
	}
	if err := run([]string{"run", "-init", "bogus"}, &out); err == nil {
		t.Fatal("bogus init mode accepted")
	}
	if err := run([]string{"run", "-engine", "bogus"}, &out); err == nil {
		t.Fatal("bogus engine accepted")
	}
	if err := run([]string{"run", "-power", "bogus"}, &out); err == nil {
		t.Fatal("bogus power accepted")
	}
	if err := run([]string{"run", "-plant", "bogus"}, &out); err == nil {
		t.Fatal("bogus plant accepted")
	}
}
