package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func runCLI(t *testing.T, args ...string) string {
	t.Helper()
	var buf bytes.Buffer
	if err := run(args, &buf); err != nil {
		t.Fatalf("pifserve %s: %v\n%s", strings.Join(args, " "), err, buf.String())
	}
	return buf.String()
}

func TestRunSubcommand(t *testing.T) {
	out := runCLI(t, "run", "-topo", "ring:16", "-engine", "sim",
		"-initiators", "0,8", "-rate", "10", "-requests", "20", "-seed", "3")
	if !strings.Contains(out, "20 waves") {
		t.Fatalf("expected 20 delivered waves:\n%s", out)
	}
	// Same flags twice → byte-identical output (virtual time only).
	if out2 := runCLI(t, "run", "-topo", "ring:16", "-engine", "sim",
		"-initiators", "0,8", "-rate", "10", "-requests", "20", "-seed", "3"); out2 != out {
		t.Fatalf("non-deterministic CLI output:\n%s\nvs\n%s", out, out2)
	}
}

func TestRunJSONAndMix(t *testing.T) {
	out := runCLI(t, "run", "-topo", "line:8", "-engine", "event", "-latency", "const:2",
		"-rate", "5", "-requests", "10", "-mix", "snapshot=3,barrier=1", "-json")
	var s struct {
		Engine string  `json:"engine"`
		Waves  int     `json:"waves"`
		P99    int64   `json:"p99_ticks"`
		WPK    float64 `json:"waves_per_ktick"`
	}
	if err := json.Unmarshal([]byte(out), &s); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, out)
	}
	if s.Engine != "event" || s.Waves != 10 || s.P99 <= 0 || s.WPK <= 0 {
		t.Fatalf("summary %+v", s)
	}
}

func TestSerialFlag(t *testing.T) {
	out := runCLI(t, "run", "-topo", "ring:12", "-initiators", "0,6",
		"-rate", "50", "-requests", "12", "-serial")
	if !strings.Contains(out, "serial") {
		t.Fatalf("serial mode not reported:\n%s", out)
	}
}

func TestCapacitySubcommand(t *testing.T) {
	out := runCLI(t, "capacity", "-topo", "ring:16", "-engine", "sim",
		"-requests", "30", "-slo-p99", "500", "-lo", "0.5", "-hi", "100", "-iters", "6")
	if !strings.Contains(out, "sustains") {
		t.Fatalf("no capacity verdict:\n%s", out)
	}
}

func TestDumpReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "scenario.json")
	runCLI(t, "dump", "-topo", "ring:12", "-engine", "sim", "-initiators", "0,6",
		"-rate", "20", "-requests", "15", "-out", path)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"service"`) || !strings.Contains(string(data), `"arrivals"`) {
		t.Fatalf("scenario missing service spec:\n%s", data)
	}
}

func TestBadInput(t *testing.T) {
	var buf bytes.Buffer
	for _, args := range [][]string{
		{},
		{"warp"},
		{"run", "-topo", "moebius:9"},
		{"run", "-topo", "ring:8", "-initiators", "0,x"},
		{"run", "-topo", "ring:8", "-mix", "snapshot"},
		{"run", "-topo", "ring:8", "-mix", "snapshot=x"},
		{"run", "-topo", "ring:8", "-engine", "flat"},
		{"run", "-topo", "ring:8", "-engine", "generic"},
		{"run", "-topo", "ring:16", "-engine", "sim", "-latency", "const:3", "-requests", "5"},
		{"dump", "-topo", "ring:16", "-engine", "sim", "-latency", "const:3", "-out", filepath.Join(t.TempDir(), "s.json")},
		{"capacity", "-topo", "ring:8"}, // missing -slo-p99
		{"dump", "-topo", "ring:8"},     // missing -out
	} {
		if err := run(args, &buf); err == nil {
			t.Errorf("pifserve %v accepted", args)
		}
	}
}

// TestServiceBenchSmoke is the CI_SERVICE=1 gate: the quick bench grid must
// emit the pinned small cells — sim/ring:64 at both offered rates, every
// field of the virtual-time result exact — and be byte-identical across two
// runs (modulo nothing: the commit stamp is resolved once per process
// environment, not per run).
func TestServiceBenchSmoke(t *testing.T) {
	if os.Getenv("CI_SERVICE") != "1" {
		t.Skip("set CI_SERVICE=1 to run the bench smoke gate")
	}
	dir := t.TempDir()
	p1 := filepath.Join(dir, "b1.json")
	p2 := filepath.Join(dir, "b2.json")
	runCLI(t, "bench", "-quick", "-out", p1)
	runCLI(t, "bench", "-quick", "-out", p2)
	d1, err := os.ReadFile(p1)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := os.ReadFile(p2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(d1, d2) {
		t.Fatal("bench grid not byte-identical across runs")
	}
	type cell struct {
		Requests int   `json:"requests"`
		Waves    int   `json:"waves"`
		Ticks    int64 `json:"ticks"`
		P50      int64 `json:"p50_ticks"`
		P99      int64 `json:"p99_ticks"`
	}
	var rep struct {
		Commit    string `json:"commit"`
		LoadCells []struct {
			Engine      string  `json:"engine"`
			Topology    string  `json:"topology"`
			OfferedRate float64 `json:"offered_rate"`
			cell
		} `json:"load_cells"`
	}
	if err := json.Unmarshal(d1, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Commit == "" || rep.Commit == "unknown" {
		t.Fatalf("bench commit stamp %q", rep.Commit)
	}
	pinned := map[float64]cell{
		2: {Requests: 30, Waves: 30, Ticks: 15901, P50: 129, P99: 162},
		8: {Requests: 30, Waves: 30, Ticks: 4074, P50: 129, P99: 314},
	}
	for _, c := range rep.LoadCells {
		if c.Engine != "sim" || c.Topology != "ring:64" {
			continue
		}
		want, ok := pinned[c.OfferedRate]
		if !ok {
			t.Fatalf("unpinned sim/ring:64 cell at rate %g", c.OfferedRate)
		}
		if c.cell != want {
			t.Errorf("sim/ring:64 rate %g = %+v, want %+v", c.OfferedRate, c.cell, want)
		}
		delete(pinned, c.OfferedRate)
	}
	if len(pinned) != 0 {
		t.Fatalf("quick grid no longer contains the pinned sim/ring:64 cells at rates %v", pinned)
	}
}
