package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunSelectedExperiments(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-quick", "-trials", "1", "-only", "E1,E6"}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"=== E1", "=== E6", "REPRODUCED"} {
		if !strings.Contains(got, want) {
			t.Fatalf("output missing %q:\n%s", want, got)
		}
	}
	if strings.Contains(got, "=== E2") {
		t.Fatal("-only filter ignored")
	}
	if strings.Contains(got, "FAILED") {
		t.Fatalf("an experiment failed:\n%s", got)
	}
}

func TestRunMarkdownOutput(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-quick", "-trials", "1", "-only", "E1", "-md"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "| topology |") {
		t.Fatalf("markdown table missing:\n%s", out.String())
	}
}

func TestRunAllQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("full quick suite in -short mode")
	}
	var out strings.Builder
	if err := run([]string{"-quick", "-trials", "1"}, &out); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(out.String(), "REPRODUCED"); got != 18 {
		t.Fatalf("%d/18 experiments reproduced:\n%s", got, out.String())
	}
}

func TestRunWritesCSV(t *testing.T) {
	dir := t.TempDir()
	var out strings.Builder
	if err := run([]string{"-quick", "-trials", "1", "-only", "E1", "-csv", dir}, &out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "e1.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "topology,") {
		t.Fatalf("unexpected CSV header: %q", string(data[:40]))
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-definitely-not-a-flag"},
		// A Telemetry follows one run at a time: parallel cells would
		// interleave its wave state.
		{"-quick", "-only", "E1", "-telemetry", "-parallel"},
	} {
		var out strings.Builder
		if err := run(args, &out); err == nil {
			t.Fatalf("run(%q) accepted", args)
		}
	}
}

// TestRunRejectsUnknownExperimentID: an -only list naming an experiment
// that does not exist fails and names the valid IDs, instead of running
// nothing and succeeding.
func TestRunRejectsUnknownExperimentID(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-quick", "-only", "E1,e99"}, &out)
	if err == nil {
		t.Fatalf("-only E1,e99 accepted:\n%s", out.String())
	}
	for _, want := range []string{`"E99"`, "E1, E2", "MC", "H1"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not mention %s", err, want)
		}
	}
	if out.Len() != 0 {
		t.Fatalf("ran experiments before rejecting the list:\n%s", out.String())
	}
}
