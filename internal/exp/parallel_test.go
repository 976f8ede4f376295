package exp_test

import (
	"bytes"
	"testing"

	"snappif/internal/exp"
	"snappif/internal/obs"
	"snappif/internal/trace"
)

// renderOutcome flattens everything an experiment reports — the full table
// and the verdict counters — into one byte string for exact comparison.
func renderOutcome(t *testing.T, o exp.Outcome) string {
	t.Helper()
	var buf bytes.Buffer
	o.Table.Render(&buf)
	buf.WriteString("bound-exceeded=")
	buf.WriteByte(byte('0' + o.BoundExceeded%10))
	buf.WriteString(" snap-violations=")
	buf.WriteByte(byte('0' + o.SnapViolations%10))
	buf.WriteString(" baseline-violations=")
	buf.WriteByte(byte('0' + o.BaselineViolations%10))
	return buf.String()
}

// TestSerialParallelIdentical is the determinism regression for the grid
// executor: every cell derives its randomness from Options.Seed plus its own
// fixed parameters, so the parallel and serial modes must render identical
// tables and identical verdict counters. E1 and E4 are the issue's named
// regression pair; E8 (stateful daemons rebuilt per cell), E9 (two runs per
// cell) and F1 (family × size grid) cover the other fan-out shapes.
func TestSerialParallelIdentical(t *testing.T) {
	cases := []struct {
		id  string
		run func(exp.Options) (exp.Outcome, error)
	}{
		{"E1", exp.CycleRounds},
		{"E4", exp.SnapVsSelfStab},
		{"E8", exp.Daemons},
		{"E9", exp.TreeBaseline},
		{"F1", exp.ScalingFigure},
	}
	for _, tc := range cases {
		t.Run(tc.id, func(t *testing.T) {
			serial := exp.Options{Quick: true, Trials: 2, Seed: 1}
			serialOut, err := tc.run(serial)
			if err != nil {
				t.Fatalf("serial run: %v", err)
			}

			par := serial
			par.Parallel = true
			par.Timings = &trace.Timings{}
			parOut, err := tc.run(par)
			if err != nil {
				t.Fatalf("parallel run: %v", err)
			}

			if got, want := renderOutcome(t, parOut), renderOutcome(t, serialOut); got != want {
				t.Errorf("parallel output differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s", want, got)
			}
		})
	}
}

// TestParallelTimingsCoverCells asserts the per-cell timing capture: a
// parallel grid experiment records one entry per cell under its label.
func TestParallelTimingsCoverCells(t *testing.T) {
	tm := &trace.Timings{}
	reg := obs.NewRegistry()
	opt := exp.Options{Quick: true, Trials: 2, Seed: 1, Parallel: true, Timings: tm, Metrics: reg}
	if _, err := exp.CycleRounds(opt); err != nil {
		t.Fatal(err)
	}
	if tm.Len() == 0 {
		t.Fatal("no cell timings recorded")
	}
	// The metrics feed sees the same cells: one exp.cell_ns observation
	// each, in nanoseconds, so sub-second cells still add to its sum.
	if got := reg.Counter("exp.cells").Value(); got != int64(tm.Len()) {
		t.Errorf("exp.cells = %d, want %d", got, tm.Len())
	}
	if h := reg.Histogram("exp.cell_ns"); h.Count() != int64(tm.Len()) || h.Sum() <= 0 {
		t.Errorf("exp.cell_ns count=%d sum=%d, want count %d and a positive sum", h.Count(), h.Sum(), tm.Len())
	}
	for _, e := range tm.Entries() {
		if len(e.Label) < 3 || e.Label[:3] != "E1/" {
			t.Errorf("unexpected timing label %q", e.Label)
		}
		if e.Seconds < 0 {
			t.Errorf("negative duration for %q", e.Label)
		}
	}
	if tm.Total() < 0 {
		t.Errorf("negative total duration")
	}
}
