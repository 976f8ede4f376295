package exp_test

import (
	"bytes"
	"strings"
	"testing"

	"snappif/internal/exp"
)

// renderAll runs the given experiments and concatenates their rendered
// tables, failing on any error or reproduction failure.
func renderAll(t *testing.T, opt exp.Options, runs ...func(exp.Options) (exp.Outcome, error)) string {
	t.Helper()
	var buf bytes.Buffer
	for _, run := range runs {
		out, err := run(opt)
		if err != nil {
			t.Fatal(err)
		}
		if out.BoundExceeded != 0 || out.SnapViolations != 0 {
			t.Fatalf("engine %q: bound exceeded %d, snap violations %d:\n%s",
				opt.Engine, out.BoundExceeded, out.SnapViolations, out.Table)
		}
		out.Table.Render(&buf)
	}
	return buf.String()
}

// TestFlatEngineTablesByteIdentical is the experiment-level half of the
// engine differential suite: the cycle-based experiments rendered under
// Engine "event" (event.Runner over the struct-of-arrays kernels of
// internal/flat) must be byte-for-byte the tables the sim engine produces —
// same heights, rounds, delivery counts, verdicts. (The step-level
// bit-identity grid lives in internal/event; this test catches wiring
// mistakes between exp.Options and the engines.)
func TestFlatEngineTablesByteIdentical(t *testing.T) {
	runs := []func(exp.Options) (exp.Outcome, error){exp.CycleRounds, exp.Daemons}
	sim := renderAll(t, exp.Options{Quick: true, Trials: 2, Seed: 1, Engine: "sim"}, runs...)
	event := renderAll(t, exp.Options{Quick: true, Trials: 2, Seed: 1, Engine: "event"}, runs...)
	if sim != event {
		t.Fatalf("event engine tables differ from sim:\n--- sim ---\n%s--- event ---\n%s",
			sim, event)
	}
}

// TestUnknownEngineRejected: a typo in -engine, or a retired engine name,
// must fail loudly with an error naming the valid engines, not run the sim
// engine silently.
func TestUnknownEngineRejected(t *testing.T) {
	for _, name := range []string{"falt", "flat", "generic"} {
		_, err := exp.CycleRounds(exp.Options{Quick: true, Trials: 1, Engine: name})
		if err == nil {
			t.Fatalf("engine name %q accepted", name)
		}
		if !strings.Contains(err.Error(), "want sim or event") {
			t.Errorf("engine %q: error %q does not name the valid engines", name, err)
		}
	}
}
