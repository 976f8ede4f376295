package exp_test

import (
	"bytes"
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
// flat-engine differential suite: the cycle-based experiments rendered
// under Engine "flat" must be byte-for-byte the tables the generic engine
// produces — same heights, rounds, delivery counts, verdicts. (The
// step-level bit-identity grid lives in internal/event; this test catches
// wiring mistakes between exp.Options and the engines.)
func TestFlatEngineTablesByteIdentical(t *testing.T) {
	runs := []func(exp.Options) (exp.Outcome, error){exp.CycleRounds, exp.Daemons}
	generic := renderAll(t, exp.Options{Quick: true, Trials: 2, Seed: 1, Engine: "generic"}, runs...)
	flatSerial := renderAll(t, exp.Options{Quick: true, Trials: 2, Seed: 1, Engine: "flat"}, runs...)
	if generic != flatSerial {
		t.Fatalf("flat engine tables differ from generic:\n--- generic ---\n%s--- flat ---\n%s",
			generic, flatSerial)
	}
}

// TestUnknownEngineRejected: a typo in -engine must fail loudly, not run
// the generic engine silently.
func TestUnknownEngineRejected(t *testing.T) {
	_, err := exp.CycleRounds(exp.Options{Quick: true, Trials: 1, Engine: "falt"})
	if err == nil {
		t.Fatal("unknown engine name accepted")
	}
}
