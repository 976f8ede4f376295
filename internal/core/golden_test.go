package core_test

// Golden-trace regression pin: the protocol is deterministic under the
// synchronous daemon, so the exact action sequence of a clean cycle on a
// fixed small network is a semantic fingerprint. If an edit to the guards
// or statements changes scheduling-visible behavior in any way, this test
// fails with a readable diff — catching accidental semantic drift that
// aggregate assertions (delivery, bounds) might absorb.

import (
	"strings"
	"testing"

	"snappif/internal/check"
	"snappif/internal/core"
	"snappif/internal/graph"
	"snappif/internal/sim"
	"snappif/internal/trace"
)

// goldenLine4 is the full per-step action log of one synchronous clean
// cycle on the 4-processor line rooted at an end. Note steps 13–14: the
// cleaning phase runs in parallel with — one hop behind — the feedback
// phase, exactly as Section 3.1 describes; and the Fok relay (steps 8–10)
// only starts once the root's count completed at step 7.
const goldenLine4 = `step    1: p0:B-action
step    2: p1:B-action
step    3: p0:Count-action p2:B-action
step    4: p1:Count-action p3:B-action
step    5: p0:Count-action p2:Count-action
step    6: p1:Count-action
step    7: p0:Count-action
step    8: p1:Fok-action
step    9: p2:Fok-action
step   10: p3:Fok-action
step   11: p3:F-action
step   12: p2:F-action
step   13: p1:F-action p3:C-action
step   14: p0:F-action p2:C-action
step   15: p1:C-action
step   16: p0:C-action
`

func TestGoldenSynchronousCycle(t *testing.T) {
	g, err := graph.Line(4)
	if err != nil {
		t.Fatal(err)
	}
	pr := core.MustNew(g, 0)
	cfg := sim.NewConfiguration(g, pr)
	rec := trace.NewRecorder(pr, 0)
	obs := check.NewCycleObserver(pr)
	if _, err := sim.Run(cfg, pr, sim.Synchronous{}, sim.Options{
		Observers: []sim.Observer{rec, obs},
		StopWhen:  obs.StopAfterCycles(1),
	}); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	rec.Dump(&b)
	if got := b.String(); got != goldenLine4 {
		t.Fatalf("synchronous cycle diverged from the golden trace.\ngot:\n%swant:\n%s", got, goldenLine4)
	}
}

// TestPrintedGuardsIdenticalFromCleanStart double-checks the repair-inertness
// claim of DESIGN.md §2 (repairs 3 and 4): from the normal starting
// configuration the printed and repaired guards enable the same actions
// and produce the same execution.
func TestPrintedGuardsIdenticalFromCleanStart(t *testing.T) {
	g, err := graph.Line(4)
	if err != nil {
		t.Fatal(err)
	}
	repaired := core.MustNew(g, 0)
	printed := core.MustNew(g, 0, core.WithPrintedGuards())
	cfgA := sim.NewConfiguration(g, repaired)
	cfgB := sim.NewConfiguration(g, printed)
	for step := 0; step < 64; step++ {
		p := step % g.N()
		ea := repaired.Enabled(cfgA, p)
		eb := printed.Enabled(cfgB, p)
		if len(ea) != len(eb) {
			t.Fatalf("step %d: enabled sets diverged", step)
		}
		if len(ea) == 1 {
			cfgA.States[p] = repaired.Apply(cfgA, p, ea[0])
			cfgB.States[p] = printed.Apply(cfgB, p, eb[0])
		}
	}
}
