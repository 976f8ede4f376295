package event_test

import (
	"math"
	"strings"
	"testing"

	"snappif/internal/core"
	"snappif/internal/event"
	"snappif/internal/flat"
	"snappif/internal/graph"
	"snappif/internal/sim"
)

// This file pins the serving-layer contract added for internal/service: a
// gated runner withholds the root broadcast without losing liveness (park →
// Wake → full wave → park again), ServeStep never commits a batch beyond its
// bound, and the degenerate uses (Gate without latency mode, Run with a
// Gate) are rejected up front.

// newGatedRunner builds a clean line(n) start in latency mode with the given
// admission gate.
func newGatedRunner(t *testing.T, n int, gate func(p int, a int32) bool) (*event.Runner, *flat.Config, *flat.Protocol) {
	t.Helper()
	g, err := graph.Line(n)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := core.New(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	k, err := flat.FromCore(pr)
	if err != nil {
		t.Fatal(err)
	}
	fc, err := flat.FromSim(sim.NewConfiguration(g, pr))
	if err != nil {
		t.Fatal(err)
	}
	r, err := event.NewRunner(fc, k, nil, event.Options{
		Options: sim.Options{Seed: 7, MaxSteps: 1 << 20, FairnessAge: 1 << 30},
		Latency: event.Constant(1),
		Gate:    gate,
	})
	if err != nil {
		t.Fatal(err)
	}
	return r, fc, k
}

// drain drives ServeStep(limit) until it stops progressing and returns the
// number of committed batches.
func drain(t *testing.T, r *event.Runner, limit int64) int {
	t.Helper()
	steps := 0
	for {
		progressed, err := r.ServeStep(limit)
		if err != nil {
			t.Fatal(err)
		}
		if !progressed {
			return steps
		}
		steps++
	}
}

// TestEventGateParkWakeWave is the full lifecycle: a closed gate parks the
// clean start (root broadcast withheld, no lost-wakeup error), Wake at an
// arbitrary future tick re-arms the schedule, the admitted wave runs to
// quiescence, and the next withheld broadcast parks the lane again.
func TestEventGateParkWakeWave(t *testing.T) {
	const n = 5
	open := false
	r, fc, _ := newGatedRunner(t, n, func(p int, a int32) bool {
		return open || p != 0 || a != int32(core.ActionB) // root is processor 0
	})

	// Closed gate: the seed wake at tick 1 is consumed, the broadcast
	// withheld, and the lane parks instead of erroring out.
	if steps := drain(t, r, 1<<30); steps != 0 {
		t.Fatalf("closed gate committed %d batches, want 0", steps)
	}
	if !r.Idle() {
		t.Fatal("closed gate: runner not idle after drain")
	}
	if r.NextWake() != -1 {
		t.Fatalf("closed gate: NextWake = %d, want -1", r.NextWake())
	}
	if r.EnabledCount() != 1 || r.EnabledActionOf(0) != int32(core.ActionB) {
		t.Fatalf("parked lane: enabled=%d act(root)=%d, want the withheld root broadcast",
			r.EnabledCount(), r.EnabledActionOf(0))
	}

	// Open the gate with a far-future Wake: the empty queue fast-forwards,
	// so the wave starts exactly at the requested tick.
	open = true
	const at = 50
	if eff := r.Wake(0, at); eff != at {
		t.Fatalf("Wake effective time = %d, want %d", eff, at)
	}
	if r.Idle() {
		t.Fatal("woken lane still idle")
	}
	if r.NextWake() != at {
		t.Fatalf("NextWake = %d, want %d", r.NextWake(), at)
	}

	// A bound before the wake commits nothing.
	if progressed, err := r.ServeStep(at - 1); err != nil || progressed {
		t.Fatalf("ServeStep(%d) = (%v, %v), want no progress before the wake", at-1, progressed, err)
	}

	// First effective batch is the admitted broadcast at the wake tick.
	if progressed, err := r.ServeStep(1 << 30); err != nil || !progressed {
		t.Fatalf("broadcast batch: progressed=%v err=%v", progressed, err)
	}
	// Close the gate again: the in-flight wave still completes, but the
	// root's next broadcast is withheld.
	open = false
	if steps := drain(t, r, 1<<30); steps == 0 {
		t.Fatal("admitted wave committed no batches after the broadcast")
	}
	if r.VirtualTime() < at {
		t.Fatalf("wave ran at vtime %d, before the wake at %d", r.VirtualTime(), at)
	}
	for p := 0; p < n; p++ {
		if fc.Phase(p) != core.C {
			t.Fatalf("proc %d phase %v after wave, want C", p, fc.Phase(p))
		}
	}
	if !r.Idle() || r.EnabledCount() != 1 || r.EnabledActionOf(0) != int32(core.ActionB) {
		t.Fatalf("lane did not re-park on the next broadcast: idle=%v enabled=%d",
			r.Idle(), r.EnabledCount())
	}
}

// TestEventGateAdmittedMatchesUngated: with a gate that admits everything,
// ServeStep-driven execution is the plain induced schedule — same moves,
// same virtual time, same final state as Run without a gate.
func TestEventGateAdmittedMatchesUngated(t *testing.T) {
	const n = 6
	stop := func(rs *sim.RunState) bool { return rs.Rounds >= 12 }

	g, err := graph.Line(n)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := core.New(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	k, err := flat.FromCore(pr)
	if err != nil {
		t.Fatal(err)
	}
	base := sim.NewConfiguration(g, pr)
	fcA, err := flat.FromSim(base)
	if err != nil {
		t.Fatal(err)
	}
	fcB := fcA.Clone()

	resA, err := event.Run(fcA, k, nil, event.Options{
		Options: sim.Options{Seed: 3, MaxSteps: 1 << 20, StopWhen: stop},
		Latency: event.Constant(2),
	})
	if err != nil {
		t.Fatal(err)
	}

	kB, err := flat.FromCore(pr) // fresh kernel: NextMsg counter restarts
	if err != nil {
		t.Fatal(err)
	}
	rB, err := event.NewRunner(fcB, kB, nil, event.Options{
		Options: sim.Options{Seed: 3, MaxSteps: 1 << 20, StopWhen: stop},
		Latency: event.Constant(2),
		Gate:    func(int, int32) bool { return true },
	})
	if err != nil {
		t.Fatal(err)
	}
	for {
		progressed, serr := rB.ServeStep(1 << 30)
		if serr != nil {
			t.Fatal(serr)
		}
		if !progressed {
			break
		}
	}
	resB := rB.Result()
	if resA.Steps != resB.Steps || resA.Moves != resB.Moves || resA.Rounds != resB.Rounds {
		t.Fatalf("gated-admit-all diverged: ungated %d/%d/%d, gated %d/%d/%d",
			resA.Steps, resA.Moves, resA.Rounds, resB.Steps, resB.Moves, resB.Rounds)
	}
	a, b := fcA.ToSim(), fcB.ToSim()
	for p := 0; p < n; p++ {
		if core.At(a, p) != core.At(b, p) {
			t.Fatalf("proc %d final state diverged", p)
		}
	}
}

// TestEventGateRejections pins the construction-time contract.
func TestEventGateRejections(t *testing.T) {
	g, err := graph.Line(3)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := core.New(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	k, err := flat.FromCore(pr)
	if err != nil {
		t.Fatal(err)
	}
	gate := func(int, int32) bool { return true }

	fc, err := flat.FromSim(sim.NewConfiguration(g, pr))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := event.NewRunner(fc, k, sim.Synchronous{}, event.Options{Gate: gate}); err == nil ||
		!strings.Contains(err.Error(), "Gate requires") {
		t.Fatalf("NewRunner with Gate but no Latency: err = %v", err)
	}
	if _, err := event.Run(fc, k, nil, event.Options{Latency: event.Constant(1), Gate: gate}); err == nil ||
		!strings.Contains(err.Error(), "ServeStep") {
		t.Fatalf("Run with Gate: err = %v", err)
	}

	// ServeStep outside latency mode is rejected per call.
	r, err := event.NewRunner(fc, k, sim.Synchronous{}, event.Options{Options: sim.Options{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.ServeStep(10); err == nil || !strings.Contains(err.Error(), "latency mode") {
		t.Fatalf("ServeStep in external-daemon mode: err = %v", err)
	}
}

// TestNewRunnerBoundsMaxSteps: the runner stamps steps in int32 columns, so
// NewRunner accepts MaxSteps up to math.MaxInt32 and refuses a larger bound
// with an error that names it.
func TestNewRunnerBoundsMaxSteps(t *testing.T) {
	g, err := graph.Line(3)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := core.New(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	k, err := flat.FromCore(pr)
	if err != nil {
		t.Fatal(err)
	}
	fc, err := flat.NewConfig(k)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := event.NewRunner(fc, k, sim.Synchronous{}, event.Options{Options: sim.Options{MaxSteps: math.MaxInt32}}); err != nil {
		t.Fatalf("MaxSteps = math.MaxInt32: %v", err)
	}
	_, err = event.NewRunner(fc, k, sim.Synchronous{}, event.Options{Options: sim.Options{MaxSteps: math.MaxInt32 + 1}})
	if err == nil || !strings.Contains(err.Error(), "2147483647") {
		t.Fatalf("MaxSteps = math.MaxInt32+1: err = %v, want an error naming the bound 2147483647", err)
	}
}
