package telemetry

import (
	"snappif/internal/check"
	"snappif/internal/core"
	"snappif/internal/sim"
)

// Observer adapts a Telemetry to the sim engine's observer interfaces:
// it tracks per-processor phases across steps to produce the census deltas
// and root transitions StepInfo wants, and fires Telemetry.Step once per
// committed step (from OnEnabled, which the runner invokes after OnStep
// and the guard refresh — the earliest point where the enabled count is
// known).
//
// Wiring order matters for the flight recorder's violation freeze: place
// the Observer after the check.Monitor in the observers list, so that when
// the monitor records a violation at step i, the freeze happens after step
// i entered the flight ring — the dumped scenario then replays through the
// violating step.
type Observer struct {
	// T is the telemetry sink; nil makes every callback a no-op.
	T *Telemetry
	// Proto locates the root and decodes states.
	Proto *core.Protocol
	// Mon, when set, freezes the flight recorder as soon as the monitor
	// records a new violation.
	Mon *check.Monitor

	prev   []core.Phase
	src    *simSource
	pend   StepInfo
	rounds int
	lastNS int64
	seen   int
}

var (
	_ sim.Observer        = (*Observer)(nil)
	_ sim.RoundObserver   = (*Observer)(nil)
	_ sim.EnabledObserver = (*Observer)(nil)
)

// simSource adapts a boxed configuration to StateSource. It is cached on
// the Observer as a true pointer: storing a *simSource in the interface
// needs no boxing allocation, unlike a by-value single-field struct.
type simSource struct{ c *sim.Configuration }

func (s *simSource) N() int { return s.c.N() }

func (s *simSource) AppendCanonical(b []byte) ([]byte, error) { return s.c.AppendCanonical(b) }

func (s *simSource) Census() (b, f, cl int) {
	for p := 0; p < s.c.N(); p++ {
		switch core.At(s.c, p).Pif {
		case core.B:
			b++
		case core.F:
			f++
		default:
			cl++
		}
	}
	return b, f, cl
}

// source returns the cached StateSource for c, refreshing it when the
// configuration pointer changed.
func (o *Observer) source(c *sim.Configuration) *simSource {
	if o.src == nil || o.src.c != c {
		//snapvet:ok one allocation when the configuration identity changes (per run), not per step
		o.src = &simSource{c: c}
	}
	return o.src
}

// Begin binds the observer (and its telemetry) to a run starting from c:
// it seeds the phase baseline and census and checkpoints c as flight step
// 0. Call it where the run's tracer BeginRun happens — and again after any
// mid-run corruption (the post-fault state is a new causal baseline; the
// flight recorder restarts from it so dumps never straddle an unrecorded
// fault).
func (o *Observer) Begin(meta RunMeta, c *sim.Configuration) {
	if o.T == nil {
		return
	}
	o.snapshotPhases(c)
	o.rounds = 0
	o.lastNS = 0
	if o.Mon != nil {
		o.seen = len(o.Mon.Records)
	}
	o.T.BeginRun(meta, o.source(c))
}

// snapshotPhases rebuilds the per-processor phase baseline.
func (o *Observer) snapshotPhases(c *sim.Configuration) {
	if len(o.prev) != c.N() {
		//snapvet:ok resizes only when the topology size changes (per run), not per step
		o.prev = make([]core.Phase, c.N())
	}
	for p := 0; p < c.N(); p++ {
		o.prev[p] = core.At(c, p).Pif
	}
}

// OnStep implements sim.Observer: it computes the step's census deltas and
// root transition and buffers the StepInfo; Telemetry.Step fires in
// OnEnabled.
//
//snapvet:hotpath
func (o *Observer) OnStep(step int, executed []sim.Choice, c *sim.Configuration) {
	if o.T == nil {
		return
	}
	if len(o.prev) != c.N() {
		// Begin was not called: adopt the post-step phases as the baseline;
		// this step's transitions are unattributable.
		o.snapshotPhases(c)
	}
	root := o.Proto.Root
	o.pend.Step = step
	o.pend.Executed = executed
	o.pend.Rounds = o.rounds
	o.pend.RootBefore = o.prev[root]
	o.pend.DB, o.pend.DF, o.pend.DC = 0, 0, 0
	for _, ch := range executed {
		from := o.prev[ch.Proc]
		to := core.At(c, ch.Proc).Pif
		if from == to {
			continue
		}
		o.prev[ch.Proc] = to
		o.delta(from, -1)
		o.delta(to, 1)
	}
	o.pend.RootAfter = o.prev[root]
	o.pend.RootMsg = core.At(c, root).Msg
	o.pend.NextMsg = o.Proto.NextMsg()
	o.pend.GuardHits, o.pend.GuardMisses = 0, 0
	o.pend.EvalNS, o.pend.CommitNS = 0, 0
	o.pend.StepNS = 0
	if now := o.T.Now(); now > 0 {
		if o.lastNS > 0 {
			o.pend.StepNS = now - o.lastNS
		}
		o.lastNS = now
	}
	o.src = o.source(c)
}

// delta accumulates a phase-census delta into the pending StepInfo.
//
//snapvet:hotpath
func (o *Observer) delta(ph core.Phase, d int) {
	switch ph {
	case core.B:
		o.pend.DB += d
	case core.F:
		o.pend.DF += d
	default:
		o.pend.DC += d
	}
}

// OnEnabled implements sim.EnabledObserver: with the enabled count in
// hand, the buffered step flows into the telemetry, and a newly recorded
// checker violation freezes the flight recorder.
//
//snapvet:hotpath
func (o *Observer) OnEnabled(step, enabled int) {
	if o.T == nil {
		return
	}
	o.pend.Enabled = enabled
	o.T.Step(o.pend, o.src)
	if o.Mon != nil && len(o.Mon.Records) > o.seen {
		o.seen = len(o.Mon.Records)
		o.T.Freeze()
	}
}

// OnRound implements sim.RoundObserver.
//
//snapvet:hotpath
func (o *Observer) OnRound(round int, c *sim.Configuration) {
	if o.T == nil {
		return
	}
	o.rounds = round
}
