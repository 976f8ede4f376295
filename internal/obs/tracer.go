package obs

import (
	"io"
	"sync"

	"snappif/internal/check"
	"snappif/internal/core"
	"snappif/internal/graph"
	"snappif/internal/sim"
)

// Tracer is the structured event tracer: a sim.Observer / sim.RoundObserver
// that streams JSONL events through a ring-buffered background writer, with
// an Action entry point for the concurrent runtime.
//
// A nil *Tracer (obs.Disabled()) is fully usable and free: every method
// returns after a nil check and allocates nothing, so the simulation
// engine's zero-allocation step contract survives an always-attached
// tracer. Wiring therefore never needs to be conditional.
//
// Life cycle: New → BeginRun (once per sim.Run segment; the first call
// writes the trace header) → callbacks → Close (writes the final snapshot
// and summary, flushes, joins the writer goroutine). Tracer methods are
// safe for concurrent use — the runtime's goroutines all feed Action.
//
//snapvet:nilsafe
type Tracer struct {
	mu    sync.Mutex
	w     *asyncWriter
	mask  Mask
	proto *core.Protocol

	cfg  *sim.Configuration // live configuration, for the final snapshot
	prev []core.Phase       // last seen phase per processor

	run       int
	lastStep  int // last step index of the current segment
	lastRound int // last completed round of the current segment
	steps     int
	moves     int
	rounds    int
	waves     int
	waveOpen  bool
	seq       int64
	perAct    map[string]int

	ringSize int // writer ring capacity, consumed by New
	closed   bool
}

var (
	_ sim.Observer      = (*Tracer)(nil)
	_ sim.RoundObserver = (*Tracer)(nil)
)

// Option customizes a Tracer.
type Option func(*Tracer)

// WithProtocol attaches the PIF protocol instance, enabling the
// protocol-aware events: phase transitions, wave boundaries,
// abnormal-processor counts, and state snapshots. Without it the tracer
// emits only the generic step/round skeleton.
func WithProtocol(pr *core.Protocol) Option {
	return func(t *Tracer) { t.proto = pr }
}

// WithMask restricts the emitted event kinds.
func WithMask(m Mask) Option {
	return func(t *Tracer) { t.mask = m }
}

// WithRingSize sets the async writer's ring capacity in lines (default
// 1024).
func WithRingSize(n int) Option {
	return func(t *Tracer) { t.ringSize = n }
}

// New returns an enabled Tracer streaming JSONL to w.
func New(w io.Writer, opts ...Option) *Tracer {
	t := &Tracer{mask: All}
	for _, o := range opts {
		o(t)
	}
	ring := t.ringSize
	t.ringSize = 0
	t.w = newAsyncWriter(w, ring)
	t.perAct = make(map[string]int)
	return t
}

// Disabled returns the no-op tracer: nil. All methods on a nil Tracer
// return immediately without allocating.
func Disabled() *Tracer { return nil }

// Enabled reports whether the tracer emits events.
func (t *Tracer) Enabled() bool { return t != nil }

// BeginRun announces one sim.Run segment over configuration c on g driven
// by the named daemon: the first call writes the trace header (meta), and
// every call writes a run header plus an initial state snapshot (the state
// offline replay starts from — after any initial corruption). c may be nil
// when no snapshot is wanted.
func (t *Tracer) BeginRun(g *graph.Graph, daemon string, seed int64, c *sim.Configuration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.run++
	if t.run == 1 {
		t.w.put(append(t.w.get(), marshalLine(newMeta(g, t.proto, daemon, seed))...))
	}
	t.w.put(appendRun(t.w.get(), t.run, seed))
	t.lastStep = 0
	t.lastRound = 0
	t.waveOpen = false
	if c != nil {
		t.cfg = c
		if t.proto != nil {
			t.snapshotPhases(c)
			if t.mask&Snapshots != 0 {
				t.w.put(append(t.w.get(), marshalLine(newSnapshot("init", t.run, "", c))...))
			}
		}
	}
}

// Fault records a fault injection named name, with the post-injection state
// snapshot: offline analysis re-bases at fault events exactly like at run
// starts. Faults injected before the first BeginRun are not emitted — the
// first run's init snapshot already captures the post-fault state (and the
// trace header must stay the first line).
func (t *Tracer) Fault(name string, c *sim.Configuration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.proto == nil || c == nil || t.run == 0 {
		return
	}
	t.snapshotPhases(c)
	t.waveOpen = false
	if t.mask&Snapshots != 0 {
		t.w.put(append(t.w.get(), marshalLine(newSnapshot("fault", t.run, name, c))...))
	}
}

// debris counts the processors other than root in B or F — the census
// debris a wave opening now starts over (cenB−1+cenF, DESIGN.md §11). Wave
// starts are the only call site, so the O(N) pass is paid once per wave.
func debris(c *sim.Configuration, root int) int {
	n := 0
	for p := 0; p < c.N(); p++ {
		if p != root && core.At(c, p).Pif != core.C {
			n++
		}
	}
	return n
}

// snapshotPhases refreshes the phase-transition baseline from c. Callers
// hold t.mu.
func (t *Tracer) snapshotPhases(c *sim.Configuration) {
	if len(t.prev) != c.N() {
		t.prev = make([]core.Phase, c.N())
	}
	for p := 0; p < c.N(); p++ {
		t.prev[p] = core.At(c, p).Pif
	}
}

// OnStep implements sim.Observer: it emits the step event, any phase
// transitions among the executed processors, and wave boundaries observed
// at the root.
func (t *Tracer) OnStep(step int, executed []sim.Choice, c *sim.Configuration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.lastStep = step
	t.steps++
	t.moves += len(executed)
	if t.proto != nil {
		for _, ch := range executed {
			t.perAct[t.proto.ActionNames()[ch.Action]]++
		}
	}
	if t.mask&Steps != 0 {
		t.w.put(appendStep(t.w.get(), step, executed))
	}
	if t.proto == nil {
		return
	}
	t.cfg = c
	if len(t.prev) != c.N() {
		// BeginRun was not called: adopt the post-step phases as the
		// baseline; transitions of this step are unattributable.
		t.snapshotPhases(c)
		return
	}
	root := t.proto.Root
	for _, ch := range executed {
		from := t.prev[ch.Proc]
		to := core.At(c, ch.Proc).Pif
		if from == to {
			continue
		}
		t.prev[ch.Proc] = to
		if t.mask&Phases != 0 {
			t.w.put(appendPhase(t.w.get(), step, ch.Proc, from, to))
		}
		if ch.Proc != root || t.mask&Waves == 0 {
			continue
		}
		switch {
		case to == core.B && from == core.C:
			t.waves++
			t.waveOpen = true
			t.w.put(appendWave(t.w.get(), "start", t.waves, step, t.lastRound+1, core.At(c, root).Msg, debris(c, root)))
		case to == core.C && t.waveOpen:
			t.waveOpen = false
			t.w.put(appendWave(t.w.get(), "end", t.waves, step, t.lastRound+1, core.At(c, root).Msg, 0))
		}
	}
}

// OnRound implements sim.RoundObserver: it emits the round boundary and
// samples the abnormal-processor count.
func (t *Tracer) OnRound(round int, c *sim.Configuration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.rounds++
	t.lastRound = round
	if t.mask&Rounds != 0 {
		t.w.put(appendRound(t.w.get(), round, t.lastStep))
	}
	if t.proto != nil && t.mask&Abnormal != 0 {
		t.w.put(appendAbnormal(t.w.get(), round, len(check.Abnormal(c, t.proto))))
	}
}

// Action records one action execution in the concurrent runtime, globally
// sequenced in emission order. Safe for concurrent use.
func (t *Tracer) Action(proc, action int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.seq++
	t.moves++
	if t.proto != nil {
		t.perAct[t.proto.ActionNames()[action]]++
	}
	if t.mask&Actions != 0 {
		t.w.put(appendAction(t.w.get(), t.seq, proc, action))
	}
}

// Close writes the final state snapshot and the summary, flushes the ring,
// stops the writer goroutine, and returns the first write error. The
// tracer must not be used afterwards.
func (t *Tracer) Close() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil
	}
	t.closed = true
	if t.proto != nil && t.cfg != nil && t.mask&Snapshots != 0 {
		t.w.put(append(t.w.get(), marshalLine(newSnapshot("final", t.run, "", t.cfg))...))
	}
	sum := Summary{
		T:            "summary",
		Steps:        t.steps,
		Moves:        t.moves,
		Rounds:       t.rounds,
		Waves:        t.waves,
		Runs:         t.run,
		ActionEvents: t.seq,
	}
	if len(t.perAct) > 0 {
		sum.MovesPerAction = t.perAct
	}
	t.w.put(append(t.w.get(), marshalLine(sum)...))
	return t.w.close()
}
