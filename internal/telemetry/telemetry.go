// Package telemetry is the large-N observability layer: sampling,
// aggregating instrumentation designed so a million-processor run can stay
// instrumented permanently. Everything the engines feed it is either O(1)
// per step (atomic counters, log-bucketed histograms, incremental phase
// census) or amortized over a sampling cadence (time-series ring, flight
// checkpoints); nothing scales a per-step cost with N, and the disabled
// path — a nil *Telemetry, mirroring obs.Disabled — is a pointer check
// with zero allocations.
//
// Four surfaces, one hook:
//
//   - Aggregates: the obs metric types — lock-free counters, phase-census
//     gauges and obs.LogHist latency histograms (wave rounds/steps/wall
//     time, step duration, guard refresh and commit) — embedded in the
//     Telemetry and registered into an obs.Registry by PublishTo.
//   - Time series: a bounded ring of Rows (enabled count, phase census,
//     wave counts, guard-cache hit rate) sampled every SampleEvery steps.
//   - Causal wave spans: one Span per PIF wave (broadcast start → feedback
//     complete → cleaning done, abnormal-leftover annotation), exported as
//     Chrome trace_event JSON for Perfetto.
//   - Flight recorder: a rotating ring of canonical-encoded configuration
//     checkpoints plus the executed schedule tail, dumpable at any moment
//     (or frozen at a checker violation) into a hunt.Scenario that replays
//     the live tail bit for bit — including wave payloads, via the
//     protocol's resumed Msg counter.
//
// The engines stay deterministic: telemetry reads the clock (this package
// is deliberately outside snapvet's detrange set) but never feeds anything
// back into scheduling, and every engine-side hook is nil-guarded so wiring
// is unconditional. See DESIGN.md §11.
package telemetry

import (
	"io"
	"sync"

	"snappif/internal/core"
	"snappif/internal/graph"
	"snappif/internal/hunt"
	"snappif/internal/obs"
	"snappif/internal/sim"
)

// Config sizes and gates a Telemetry instance. The zero value gets usable
// defaults from New.
type Config struct {
	// SampleEvery is the time-series cadence in steps (default 64).
	SampleEvery int
	// SeriesCap is the time-series ring capacity in rows (default 4096).
	SeriesCap int
	// MaxSpans bounds retained wave spans; later waves still count in the
	// aggregate histograms but drop their span records (default 4096).
	MaxSpans int
	// Timing enables wall-clock measurements (step duration, wave wall
	// time). Requires Clock.
	Timing bool
	// DetailTiming additionally records the eval/commit split inside a
	// step (flat engine only); costs two extra clock reads per step.
	DetailTiming bool
	// Clock is a monotonic nanosecond source (e.g. time.Now().UnixNano or
	// a monotonic-delta closure). Nil disables all timing.
	Clock func() int64
	// FlightDepth is the flight recorder's checkpoint count; 0 disables
	// the recorder.
	FlightDepth int
	// FlightEvery is the checkpoint cadence in steps (default 1024).
	FlightEvery int
}

// StepInfo is everything an engine reports about one committed step. The
// Executed slice is engine scratch — Telemetry copies what it retains.
type StepInfo struct {
	// Step is the 1-based committed step index.
	Step int
	// Executed lists the choices that ran.
	Executed []sim.Choice
	// Packed, when non-nil, points at the engine's PackChoice encoding of
	// Executed (same order, same length). An active flight recorder takes
	// the slice by swap — the pointee is replaced with a recycled buffer —
	// so the engine must re-size it every step and own it exclusively.
	// Engines only pay for packing when WantPacked reports true.
	Packed *[]uint32
	// Enabled is the enabled-processor count after the step.
	Enabled int
	// Rounds is the number of rounds completed before this step's round
	// accounting (the step itself is part of round Rounds+1).
	Rounds int
	// RootBefore and RootAfter are the root's phase across the step; their
	// transitions delimit wave spans.
	RootBefore, RootAfter core.Phase
	// RootMsg is the root's payload register after the step.
	RootMsg uint64
	// NextMsg is the protocol instance's live wave-payload counter after
	// the step, read by the reporting engine from its own state. Flight
	// checkpoints store it so replays resume payload numbering — the
	// recorder never calls back into an engine on the step path (a shared
	// Telemetry only retains the last BeginRun's meta, so a meta callback
	// could belong to a different, concurrently running engine).
	NextMsg uint64
	// DB, DF, DC are the step's phase-census deltas (signed): how many
	// processors entered minus left each phase.
	DB, DF, DC int
	// GuardHits and GuardMisses are the step's guard-cache tallies (flat
	// engine hbits; zero elsewhere).
	GuardHits, GuardMisses int64
	// QueueDepth is the event engine's wake-queue occupancy after the step
	// (entries, duplicates included); zero for the other engines.
	QueueDepth int
	// EvalNS, CommitNS, StepNS are wall-clock durations (0 when the engine
	// has no clock or the corresponding timing level is off).
	EvalNS, CommitNS, StepNS int64
}

// StateSource lets Telemetry capture full configurations without binding
// to one engine's layout: both sim.Configuration (via the observer
// adapter) and flat.Config satisfy it.
type StateSource interface {
	// N is the processor count.
	N() int
	// AppendCanonical appends the canonical encoding of every state in
	// ascending processor order.
	AppendCanonical(b []byte) ([]byte, error)
	// Census counts processors per phase in one pass (called once per
	// BeginRun to seed the incremental census).
	Census() (b, f, c int)
}

// RunMeta identifies the run a Telemetry instance is recording, enough for
// the flight recorder to rebuild a self-contained scenario.
type RunMeta struct {
	// G is the network.
	G *graph.Graph
	// Root, Lmax, NPrime are the protocol parameters (Lmax/NPrime zero
	// when default).
	Root, Lmax, NPrime int
	// Plant names a wrapped planted bug, "" for the real protocol.
	Plant string
	// Seed is the scenario-level seed (injector seed; run seed is Seed+1
	// by the harness convention).
	Seed int64
	// Engine and Daemon label the run for the metadata stamps.
	Engine, Daemon string
	// NextMsg reads the protocol instance's live wave-payload counter;
	// BeginRun's step-0 checkpoint stores it so replays resume payload
	// numbering. Nil disables payload resumption (MsgBase stays 0). It is
	// invoked only from BeginRun — i.e. by the engine that owns it —
	// because a Telemetry shared across concurrent runs keeps only the
	// last caller's meta; per-step checkpoints read StepInfo.NextMsg
	// instead.
	NextMsg func() uint64
}

// Telemetry is the aggregation point. A nil *Telemetry is the disabled
// instance: every method nil-checks and returns, allocation-free, so
// engines wire their hooks unconditionally. All methods are safe for
// concurrent use; the per-step hook serializes on one mutex while the
// atomic counters and histogram reads stay lock-free.
//
//snapvet:nilsafe
type Telemetry struct {
	cfg Config

	// Lock-free aggregates (published via PublishTo).
	steps, moves           obs.Counter
	waves, abnWaves        obs.Counter
	guardHits, guardMisses obs.Counter
	cenB, cenF, cenC       obs.Gauge
	waveRounds, waveSteps  obs.LogHist
	waveNS, stepNS         obs.LogHist
	evalNS, commitNS       obs.LogHist

	mu         sync.Mutex
	meta       RunMeta
	series     *Series
	fl         *flight
	nextSample int // sampling threshold (under mu): sample at Step ≥ nextSample

	// Wave-span state (under mu).
	spans         []Span
	spansDropped  int64
	waveOpen      bool
	waveNum       int
	wStartStep    int
	wStartRound   int
	wStartNS      int64
	wFeedbackStep int
	wFeedbackNS   int64
	wAbnProcs     int
}

// New builds an enabled Telemetry, applying Config defaults.
func New(cfg Config) *Telemetry {
	if cfg.SampleEvery <= 0 {
		cfg.SampleEvery = 64
	}
	if cfg.SeriesCap <= 0 {
		cfg.SeriesCap = 4096
	}
	if cfg.MaxSpans <= 0 {
		cfg.MaxSpans = 4096
	}
	if cfg.FlightEvery <= 0 {
		cfg.FlightEvery = 1024
	}
	if cfg.DetailTiming {
		cfg.Timing = true
	}
	if cfg.Clock == nil {
		cfg.Timing = false
		cfg.DetailTiming = false
	}
	t := &Telemetry{
		cfg:        cfg,
		series:     newSeries(cfg.SeriesCap),
		spans:      make([]Span, 0, cfg.MaxSpans),
		nextSample: cfg.SampleEvery,
	}
	if cfg.FlightDepth > 0 {
		t.fl = newFlight(cfg.FlightDepth, cfg.FlightEvery)
	}
	return t
}

// Disabled returns the no-op instance: nil.
func Disabled() *Telemetry { return nil }

// Enabled reports whether telemetry is recording.
func (t *Telemetry) Enabled() bool { return t != nil }

// Now reads the configured clock in nanoseconds, or 0 when telemetry or
// timing is disabled — engines call it unconditionally to stamp StepInfo.
//
//snapvet:hotpath
func (t *Telemetry) Now() int64 {
	if t == nil || !t.cfg.Timing {
		return 0
	}
	return t.cfg.Clock()
}

// DetailTiming reports whether the engine should take the extra per-phase
// clock reads (eval/commit split).
func (t *Telemetry) DetailTiming() bool { return t != nil && t.cfg.DetailTiming }

// BeginRun (re)binds the telemetry to a run: stores the metadata, seeds
// the incremental phase census from one full pass, resets the wave state,
// and checkpoints the initial (post-fault) configuration as flight step 0.
// src may be nil when no state capture is possible.
func (t *Telemetry) BeginRun(meta RunMeta, src StateSource) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.meta = meta
	t.waveOpen = false
	t.nextSample = t.cfg.SampleEvery
	if src != nil {
		b, f, c := src.Census()
		t.cenB.Set(int64(b))
		t.cenF.Set(int64(f))
		t.cenC.Set(int64(c))
		if t.fl != nil {
			t.fl.reset()
			if meta.G != nil && meta.G.N() >= flightMaxProcs {
				t.fl.disabled = true
			} else {
				t.fl.checkpoint(0, src, t.nextMsgLocked())
			}
		}
	}
}

// nextMsgLocked reads the run's payload counter, or 0 without one. Only
// BeginRun may call it: there the meta was just installed by the calling
// engine, so the callback reads that engine's own state. On the step path
// the meta (last BeginRun wins) may belong to another concurrently running
// engine — checkpoints there use StepInfo.NextMsg.
func (t *Telemetry) nextMsgLocked() uint64 {
	if t.meta.NextMsg == nil {
		return 0
	}
	return t.meta.NextMsg()
}

// Step is the per-step hook, called once after each committed step (after
// guard refresh, before round accounting). The fast path is one mutex
// acquisition, a handful of atomic adds, and the wave-transition check;
// series rows and flight checkpoints amortize over their cadences.
//
//snapvet:hotpath
func (t *Telemetry) Step(info StepInfo, src StateSource) {
	if t == nil {
		return
	}
	t.steps.Add(1)
	t.moves.Add(int64(len(info.Executed)))
	if info.GuardHits != 0 {
		t.guardHits.Add(info.GuardHits)
	}
	if info.GuardMisses != 0 {
		t.guardMisses.Add(info.GuardMisses)
	}
	if info.DB != 0 {
		t.cenB.Add(int64(info.DB))
	}
	if info.DF != 0 {
		t.cenF.Add(int64(info.DF))
	}
	if info.DC != 0 {
		t.cenC.Add(int64(info.DC))
	}
	if info.StepNS > 0 {
		t.stepNS.Observe(info.StepNS)
	}
	if info.EvalNS > 0 {
		t.evalNS.Observe(info.EvalNS)
	}
	if info.CommitNS > 0 {
		t.commitNS.Observe(info.CommitNS)
	}

	t.mu.Lock()
	if info.RootAfter != info.RootBefore {
		t.waveTransitionLocked(info)
	}
	if t.fl != nil {
		t.fl.record(info.Step, info.Executed, info.Packed)
		if t.fl.due(info.Step) && src != nil {
			t.fl.checkpoint(info.Step, src, info.NextMsg)
		}
	}
	// Threshold, not modulo: engines reporting sparse virtual-time stamps
	// (the event engine's latency mode) may never land on an exact multiple
	// of the cadence. For dense step counts the threshold fires on exactly
	// the multiples the old modulo did.
	if info.Step >= t.nextSample {
		t.sampleLocked(info)
		t.nextSample = (info.Step/t.cfg.SampleEvery + 1) * t.cfg.SampleEvery
	}
	t.mu.Unlock()
}

// waveTransitionLocked tracks the root's phase transitions into wave
// spans. Callers hold t.mu.
func (t *Telemetry) waveTransitionLocked(info StepInfo) {
	switch {
	case info.RootBefore == core.C && info.RootAfter == core.B:
		t.waveNum++
		t.waveOpen = true
		t.wStartStep = info.Step
		t.wStartRound = info.Rounds + 1
		t.wStartNS = t.Now()
		t.wFeedbackStep = 0
		t.wFeedbackNS = 0
		// Any processor already in B or F besides the root at broadcast
		// start is leftover debris from corruption or an aborted wave —
		// this wave is abnormal in the paper's sense.
		t.wAbnProcs = int(t.cenB.Value()) - 1 + int(t.cenF.Value())
		if t.wAbnProcs > 0 {
			t.abnWaves.Add(1)
		}
	case t.waveOpen && info.RootBefore == core.B && info.RootAfter == core.F:
		t.wFeedbackStep = info.Step
		t.wFeedbackNS = t.Now()
	case t.waveOpen && info.RootAfter == core.C:
		t.waveOpen = false
		endNS := t.Now()
		span := Span{
			Wave:         t.waveNum,
			Msg:          info.RootMsg,
			StartStep:    t.wStartStep,
			FeedbackStep: t.wFeedbackStep,
			EndStep:      info.Step,
			StartRound:   t.wStartRound,
			EndRound:     info.Rounds + 1,
			StartNS:      t.wStartNS,
			FeedbackNS:   t.wFeedbackNS,
			EndNS:        endNS,
			Abnormal:     t.wAbnProcs > 0,
			AbnProcs:     t.wAbnProcs,
		}
		t.waves.Add(1)
		t.waveRounds.Observe(int64(span.Rounds()))
		t.waveSteps.Observe(int64(span.Steps()))
		if t.wStartNS > 0 && endNS > t.wStartNS {
			t.waveNS.Observe(endNS - t.wStartNS)
		}
		if len(t.spans) < cap(t.spans) {
			t.spans = append(t.spans, span)
		} else {
			t.spansDropped++
		}
	}
}

// sampleLocked appends one time-series row. Callers hold t.mu.
func (t *Telemetry) sampleLocked(info StepInfo) {
	hits, misses := t.guardHits.Value(), t.guardMisses.Value()
	var hitPct int64
	if hits+misses > 0 {
		hitPct = hits * 100 / (hits + misses)
	}
	t.series.append(Row{
		Step:        int64(info.Step),
		Enabled:     int64(info.Enabled),
		B:           t.cenB.Value(),
		F:           t.cenF.Value(),
		C:           t.cenC.Value(),
		Waves:       t.waves.Value(),
		AbnWaves:    t.abnWaves.Value(),
		GuardHitPct: hitPct,
		QDepth:      int64(info.QueueDepth),
	})
}

// Freeze stops the flight recorder in place (checkpoints and schedule stop
// rotating) so the window ending at the current step survives until
// WantPacked reports whether the flight recorder would consume a pre-packed
// schedule this step (StepInfo.Packed): the recorder exists and is neither
// frozen nor disabled. Engines call it once per step to decide whether the
// move loop should also pack.
func (t *Telemetry) WantPacked() bool {
	if t == nil || t.fl == nil {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return !t.fl.frozen && !t.fl.disabled
}

// DumpScenario. Called by the observer adapter when an invariant checker
// fires; idempotent.
func (t *Telemetry) Freeze() {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.fl != nil {
		t.fl.frozen = true
	}
	t.mu.Unlock()
}

// DumpScenario cuts the flight recorder into a replayable hunt.Scenario
// covering the longest fully recorded tail of the run. It fails when the
// recorder is disabled or has no coverable checkpoint yet.
func (t *Telemetry) DumpScenario() (*hunt.Scenario, error) {
	if t == nil || t.fl == nil {
		return nil, errFlightOff
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.fl.dump(t.meta)
}

var errFlightOff = flightOffError{}

type flightOffError struct{}

func (flightOffError) Error() string {
	return "telemetry: flight recorder disabled (FlightDepth 0 or telemetry off)"
}

// Spans returns a copy of the retained wave spans, the currently open wave
// (if any) included as an Open span.
func (t *Telemetry) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, len(t.spans), len(t.spans)+1)
	copy(out, t.spans)
	if t.waveOpen {
		out = append(out, Span{
			Wave:         t.waveNum,
			StartStep:    t.wStartStep,
			StartRound:   t.wStartRound,
			StartNS:      t.wStartNS,
			FeedbackStep: t.wFeedbackStep,
			FeedbackNS:   t.wFeedbackNS,
			Abnormal:     t.wAbnProcs > 0,
			AbnProcs:     t.wAbnProcs,
			Open:         true,
		})
	}
	return out
}

// SpansDropped reports wave spans lost to the MaxSpans cap.
func (t *Telemetry) SpansDropped() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spansDropped
}

// WriteSpans exports the retained wave spans as Chrome trace_event JSON.
func (t *Telemetry) WriteSpans(w io.Writer) error {
	if t == nil {
		return nil
	}
	name := "snappif"
	t.mu.Lock()
	if t.meta.Engine != "" {
		name = "snappif/" + t.meta.Engine
	}
	t.mu.Unlock()
	return WriteTraceEvents(w, name, t.Spans())
}

// Series returns the time-series ring.
func (t *Telemetry) Series() *Series {
	if t == nil {
		return nil
	}
	return t.series
}

// Census returns the current incremental phase census.
func (t *Telemetry) Census() (b, f, c int64) {
	if t == nil {
		return 0, 0, 0
	}
	return t.cenB.Value(), t.cenF.Value(), t.cenC.Value()
}

// Waves returns the completed and abnormal wave counts.
func (t *Telemetry) Waves() (total, abnormal int64) {
	if t == nil {
		return 0, 0
	}
	return t.waves.Value(), t.abnWaves.Value()
}

// Totals returns the committed-step and executed-move counters.
func (t *Telemetry) Totals() (steps, moves int64) {
	if t == nil {
		return 0, 0
	}
	return t.steps.Value(), t.moves.Value()
}

// Hist returns an aggregate histogram by its registry suffix — wave_rounds,
// wave_steps, wave_ns, step_ns, eval_ns, or commit_ns — or nil for unknown
// names and disabled telemetry.
func (t *Telemetry) Hist(name string) *obs.LogHist {
	if t == nil {
		return nil
	}
	switch name {
	case "wave_rounds":
		return &t.waveRounds
	case "wave_steps":
		return &t.waveSteps
	case "wave_ns":
		return &t.waveNS
	case "step_ns":
		return &t.stepNS
	case "eval_ns":
		return &t.evalNS
	case "commit_ns":
		return &t.commitNS
	}
	return nil
}

// PublishTo registers every aggregate under reg (which the caller exposes
// via reg.Publish / pifexp -http):
//
//	telemetry.steps            counter   committed steps
//	telemetry.moves            counter   action executions
//	telemetry.waves            counter   completed waves
//	telemetry.abnormal_waves   counter   waves started over B/F leftovers
//	telemetry.census_{b,f,c}   gauge     incremental phase census
//	telemetry.wave_rounds      loghist   rounds per completed wave
//	telemetry.wave_steps       loghist   steps per completed wave
//	telemetry.wave_ns          loghist   wall time per completed wave
//	telemetry.step_ns          loghist   wall time per step
//	telemetry.series           series    sampled time-series ring
//	flat.guard.hits/misses     counter   hbits guard-cache tallies
//	flat.sweep.eval_ns         loghist   guard-refresh duration per step
//	flat.sweep.commit_ns       loghist   commit duration per step
func (t *Telemetry) PublishTo(reg *obs.Registry) {
	if t == nil || reg == nil {
		return
	}
	reg.Register("telemetry.steps", &t.steps)
	reg.Register("telemetry.moves", &t.moves)
	reg.Register("telemetry.waves", &t.waves)
	reg.Register("telemetry.abnormal_waves", &t.abnWaves)
	reg.Register("telemetry.census_b", &t.cenB)
	reg.Register("telemetry.census_f", &t.cenF)
	reg.Register("telemetry.census_c", &t.cenC)
	reg.Register("telemetry.wave_rounds", &t.waveRounds)
	reg.Register("telemetry.wave_steps", &t.waveSteps)
	reg.Register("telemetry.wave_ns", &t.waveNS)
	reg.Register("telemetry.step_ns", &t.stepNS)
	reg.Register("telemetry.series", t.series)
	reg.Register("flat.guard.hits", &t.guardHits)
	reg.Register("flat.guard.misses", &t.guardMisses)
	reg.Register("flat.sweep.eval_ns", &t.evalNS)
	reg.Register("flat.sweep.commit_ns", &t.commitNS)
}
