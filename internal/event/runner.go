package event

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"snappif/internal/core"
	"snappif/internal/flat"
	"snappif/internal/sim"
	"snappif/internal/telemetry"
)

// Options configures an event-engine run. The embedded sim.Options keep
// their meaning and defaults, exactly as in the sim engine, with one bound:
// MaxSteps may be at most 2³¹−1 (math.MaxInt32), because the runner keeps
// its per-processor step and round stamps in int32 columns. NewRunner
// refuses a larger MaxSteps.
type Options struct {
	sim.Options

	// Latency, when non-nil, puts the runner in discrete-event mode: the
	// schedule is generated internally from the virtual-time wake queue and
	// this per-link delay distribution, and the daemon argument is ignored
	// (may be nil). When nil, the runner executes an external daemon's
	// schedule — the degenerate zero-latency case — with sim.Runner's
	// exact observable behavior.
	Latency Latency

	// Telemetry, when non-nil, receives the per-step aggregation hook. In
	// latency mode StepInfo.Step carries the batch's *virtual time*, which
	// is sparse: consecutive committed batches may be many ticks apart.
	Telemetry *telemetry.Telemetry

	// TelemetryMeta labels the run; NewRunner fills G, Engine ("event"),
	// Daemon, and NextMsg when unset.
	TelemetryMeta telemetry.RunMeta

	// VClock, when non-nil, is advanced to the run's virtual time after
	// every committed step. Wiring it as the telemetry Clock timestamps
	// wave spans in virtual time instead of wall time.
	VClock *VirtualClock

	// Gate, when non-nil, filters the induced schedule (latency mode only):
	// a woken processor whose enabled action a fails Gate(p, a) is withheld
	// from the batch and its wake consumed. The caller owns the lost-wakeup
	// cure — whoever opens the gate must call Runner.Wake for the withheld
	// processor. A fully gated quiescent schedule parks (Idle) instead of
	// reporting a drained-queue invariant violation or terminating, so a
	// gated runner must be driven through ServeStep, never Run.
	Gate func(p int, a int32) bool
}

// Run executes the kernel on configuration c (mutated in place) until a
// terminal configuration, the stop predicate, or the step limit — the
// event-engine counterpart of sim.Run, with the same error contract.
func Run(c *flat.Config, k *flat.Protocol, d sim.Daemon, opts Options) (sim.Result, error) {
	if opts.Gate != nil {
		// A gated schedule can park without terminating; Run would spin on
		// the no-progress steps forever.
		return sim.Result{}, fmt.Errorf("event: Run does not support a gated schedule; drive Runner.ServeStep")
	}
	r, err := NewRunner(c, k, d, opts)
	if err != nil {
		return sim.Result{}, err
	}
	for {
		done, err := r.Step()
		if done {
			return r.Result(), err
		}
	}
}

// Runner is the discrete-event stepping loop over internal/flat's
// struct-of-arrays state. Per-step work is bounded by the step's activity —
// the batch, its closed neighborhoods (the kernel's statically certified
// invalidation radius), and the enabled-set churn — never by N:
//
//   - The guard cache (hbits + per-processor action slot) re-evaluates only
//     the movers and the processors that can read what they wrote
//     (flat.Protocol.Readers), in ascending order: a subset of the closed
//     neighborhood (the guards' locality radius) with the same resulting
//     cache as re-evaluating all of it.
//   - Round accounting is epoch-based: a sequence number replaces a
//     Θ(N/64) pending-bitset copy at every round boundary, which at
//     N = 10⁶ under the synchronous daemon would be an O(N) cost *per
//     step*.
//   - In latency mode the schedule itself comes from the wake queue, so a
//     one-processor frontier steps in O(1) regardless of N.
//
// The runner's per-processor columns follow the configuration's slot layout
// (see flat.Config): the guard cache, the dirty set and the round and
// fairness columns index by slot, and a step stages, commits and re-guards
// its moves in ascending slot order, so the few BFS layers a synchronous
// step moves are a few contiguous runs of memory. Processor IDs remain the
// currency at the boundary: daemons, observers, telemetry, the wake queue
// and the gate see choices in ascending processor ID, as in the sim engine.
//
// In external-daemon mode the Runner reproduces sim.Runner bit for bit:
// same RNG draw sequence, same moves, rounds, fairness forcing, observer
// callback order, and step-limit error. The differential grid and fuzz
// target enforce this.
type Runner struct {
	c    *flat.Config
	k    *flat.Protocol
	d    sim.Daemon // nil in latency mode
	lat  Latency    // nil in external-daemon mode
	opts Options
	rng  *rand.Rand

	names []string
	res   sim.Result
	rs    sim.RunState

	// Guard cache, by slot: acts[s] is the enabled action at slot s or
	// flat.NoAction, enabled the corresponding slot set. buf is the choice
	// list in ascending processor ID, rebuilt only after a change.
	acts     []int32
	enabled  *hbits
	buf      []sim.Choice
	bufValid bool

	// The daemon's copy of the choice list and the step's selection, in
	// ascending processor ID. The moves the step executes are the selection
	// in ascending slot order with the slot in Proc (see slotOrder); order
	// is the scratch set that converts between the two orders, nil under
	// the identity layout, where the two lists are one. have marks the
	// selection by processor ID for the fairness dedup. hw is the capacity
	// every per-step buffer has been grown to.
	daemonBuf []sim.Choice
	selBuf    []sim.Choice
	order     *hbits
	orderAct  []int8 // by processor ID: the action choices carries through order
	have      bitmark
	hw        int

	root int // the root's slot

	// The per-slot step and epoch stamps are int32: a run has at most
	// MaxSteps ≤ math.MaxInt32 steps, and no more rounds than steps.
	lastReset []int32 // step of p's last move (its fairness age's origin)

	// Epoch-based round accounting. A processor is pending in the current
	// round iff it is enabled, was already enabled when the round started
	// (enabledSince ≤ roundStart), and has not left yet (removedSeq ≠
	// roundSeq). A round boundary is then O(1): bump roundSeq — which
	// implicitly empties the removed set — and snapshot the enabled count.
	roundSeq     int32   // current round epoch, starts at 1
	roundStart   int32   // step at which the current round's snapshot was taken
	enabledSince []int32 // step of p's last disabled→enabled transition
	removedSeq   []int32 // round epoch in which p last left the round
	pendingCount int
	enabledCount int

	// dirty is the set of slots whose guards refresh re-evaluates.
	dirty *hbits

	// stage holds the write set of each move, in moves order.
	stage []flat.Write

	actionMoves []int
	actPrev     []int
	packBuf     []uint32

	mirror *sim.Configuration
	facade *sim.Configuration

	// Latency mode: the wake queue, the current virtual time, and the
	// woken ∧ enabled ∧ admitted processors of the batch being assembled,
	// all by processor ID.
	q     *queue
	vtime int64
	batch *hbits

	// Serving-layer gating (latency mode only): the admission filter, the
	// current ServeStep bound (-1 = unbounded), and whether the last Step
	// committed a batch (vs parking or stopping short of the bound).
	gate       func(p int, a int32) bool
	limit      int64
	progressed bool

	tel         *telemetry.Telemetry
	telSrc      *telSource
	guardHits   int64
	guardMisses int64

	finished bool
	err      error
}

// telSource adapts flat.Config to telemetry.StateSource.
type telSource struct{ c *flat.Config }

func (s *telSource) N() int { return s.c.N() }

func (s *telSource) AppendCanonical(b []byte) ([]byte, error) { return s.c.AppendCanonical(b), nil }

func (s *telSource) Census() (b, f, cl int) { return s.c.Census() }

// NewRunner prepares an event-engine run of kernel k on configuration c
// (mutated in place). With opts.Latency nil the schedule comes from daemon
// d; with a Latency the schedule is generated internally and d may be nil.
// A mirror boxed configuration is maintained exactly when observers or a
// stop predicate need one; mutating observers are rejected — they would
// desync the mirror from the SoA state (use the sim engine for mid-run
// fault injection).
func NewRunner(c *flat.Config, k *flat.Protocol, d sim.Daemon, opts Options) (*Runner, error) {
	if c.N() != k.Graph().N() {
		return nil, fmt.Errorf("event: configuration has %d processors, kernel network %d", c.N(), k.Graph().N())
	}
	if opts.Latency == nil && d == nil {
		return nil, fmt.Errorf("event: need a daemon or a latency distribution")
	}
	if opts.Gate != nil && opts.Latency == nil {
		return nil, fmt.Errorf("event: Gate requires a latency distribution (the external-daemon path has no wake queue to park)")
	}
	for _, o := range opts.Observers {
		if mo, ok := o.(sim.MutatingObserver); ok && mo.MutatesConfiguration() {
			return nil, fmt.Errorf("event: mutating observers are not supported (observer %T)", o)
		}
	}
	if opts.MaxSteps <= 0 {
		opts.MaxSteps = 1_000_000
	}
	if opts.MaxSteps > math.MaxInt32 {
		return nil, fmt.Errorf("event: MaxSteps %d exceeds the event engine's bound of %d steps", opts.MaxSteps, math.MaxInt32)
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	if opts.FairnessAge <= 0 {
		opts.FairnessAge = 4 * c.N()
	}
	n := c.N()
	r := &Runner{
		c:    c,
		k:    k,
		d:    d,
		lat:  opts.Latency,
		opts: opts,
		rng:  rand.New(rand.NewSource(opts.Seed)),

		names:     k.ActionNames(),
		acts:      make([]int32, n),
		enabled:   newHbits(n),
		have:      newBitmark(n),
		root:      c.Slot(k.Root),
		lastReset: make([]int32, n),

		roundSeq:     1,
		enabledSince: make([]int32, n),
		removedSeq:   make([]int32, n),

		dirty: newHbits(n),

		gate:  opts.Gate,
		limit: -1,
	}
	r.actionMoves = make([]int, len(r.names))
	r.actPrev = make([]int, len(r.names))
	r.res = sim.Result{MovesPerAction: make(map[string]int, len(r.names))}

	if len(opts.Observers) > 0 || opts.StopWhen != nil {
		r.mirror = c.ToSim()
		r.facade = r.mirror
	} else {
		r.facade = &sim.Configuration{G: c.G}
	}
	r.rs = sim.RunState{Config: r.mirror}
	if !c.Identity() {
		r.order = newHbits(n)
		r.orderAct = make([]int8, n)
	}

	for s := 0; s < n; s++ {
		a := k.EnabledAction(c, s)
		r.acts[s] = a
		if a != flat.NoAction {
			r.enabled.set(s)
		}
	}
	r.enabledCount = r.enabled.count()
	r.pendingCount = r.enabledCount
	if r.lat == nil {
		r.reserve(r.enabledCount)
	}

	if opts.StopWhen != nil && opts.StopWhen(&r.rs) {
		r.res.Stopped = true
		r.finish()
		return r, nil
	}

	if r.lat != nil {
		r.q = newQueue(r.lat.Max() + 2)
		r.batch = newHbits(n)
		// Seed: every initially enabled processor wakes at tick 1 — the
		// liveness invariant "enabled ⇒ wake pending" holds from the start.
		r.enabled.forEach(func(s int) { //snapvet:ok non-escaping closure, stack-allocated
			r.q.push(1, int32(c.Proc(s)))
		})
	}

	if opts.Telemetry.Enabled() {
		r.tel = opts.Telemetry
		r.telSrc = &telSource{c: c}
		meta := opts.TelemetryMeta
		if meta.G == nil {
			meta.G = c.G
		}
		if meta.Engine == "" {
			meta.Engine = "event"
		}
		if meta.Daemon == "" {
			meta.Daemon = r.daemonName()
		}
		meta.Root = k.Root
		if k.Lmax != c.N()-1 {
			meta.Lmax = k.Lmax
		}
		if k.NPrime != c.N() {
			meta.NPrime = k.NPrime
		}
		if meta.NextMsg == nil {
			meta.NextMsg = k.NextMsg
		}
		r.tel.BeginRun(meta, r.telSrc)
	}
	return r, nil
}

// daemonName labels the schedule source: the external daemon's name, or the
// induced schedule's "event:<distribution>".
func (r *Runner) daemonName() string {
	if r.lat != nil {
		return "event:" + r.lat.Name()
	}
	return r.d.Name()
}

// Result returns the run summary accumulated so far, with sim.Runner's
// exact contract: Final is nil until the run ends, and MovesPerAction has a
// key for exactly the actions that executed at least once.
func (r *Runner) Result() sim.Result {
	for a, n := range r.actionMoves {
		if n != 0 {
			r.res.MovesPerAction[r.names[a]] = n
		}
	}
	return r.res
}

// Mirror returns the boxed configuration kept in sync with the flat state,
// or nil when no observers or stop predicate requested one.
func (r *Runner) Mirror() *sim.Configuration { return r.mirror }

// VirtualTime returns the virtual time of the last committed batch (in
// external-daemon mode, the committed step count — the zero-latency
// degenerate clock).
func (r *Runner) VirtualTime() int64 { return r.vtime }

// QueueDepth returns the wake queue's entry count (0 in external-daemon
// mode).
func (r *Runner) QueueDepth() int {
	if r.q == nil {
		return 0
	}
	return r.q.depth()
}

// EnabledCount returns the number of currently enabled processors — the
// guard cache's incremental count.
func (r *Runner) EnabledCount() int { return r.enabledCount }

// EnabledActionOf returns processor p's cached enabled action or
// flat.NoAction. The serving layer's park check reads it to decide whether
// a gated lane has quiesced down to exactly the withheld root broadcast.
func (r *Runner) EnabledActionOf(p int) int32 { return r.acts[r.c.Slot(p)] }

// NextWake returns the virtual time of the earliest pending wake, or -1
// when the queue is empty (or the runner is in external-daemon mode). The
// serving layer fast-forwards across idle gaps with it.
func (r *Runner) NextWake() int64 {
	if r.q == nil {
		return -1
	}
	t, ok := r.q.peek()
	if !ok {
		return -1
	}
	return t
}

// Idle reports whether the induced schedule has no effective work left at
// any future time: the wake queue is drained and everything still enabled
// is withheld by the gate (or nothing is enabled at all). An idle gated
// runner resumes only through Wake.
func (r *Runner) Idle() bool {
	if r.finished {
		return true
	}
	if r.q == nil {
		return r.enabledCount == 0
	}
	if r.q.depth() > 0 {
		return false
	}
	if r.enabledCount == 0 {
		return true
	}
	return r.gate != nil && !r.anyEnabledUngated()
}

// anyEnabledUngated reports whether some enabled processor's action passes
// the gate — the discriminator between a gated park and a genuine lost
// wakeup when the queue drains.
func (r *Runner) anyEnabledUngated() bool {
	any := false
	r.enabled.forEach(func(s int) { //snapvet:ok non-escaping closure over r, stack-allocated
		if !any && r.gate(r.c.Proc(s), r.acts[s]) {
			any = true
		}
	})
	return any
}

// Wake schedules an out-of-band re-evaluation of p at virtual time at and
// returns the effective (clamped) time — the serving layer's lost-wakeup
// cure when its admission gate opens. Early delivery is always sound
// (wakes are re-evaluation hints, deduplicated and filtered at pop time),
// so the queue clamps rather than rejects out-of-window times; see
// queue.wake. Latency mode only.
func (r *Runner) Wake(p int, at int64) int64 {
	if r.q == nil {
		panic("event: Wake requires latency mode")
	}
	return r.q.wake(at, int32(p))
}

// ServeStep advances the induced schedule by at most one effective batch
// whose virtual time is ≤ limit (limit < 0 means unbounded). It returns
// progressed=false — with nothing committed — when the earliest effective
// batch lies beyond limit or the schedule is gate-parked; stale wakes at or
// before limit (disabled or withheld processors) are consumed either way.
// Errors carry Step's contract (step limit, lost wakeup). Latency mode
// only: this is the serving layer's tick-bounded drive.
func (r *Runner) ServeStep(limit int64) (progressed bool, err error) {
	if r.lat == nil {
		return false, fmt.Errorf("event: ServeStep requires latency mode")
	}
	if r.finished {
		return false, r.err
	}
	r.limit = limit
	_, err = r.Step()
	r.limit = -1
	if err != nil {
		return false, err
	}
	return r.progressed, nil
}

// finish seals the run and materializes Result.Final.
//
//snapvet:coldpath runs once when the run terminates, not per step
func (r *Runner) finish() {
	r.finished = true
	if r.mirror != nil {
		r.res.Final = r.mirror
	} else {
		r.res.Final = r.c.ToSim()
	}
}

// Step executes one committed step — one daemon selection, or one effective
// wake batch — with sim.Runner.Step's exact contract.
//
//snapvet:hotpath
func (r *Runner) Step() (done bool, err error) {
	if r.finished {
		return true, r.err
	}
	stepStart := r.tel.Now() // 0 when telemetry is off or has no clock
	var rootBefore core.Phase
	if r.tel != nil {
		rootBefore = r.c.Phase(r.k.Root)
		r.guardHits, r.guardMisses = 0, 0
	}

	var selected []sim.Choice
	var all bool // the selection is the whole enabled set
	if r.lat == nil {
		if r.enabledCount > r.hw {
			r.reserve(r.enabledCount)
		}
		enabled := r.choices()
		if len(enabled) == 0 {
			r.res.Terminal = true
			r.finish()
			return true, nil
		}
		if r.res.Steps >= r.opts.MaxSteps {
			//snapvet:ok cold step-limit failure path, allocation acceptable
			r.err = fmt.Errorf("sim: %s under %s after %d steps (%d rounds): %w",
				r.k.Name(), r.daemonName(), r.res.Steps, r.res.Rounds, sim.ErrStepLimit) //snapvet:ok cold step-limit failure path, allocation acceptable
			r.finish()
			return true, r.err
		}
		// Selection: same buffers, same RNG draw sequence as sim.Runner.
		r.daemonBuf = append(r.daemonBuf[:0], enabled...)
		sel := r.d.Select(r.res.Steps, r.facade, r.daemonBuf, r.rng)
		r.selBuf = append(r.selBuf[:0], sel...)
		var distinct int
		r.selBuf, distinct = r.forceAged(r.selBuf, enabled)
		if len(r.selBuf) == 0 {
			// Defensive: a daemon must select at least one processor.
			r.selBuf = append(r.selBuf, enabled[r.rng.Intn(len(enabled))])
			distinct = 1
		}
		selected = r.selBuf
		all = distinct == len(enabled)
	} else {
		if r.enabledCount == 0 {
			if r.gate != nil {
				// Gated quiescence is not termination: the gate may open
				// and a Wake re-arm the schedule.
				r.progressed = false
				return false, nil
			}
			r.progressed = false
			r.res.Terminal = true
			r.finish()
			return true, nil
		}
		if r.res.Steps >= r.opts.MaxSteps {
			//snapvet:ok cold step-limit failure path, allocation acceptable
			r.err = fmt.Errorf("sim: %s under %s after %d steps (%d rounds): %w",
				r.k.Name(), r.daemonName(), r.res.Steps, r.res.Rounds, sim.ErrStepLimit) //snapvet:ok cold step-limit failure path, allocation acceptable
			r.finish()
			return true, r.err
		}
		selected, err = r.nextBatch()
		if err != nil {
			r.err = err
			r.finish()
			return true, err
		}
		if selected == nil {
			// No effective batch within the ServeStep bound, or a gated
			// park: nothing committed, nothing consumed beyond stale wakes.
			r.progressed = false
			return false, nil
		}
		// Wakes are drawn before the commit (scheduling reads no state) in
		// the same (mover asc × CSR neighbor) order InducedDaemon draws at
		// Select time, keeping the two schedules' RNG streams aligned.
		r.scheduleWakes(selected)
		all = len(selected) == r.enabledCount
	}

	// Execute: stage every next state from the pre-step slices, then
	// scatter-commit, both in ascending slot order. Composite atomicity,
	// distributed daemon.
	var commitStart int64
	if stepStart > 0 {
		commitStart = r.tel.Now()
	}
	moves := r.slotOrder(selected, all)
	if len(moves) > r.hw {
		r.reserve(len(moves))
	}
	for i, ch := range moves {
		r.k.Stage(r.c, ch.Proc, int32(ch.Action), &r.stage[i])
	}
	for i, ch := range moves {
		r.k.Commit(r.c, ch.Proc, int32(ch.Action), &r.stage[i])
	}
	packed := false
	if r.tel != nil {
		packed = r.tel.WantPacked()
	}
	if packed {
		n := len(selected)
		if cap(r.packBuf) < n {
			r.packBuf = make([]uint32, n, 2*n) //snapvet:ok amortized buffer growth, recycled via recorder swap
		} else {
			r.packBuf = r.packBuf[:n]
		}
		for i, ch := range selected {
			r.packBuf[i] = telemetry.PackChoice(ch.Proc, ch.Action)
		}
	}
	var commitNS int64
	if commitStart > 0 {
		commitNS = r.tel.Now() - commitStart
	}
	var db, df, dc int
	if r.tel != nil {
		copy(r.actPrev, r.actionMoves)
	}
	for _, ch := range selected {
		r.res.Moves++
		r.actionMoves[ch.Action]++
	}
	if r.tel != nil {
		root := r.k.Root
		rootAct := -1
		if r.enabled.test(r.root) {
			for _, ch := range selected {
				if ch.Proc == root {
					rootAct = ch.Action
					break
				}
			}
		}
		db, df, dc = flat.CensusDeltas(r.actionMoves, r.actPrev, rootAct, rootBefore, r.c.Phase(root))
	}
	r.res.Steps++
	r.progressed = true
	r.rs.Steps, r.rs.Moves = r.res.Steps, r.res.Moves
	steps := r.res.Steps
	if r.lat == nil {
		r.vtime = int64(steps)
	}
	if r.opts.VClock != nil {
		r.opts.VClock.set(r.vtime)
	}

	// Executed processors leave the round and restart their fairness age.
	for _, ch := range moves {
		s := ch.Proc
		r.lastReset[s] = int32(steps)
		if r.enabledSince[s] <= r.roundStart && r.removedSeq[s] != r.roundSeq {
			r.removedSeq[s] = r.roundSeq
			r.pendingCount--
		}
	}

	if r.mirror != nil {
		for _, ch := range moves {
			p := r.c.Proc(ch.Proc)
			*(r.mirror.States[p].(*core.State)) = r.c.StateAt(p)
		}
	}
	for _, o := range r.opts.Observers {
		o.OnStep(steps, selected, r.mirror)
	}

	var evalStart int64
	if stepStart > 0 {
		evalStart = r.tel.Now()
	}
	r.refresh(moves)
	var evalNS int64
	if evalStart > 0 {
		evalNS = r.tel.Now() - evalStart
	}

	for _, o := range r.opts.Observers {
		if eo, ok := o.(sim.EnabledObserver); ok {
			eo.OnEnabled(steps, r.enabledCount)
		}
	}

	if r.tel != nil {
		r.telStep(selected, packed, rootBefore, db, df, dc, stepStart, evalNS, commitNS)
	}

	// Round boundary: every processor pending since the round started has
	// now executed or been disabled. Bumping the epoch empties the removed
	// set; the new snapshot is the enabled set by the membership predicate
	// (everything currently enabled has enabledSince ≤ the new roundStart).
	if r.pendingCount == 0 {
		r.res.Rounds++
		r.rs.Rounds = r.res.Rounds
		for _, o := range r.opts.Observers {
			if ro, ok := o.(sim.RoundObserver); ok {
				ro.OnRound(r.res.Rounds, r.mirror)
			}
		}
		r.roundSeq++
		r.roundStart = int32(steps)
		r.pendingCount = r.enabledCount
	}

	// Clear the fairness dedup marks set this step (external-daemon mode
	// only; latency mode never marks).
	if r.lat == nil {
		for _, ch := range selected {
			r.have.clear(ch.Proc)
		}
	}

	if r.opts.StopWhen != nil && r.opts.StopWhen(&r.rs) {
		r.res.Stopped = true
		r.finish()
		return true, nil
	}
	return false, nil
}

// nextBatch advances the wake queue to the next effective batch: the woken
// processors (deduplicated) that are currently enabled — and, under a gate,
// admitted — in ascending processor order. Ticks whose batch is entirely
// disabled or withheld are consumed silently — they are not computation
// steps. A nil, nil return means no progress without failure: the earliest
// effective batch lies beyond the ServeStep bound, or the schedule is
// gate-parked (queue drained with every enabled action withheld).
//
//snapvet:hotpath
func (r *Runner) nextBatch() ([]sim.Choice, error) {
	for {
		t, ok := r.q.peek()
		if !ok {
			if r.gate != nil && !r.anyEnabledUngated() {
				return nil, nil
			}
			//snapvet:ok cold invariant-violation failure path
			return nil, fmt.Errorf("event: wake queue drained with %d processors enabled (lost wakeup)", r.enabledCount)
		}
		if r.limit >= 0 && t > r.limit {
			return nil, nil
		}
		// The batch set dedups a processor woken several times in the tick
		// and orders the batch; a withheld duplicate asks the (pure) gate
		// again and gets the same answer.
		_, bucket, _ := r.q.pop()
		for _, p := range bucket {
			a := r.acts[r.c.Slot(int(p))]
			if a == flat.NoAction || r.batch.test(int(p)) {
				continue
			}
			if r.gate != nil && !r.gate(int(p), a) {
				// Withheld: the wake is consumed. The gate opener owns the
				// re-arm (Runner.Wake) — see Options.Gate.
				continue
			}
			r.batch.set(int(p))
		}
		n := r.batch.count()
		if n == 0 {
			continue
		}
		if n > r.hw {
			r.reserve(n)
		}
		r.selBuf = r.selBuf[:0]
		r.batch.drain(func(p int) { //snapvet:ok non-escaping closure over r, stack-allocated (proved by the CI alloc gates)
			r.selBuf = append(r.selBuf, sim.Choice{Proc: p, Action: int(r.acts[r.c.Slot(p)])})
		})
		r.vtime = t
		return r.selBuf, nil
	}
}

// scheduleWakes posts the batch's consequences: each mover re-evaluates at
// t+1 (its own state changed) and each of its neighbors at t+1+latency.
// Draw order is mover-ascending (by processor ID) × ≺_p neighbor order, the
// order of the mover's slot adjacency — InducedDaemon must draw
// identically.
//
//snapvet:hotpath
func (r *Runner) scheduleWakes(selected []sim.Choice) {
	t := r.vtime
	for _, ch := range selected {
		p := int32(ch.Proc)
		r.q.push(t+1, p)
		for _, nb := range r.c.Neighbors(r.c.Slot(ch.Proc)) {
			q := int32(r.c.Proc(int(nb)))
			r.q.push(t+1+r.lat.Sample(r.rng, p, q), q)
		}
	}
}

// telStep assembles and delivers the step's StepInfo. In latency mode the
// Step stamp is the batch's virtual time — sparse, strictly increasing; in
// external-daemon mode it equals the committed step count, making the
// telemetry stream byte-compatible with the sim engine's.
func (r *Runner) telStep(selected []sim.Choice, packed bool, rootBefore core.Phase, db, df, dc int, startNS, evalNS, commitNS int64) {
	root := r.k.Root
	var stepNS int64
	if startNS > 0 {
		stepNS = r.tel.Now() - startNS
	}
	var packedBuf *[]uint32
	if packed {
		packedBuf = &r.packBuf
	}
	r.tel.Step(telemetry.StepInfo{
		Step:        int(r.vtime),
		Executed:    selected,
		Packed:      packedBuf,
		Enabled:     r.enabledCount,
		Rounds:      r.res.Rounds,
		RootBefore:  rootBefore,
		RootAfter:   r.c.Phase(root),
		RootMsg:     r.c.Msg(root),
		NextMsg:     r.k.NextMsg(),
		DB:          db,
		DF:          df,
		DC:          dc,
		GuardHits:   r.guardHits,
		GuardMisses: r.guardMisses,
		QueueDepth:  r.QueueDepth(),
		EvalNS:      evalNS,
		CommitNS:    commitNS,
		StepNS:      stepNS,
	}, r.telSrc)
}

// choices returns the enabled list in ascending processor order, rebuilding
// the reusable buffer only after a refresh changed some processor's action.
// Under a slot layout the enabled slots are re-sorted by processor ID
// through the order set.
//
//snapvet:hotpath
func (r *Runner) choices() []sim.Choice {
	if r.bufValid {
		return r.buf
	}
	r.buf = r.buf[:0]
	if r.order == nil {
		r.enabled.forEach(func(p int) { //snapvet:ok non-escaping closure over r, stack-allocated (proved by the CI alloc gates)
			r.buf = append(r.buf, sim.Choice{Proc: p, Action: int(r.acts[p])})
		})
	} else {
		r.enabled.forEach(func(s int) { //snapvet:ok non-escaping closure over r, stack-allocated (proved by the CI alloc gates)
			p := r.c.Proc(s)
			r.order.set(p)
			r.orderAct[p] = int8(r.acts[s])
		})
		r.order.drain(func(p int) { //snapvet:ok non-escaping closure over r, stack-allocated (proved by the CI alloc gates)
			r.buf = append(r.buf, sim.Choice{Proc: p, Action: int(r.orderAct[p])})
		})
	}
	r.bufValid = true
	return r.buf
}

// slotOrder returns the step's moves in ascending slot order, each choice's
// Proc replaced by its slot. Under the identity layout that is the
// selection itself. Otherwise a daemon selects from the enabled list and
// the PIF guards are mutually exclusive, so each move's action is the
// cached one: a selection of the whole enabled set (all) is the enabled
// set in slot order, and any other is re-sorted through the order set. The
// list is written over daemonBuf, which is dead once the selection has
// been copied to selBuf.
//
//snapvet:hotpath
func (r *Runner) slotOrder(selected []sim.Choice, all bool) []sim.Choice {
	if r.order == nil {
		return selected
	}
	if !all {
		for _, ch := range selected {
			r.order.set(r.c.Slot(ch.Proc))
		}
	}
	moves := r.daemonBuf[:0]
	add := func(s int) { //snapvet:ok non-escaping closure, stack-allocated (proved by the CI alloc gates)
		moves = append(moves, sim.Choice{Proc: s, Action: int(r.acts[s])})
	}
	if all {
		r.enabled.forEach(add)
	} else {
		r.order.drain(add)
	}
	r.daemonBuf = moves
	return moves
}

// reserve is the one growth point of the per-step buffers: the selection,
// the stage, under an external daemon the choice list and the daemon's
// copy, and under a slot layout the moves (which slotOrder writes over the
// daemon's copy). A step needs at most one entry per enabled processor
// under an external daemon, and one per woken processor of the batch in
// latency mode, so the buffers grow only when that count passes the
// high-water mark hw, and then to a quarter above the new mark: a widening
// front costs a logarithmic number of growths over a run, none per step.
//
//snapvet:coldpath runs only when a step passes the high-water mark, a logarithmic number of times per run
func (r *Runner) reserve(n int) {
	r.hw = n + n/4
	if r.lat == nil {
		r.buf = slices.Grow(r.buf, r.hw-len(r.buf)) // keeps a valid choice list
	}
	if r.lat == nil || r.order != nil {
		r.daemonBuf = slices.Grow(r.daemonBuf[:0], r.hw)
	}
	r.selBuf = slices.Grow(r.selBuf[:0], r.hw)
	r.stage = make([]flat.Write, r.hw)
}

// AppendEnabled appends the currently enabled choices to buf in ascending
// processor order and returns the extended buffer: before the first Step
// the initial configuration's, after a Step the post-step configuration's,
// read from the guard cache rather than recomputed. Mirrors
// sim.Runner.AppendEnabled for the exhaustive explorer.
//
//snapvet:hotpath
func (r *Runner) AppendEnabled(buf []sim.Choice) []sim.Choice {
	buf = append(buf, r.choices()...)
	return buf
}

// forceAged is sim.Runner.forceAged over virtual ages: every enabled
// processor whose age reached the fairness bound joins the selection once,
// consuming one Intn(1) draw — the generic runner's per-group draw (the PIF
// guards are mutually exclusive, so each group is one choice) — to keep the
// engines' draw sequences aligned. Latency mode never calls it — the
// induced schedule is intrinsically weakly fair (an enabled processor
// executes within Latency.Max()+1 ticks), and the differential harness pins
// equivalence with sim-under-InducedDaemon for FairnessAge > Max()+1, where
// sim's forcing never fires either.
//
// It also returns the number of distinct processors in the final
// selection, which tells slotOrder whether the step moves every enabled
// processor.
//
//snapvet:hotpath
func (r *Runner) forceAged(selected, enabled []sim.Choice) ([]sim.Choice, int) {
	distinct := 0
	for _, ch := range selected {
		if !r.have.test(ch.Proc) {
			r.have.set(ch.Proc)
			distinct++
		}
	}
	bound := r.opts.FairnessAge
	steps := r.res.Steps
	for i := range enabled {
		proc := enabled[i].Proc
		if !r.have.test(proc) && steps-int(r.lastReset[r.c.Slot(proc)]) >= bound {
			selected = append(selected, enabled[i+r.rng.Intn(1)])
			r.have.set(proc)
			distinct++
		}
	}
	return selected, distinct
}

// refresh re-evaluates the guards of every processor that can read what the
// executed moves wrote — each mover and the kernel's Readers of its move,
// at most its closed neighborhood (the invalidation radius 1 that snapvet's
// radiusbound analyzer certifies against Protocol.DirtyRadius) — and
// commits the changes to the enabled set, the choice buffer, the round's
// pending count, and the fairness ages. moves holds slots. The per-slot
// updates commute, so the ascending drain of the dirty set only buys
// memory locality.
//
//snapvet:hotpath
func (r *Runner) refresh(moves []sim.Choice) {
	for _, ch := range moves {
		r.dirty.set(ch.Proc)
		for _, q := range r.k.Readers(r.c, ch.Proc, int32(ch.Action)) {
			r.dirty.set(int(q))
		}
	}
	r.dirty.drain(r.reguard)
}

// reguard re-evaluates the guard at slot p and commits a change of its
// enabled action to the runner's incremental state.
//
//snapvet:hotpath
func (r *Runner) reguard(p int) {
	a := r.k.EnabledAction(r.c, p)
	old := r.acts[p]
	if a == old {
		r.guardHits++
		return
	}
	r.guardMisses++
	r.acts[p] = a
	r.bufValid = false
	switch {
	case a == flat.NoAction:
		// Enabled → disabled: p leaves the round.
		r.enabled.clear(p)
		r.enabledCount--
		if r.enabledSince[p] <= r.roundStart && r.removedSeq[p] != r.roundSeq {
			r.removedSeq[p] = r.roundSeq
			r.pendingCount--
		}
	case old == flat.NoAction:
		// Disabled → enabled: age 1 at the end of this step, and the epoch
		// predicate keeps p out of the current round's snapshot
		// (enabledSince > roundStart).
		r.enabled.set(p)
		r.enabledCount++
		r.lastReset[p] = int32(r.res.Steps - 1)
		r.enabledSince[p] = int32(r.res.Steps)
	}
}
