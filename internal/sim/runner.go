package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
)

// ErrStepLimit is returned (wrapped) when a run exhausts Options.MaxSteps
// without reaching a terminal configuration or satisfying StopWhen.
var ErrStepLimit = errors.New("sim: step limit exhausted")

// Observer receives a callback after every committed computation step.
// Implementations that also implement RoundObserver additionally get round
// boundaries.
type Observer interface {
	// OnStep is called after the step's writes commit. executed lists the
	// choices that ran; c is the post-step configuration (read-only). The
	// executed slice is scratch reused across steps: implementations must
	// copy it to retain it past the call.
	OnStep(step int, executed []Choice, c *Configuration)
}

// RoundObserver is an optional extension of Observer notified when a round
// (per the paper's definition) completes.
type RoundObserver interface {
	// OnRound is called when round number round (1-based) completes; c is
	// the configuration at the round boundary.
	OnRound(round int, c *Configuration)
}

// EnabledObserver is an optional extension of Observer receiving the size
// of the enabled set after each step's guard re-evaluation. The runner
// maintains the enabled bitset anyway, so the callback costs one popcount —
// observers get the number without re-evaluating any guard. OnEnabled fires
// after OnStep (and after the incremental cache refresh), before round
// accounting.
type EnabledObserver interface {
	Observer

	// OnEnabled reports the number of enabled processors after step.
	OnEnabled(step, enabled int)
}

// RunState is the evolving state of a run, visible to stop predicates.
type RunState struct {
	Config *Configuration
	Steps  int
	Moves  int
	Rounds int
}

// Options configures a run. The zero value is usable: it means "run to a
// terminal configuration with a default step limit and seed 1".
type Options struct {
	// MaxSteps bounds the number of computation steps (default 1_000_000).
	MaxSteps int
	// Seed seeds the run's private RNG (default 1).
	Seed int64
	// StopWhen, if non-nil, stops the run after any step for which it
	// returns true. It is also evaluated once before the first step.
	StopWhen func(*RunState) bool
	// Observers receive step (and optionally round) callbacks.
	Observers []Observer
	// FairnessAge forces a processor that has been continuously enabled
	// without executing for this many steps to be included in the next
	// step, making any daemon weakly fair (default 4·N steps, minimum 1).
	FairnessAge int
}

// Result summarizes a completed run.
type Result struct {
	// Steps is the number of computation steps executed.
	Steps int
	// Moves is the total number of action executions (≥ Steps).
	Moves int
	// Rounds is the number of *completed* rounds per the paper's
	// definition.
	Rounds int
	// MovesPerAction counts executions per action label.
	MovesPerAction map[string]int
	// Terminal reports whether the run ended in a terminal configuration.
	Terminal bool
	// Stopped reports whether StopWhen ended the run.
	Stopped bool
	// Final is the final configuration.
	Final *Configuration
}

// Run executes protocol p on configuration c (mutated in place) under daemon
// d until a terminal configuration, the stop predicate, or the step limit.
// It returns an error only when the step limit is hit, which in every
// experiment in this repository indicates a bug, not a long run.
func Run(c *Configuration, p Protocol, d Daemon, opts Options) (Result, error) {
	r := NewRunner(c, p, d, opts)
	for {
		done, err := r.Step()
		if done {
			return r.Result(), err
		}
	}
}

// Runner is the stepping form of Run: it holds the run's scratch state
// (bitsets, choice buffers, state boxes) so that a committed step performs
// zero heap allocations once warm. NewRunner + a Step loop is exactly
// equivalent to Run; the split exists for callers that need to observe or
// meter individual steps (the allocation-budget tests, the benchmark
// harness). Reset and ResetWith restart the run in place, so a caller that
// runs many short runs over one configuration (the exhaustive explorer)
// builds one Runner instead of one per run.
type Runner struct {
	c    *Configuration
	p    Protocol
	d    Daemon
	opts Options
	src  lazySource
	rng  *rand.Rand

	names   []string
	moves   []int // moves per action ID since the last restart
	res     Result
	rs      RunState
	inplace InPlaceProtocol
	cache   *enabledCache

	// age[p] counts consecutive steps p has been enabled without executing.
	age []int
	// pending tracks the processors continuously enabled since the start of
	// the current round that have executed neither a protocol action nor
	// the disable action yet.
	pending bitset
	// executed marks the processors that moved in the current step.
	executed bitset
	// have is forceAged's per-step dedup scratch.
	have bitset
	// shadow holds the spare state boxes of the in-place commit path: step
	// i writes into shadow boxes, then swaps them with the live boxes.
	shadow []State
	// stateBuf is the generic (allocating Apply) commit path's staging.
	stateBuf []State
	// daemonBuf is the daemon's private copy of the enabled choices; the
	// daemon may mutate it in place.
	daemonBuf []Choice
	// selBuf accumulates the step's final selection (daemon choice plus
	// fairness-forced processors).
	selBuf []Choice

	finished bool
	err      error
}

// NewRunner prepares a run of protocol p on configuration c (mutated in
// place) under daemon d. The first Step executes the first computation step.
func NewRunner(c *Configuration, p Protocol, d Daemon, opts Options) *Runner {
	if opts.MaxSteps <= 0 {
		opts.MaxSteps = 1_000_000
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
		p:    p,
		d:    d,
		opts: opts,

		age:      make([]int, n),
		pending:  newBitset(n),
		executed: newBitset(n),
		have:     newBitset(n),
		stateBuf: make([]State, n),
	}
	r.rng = rand.New(&r.src)
	r.names = p.ActionNames()
	r.moves = make([]int, len(r.names))
	r.res.MovesPerAction = make(map[string]int, len(r.names))
	r.build()
	r.restart()
	return r
}

// Reset restarts the run from the configuration's current contents, exactly
// as NewRunner with the runner's original arguments would: every
// processor's guards are re-evaluated, the step, move and round counters,
// the fairness ages and the RNG seed start over, and the StopWhen
// pre-check runs again. It keeps every buffer, so once warm a Reset
// allocates nothing; reseeding the RNG is deferred to the run's first draw.
//
// The daemon and the observers belong to the caller and are not reset: a
// stateful daemon (RoundRobin's cursor, Adversarial's memory) carries its
// state into the next run.
//
//snapvet:hotpath
func (r *Runner) Reset() {
	r.cache.reevaluate()
	r.restart()
}

// ResetWith is Reset for a caller that already knows the configuration's
// enabled set: instead of re-evaluating every guard it copies enabled into
// the guard cache. enabled must be exactly what this runner reports for the
// configuration's current contents — AppendEnabled after a NewRunner, Reset
// or Step on these states — in ascending processor order, with every enabled
// action of a processor; the runner then behaves exactly as after Reset. A
// set that disagrees with the guards goes unchecked and stays stale for
// every processor no later step re-evaluates. ResetWith copies enabled and
// never retains it. The exhaustive explorer restarts from a state's stored
// enabled set this way, so an explored transition evaluates only the
// guards its step can change.
//
//snapvet:hotpath
func (r *Runner) ResetWith(enabled []Choice) {
	r.cache.seed(enabled)
	r.restart()
}

// restart starts the run over the guard cache's current contents: it
// zeroes the counters and the fairness ages, reseeds the RNG, opens the
// first round, and runs the StopWhen pre-check.
//
//snapvet:hotpath
func (r *Runner) restart() {
	clear(r.moves)
	r.res = Result{MovesPerAction: r.res.MovesPerAction, Final: r.c}
	r.rs = RunState{Config: r.c}
	clear(r.age)
	r.finished, r.err = false, nil
	r.rng.Seed(r.opts.Seed)
	r.pending.copyFrom(r.cache.enabledBits)

	if r.opts.StopWhen != nil && r.opts.StopWhen(&r.rs) {
		r.res.Stopped = true
		r.finished = true
	}
}

// build creates the guard cache (evaluating every guard) and the shadow
// boxes.
//
//snapvet:coldpath runs once per Runner, in NewRunner
func (r *Runner) build() {
	// cache holds per-processor enabled actions; for LocalProtocol
	// implementations only the moved processors' neighborhoods are
	// re-evaluated after each step. Observers that mutate the
	// configuration (fault injection mid-run) force full re-evaluation.
	incremental := false
	if lp, ok := r.p.(LocalProtocol); ok && lp.GuardsAreLocal() {
		incremental = true
		for _, o := range r.opts.Observers {
			if mo, ok := o.(MutatingObserver); ok && mo.MutatesConfiguration() {
				incremental = false
				break
			}
		}
	}
	r.cache = newEnabledCache(r.c, r.p, incremental)

	// The in-place commit path: protocols that can overwrite state boxes
	// get a shadow box per processor, created once here; each step writes
	// into shadow boxes and swaps them with the live ones, so committing
	// allocates nothing. ApplyInto overwrites its box whole, so the shadow
	// boxes' contents never matter and Reset keeps them.
	if ipp, ok := r.p.(InPlaceProtocol); ok {
		r.inplace = ipp
		r.shadow = make([]State, r.c.N())
		for proc := range r.shadow {
			r.shadow[proc] = r.c.States[proc].Clone()
		}
	}
}

// Result returns the run summary accumulated so far; after Step has
// reported done it is the final result. Its MovesPerAction map, keyed by
// exactly the actions that executed since the run (re)started, is the
// runner's own: the next Result call refills it from the per-action
// counters a step increments.
func (r *Runner) Result() Result {
	clear(r.res.MovesPerAction)
	for a, n := range r.moves {
		if n != 0 {
			r.res.MovesPerAction[r.names[a]] += n
		}
	}
	return r.res
}

// Step executes one computation step. It reports done = true when the run
// has ended — terminal configuration, stop predicate, or step limit (the
// only case with a non-nil error) — after which further calls are no-ops.
//
//snapvet:hotpath
func (r *Runner) Step() (done bool, err error) {
	if r.finished {
		return true, r.err
	}
	enabled := r.cache.choices()
	if len(enabled) == 0 {
		r.res.Terminal = true
		r.finished = true
		return true, nil
	}
	if r.res.Steps >= r.opts.MaxSteps {
		//snapvet:ok cold step-limit failure path, allocation acceptable
		r.err = fmt.Errorf("sim: %s under %s after %d steps (%d rounds): %w",
			r.p.Name(), r.d.Name(), r.res.Steps, r.res.Rounds, ErrStepLimit) //snapvet:ok cold step-limit failure path, allocation acceptable
		r.finished = true
		return true, r.err
	}

	// The daemon gets its own copy of the enabled list (it may filter it in
	// place); the final selection accumulates in selBuf so fairness forcing
	// never grows the daemon's slice.
	r.daemonBuf = append(r.daemonBuf[:0], enabled...)
	selected := r.d.Select(r.res.Steps, r.c, r.daemonBuf, r.rng)
	r.selBuf = append(r.selBuf[:0], selected...)
	r.selBuf = r.forceAged(r.selBuf, enabled)
	if len(r.selBuf) == 0 {
		// Defensive: a daemon must select at least one processor.
		r.selBuf = append(r.selBuf, enabled[r.rng.Intn(len(enabled))])
	}
	selected = r.selBuf

	// Execute: all statements read the pre-step configuration, then all
	// writes commit at once (composite atomicity, distributed daemon).
	r.executed.reset()
	if r.inplace != nil {
		for _, ch := range selected {
			r.inplace.ApplyInto(r.c, ch.Proc, ch.Action, r.shadow[ch.Proc])
		}
		for _, ch := range selected {
			r.c.States[ch.Proc], r.shadow[ch.Proc] = r.shadow[ch.Proc], r.c.States[ch.Proc]
		}
	} else {
		for i, ch := range selected {
			r.stateBuf[i] = r.p.Apply(r.c, ch.Proc, ch.Action)
		}
		for i, ch := range selected {
			r.c.States[ch.Proc] = r.stateBuf[i]
		}
	}
	for _, ch := range selected {
		r.executed.set(ch.Proc)
		r.res.Moves++
		r.moves[ch.Action]++
	}
	r.res.Steps++
	r.rs.Steps, r.rs.Moves = r.res.Steps, r.res.Moves

	for _, o := range r.opts.Observers {
		o.OnStep(r.res.Steps, selected, r.c)
	}

	r.cache.refresh(selected)

	for _, o := range r.opts.Observers {
		if eo, ok := o.(EnabledObserver); ok {
			eo.OnEnabled(r.res.Steps, r.cache.enabledBits.count())
		}
	}

	// Round accounting: a pending processor leaves the round when it
	// executes, or when it becomes disabled (the disable action).
	if r.pending.intersectAndNot(r.cache.enabledBits, r.executed) {
		r.res.Rounds++
		r.rs.Rounds = r.res.Rounds
		for _, o := range r.opts.Observers {
			if ro, ok := o.(RoundObserver); ok {
				ro.OnRound(r.res.Rounds, r.c)
			}
		}
		r.pending.copyFrom(r.cache.enabledBits)
	}

	// Aging for weak fairness.
	for proc := 0; proc < r.c.N(); proc++ {
		switch {
		case !r.cache.enabledBits.test(proc), r.executed.test(proc):
			r.age[proc] = 0
		default:
			r.age[proc]++
		}
	}

	if r.opts.StopWhen != nil && r.opts.StopWhen(&r.rs) {
		r.res.Stopped = true
		r.finished = true
		return true, nil
	}
	return false, nil
}

// EnabledCount returns the number of currently enabled processors — the
// cache's own incremental view, refreshed as part of each committed step.
func (r *Runner) EnabledCount() int { return r.cache.enabledBits.count() }

// EnabledActionsOf returns processor p's cached enabled actions (nil when p
// is disabled). The slice is the cache's storage: read-only, valid until
// the next Step, Reset or ResetWith. The serving layer's park check reads
// it to decide whether a gated lane has fully quiesced.
func (r *Runner) EnabledActionsOf(p int) []int { return r.cache.acts[p] }

// forceAged appends to selected every enabled processor whose age has
// reached the fairness bound, keeping at most one choice per processor.
// enabled is the cache's choice buffer (sorted by processor).
//
//snapvet:hotpath
func (r *Runner) forceAged(selected, enabled []Choice) []Choice {
	r.have.reset()
	for _, ch := range selected {
		r.have.set(ch.Proc)
	}
	bound := r.opts.FairnessAge
	for i := 0; i < len(enabled); {
		j := i
		for j < len(enabled) && enabled[j].Proc == enabled[i].Proc {
			j++
		}
		proc := enabled[i].Proc
		if r.age[proc] >= bound && !r.have.test(proc) {
			selected = append(selected, enabled[i+r.rng.Intn(j-i)])
			r.have.set(proc)
		}
		i = j
	}
	return selected
}

// MutatingObserver marks observers that modify the configuration during
// OnStep (e.g. mid-run fault injection); their presence disables the
// incremental guard-evaluation fast path.
type MutatingObserver interface {
	Observer

	// MutatesConfiguration reports whether OnStep may write to the
	// configuration.
	MutatesConfiguration() bool
}

// enabledCache tracks the per-processor enabled actions across steps,
// together with the enabled-processor bitset and a flat choice buffer in
// ascending processor order, rebuilt only when a refresh changed some
// processor's enabled set.
type enabledCache struct {
	c           *Configuration
	p           Protocol
	incremental bool
	radius      int // hop distance refresh dilates around movers (≥ 1)
	acts        [][]int
	enabledBits bitset
	buf         []Choice
	bufValid    bool
	seeded      []int  // backing store of the acts a seed loaded
	scratch     bitset // processors re-evaluated in the current refresh
	frontier    []int  // BFS frontier scratch for radius > 1
	next        []int
}

func newEnabledCache(c *Configuration, p Protocol, incremental bool) *enabledCache {
	ec := &enabledCache{
		c:           c,
		p:           p,
		incremental: incremental,
		radius:      1,
		acts:        make([][]int, c.N()),
		enabledBits: newBitset(c.N()),
		scratch:     newBitset(c.N()),
	}
	if rp, ok := p.(RadiusProtocol); ok && rp.DirtyRadius() > 1 {
		ec.radius = rp.DirtyRadius()
	}
	ec.reevaluate()
	return ec
}

// reevaluate re-evaluates every processor's guards.
//
//snapvet:hotpath
func (ec *enabledCache) reevaluate() {
	for proc := range ec.acts {
		ec.update(proc)
	}
}

// seed loads a known enabled set instead of evaluating any guard: enabled
// lists choices in ascending processor order, as choices reports them. The
// choice buffer becomes a copy of enabled, and each enabled processor's
// acts a window of the seeded store, so nothing aliases the caller's slice.
//
//snapvet:hotpath
func (ec *enabledCache) seed(enabled []Choice) {
	clear(ec.acts)
	ec.enabledBits.reset()
	acts := slices.Grow(ec.seeded[:0], len(enabled))
	for i := 0; i < len(enabled); {
		proc, from := enabled[i].Proc, len(acts)
		for ; i < len(enabled) && enabled[i].Proc == proc; i++ {
			acts = append(acts, enabled[i].Action)
		}
		ec.acts[proc] = acts[from:len(acts):len(acts)]
		ec.enabledBits.set(proc)
	}
	ec.seeded = acts
	ec.buf = append(ec.buf[:0], enabled...)
	ec.bufValid = true
}

// update re-evaluates proc's guards, maintaining the enabled bitset and
// invalidating the choice buffer if anything changed.
//
//snapvet:hotpath
func (ec *enabledCache) update(proc int) {
	old := ec.acts[proc]
	acts := ec.p.Enabled(ec.c, proc)
	ec.acts[proc] = acts
	if len(acts) == 0 {
		ec.enabledBits.clear(proc)
	} else {
		ec.enabledBits.set(proc)
	}
	if len(old) != len(acts) {
		ec.bufValid = false
		return
	}
	for i := range acts {
		if old[i] != acts[i] {
			ec.bufValid = false
			return
		}
	}
}

// refresh re-evaluates guards after a committed step. With local guards
// only the processors within the protocol's dirty radius of a mover can
// have changed (radius 1 — the executed processors' closed neighborhoods —
// unless the protocol widens it via RadiusProtocol).
//
//snapvet:hotpath
func (ec *enabledCache) refresh(executed []Choice) {
	if !ec.incremental {
		ec.reevaluate()
		return
	}
	ec.scratch.reset()
	if ec.radius == 1 {
		for _, ch := range executed {
			if !ec.scratch.test(ch.Proc) {
				ec.scratch.set(ch.Proc)
				ec.update(ch.Proc)
			}
			for _, q := range ec.c.G.Neighbors(ch.Proc) {
				if !ec.scratch.test(q) {
					ec.scratch.set(q)
					ec.update(q)
				}
			}
		}
		return
	}
	// radius > 1: breadth-first dilation around the movers, reusing the
	// frontier buffers so the hot path stays allocation-free once warm.
	ec.frontier = ec.frontier[:0]
	for _, ch := range executed {
		if !ec.scratch.test(ch.Proc) {
			ec.scratch.set(ch.Proc)
			ec.update(ch.Proc)
			ec.frontier = append(ec.frontier, ch.Proc)
		}
	}
	cur := ec.frontier
	for hop := 0; hop < ec.radius && len(cur) > 0; hop++ {
		ec.next = ec.next[:0]
		for _, p := range cur {
			for _, q := range ec.c.G.Neighbors(p) {
				if !ec.scratch.test(q) {
					ec.scratch.set(q)
					ec.update(q)
					ec.next = append(ec.next, q)
				}
			}
		}
		ec.frontier, ec.next = ec.next, ec.frontier
		cur = ec.frontier
	}
}

// choices returns the enabled list in ascending processor order. The slice
// is the cache's reusable buffer, valid until the next refresh; callers
// must not mutate or retain it.
//
//snapvet:hotpath
func (ec *enabledCache) choices() []Choice {
	if ec.bufValid {
		return ec.buf
	}
	ec.buf = ec.buf[:0]
	ec.enabledBits.forEach(func(proc int) { //snapvet:ok non-escaping closure over ec, stack-allocated (proved by the CI alloc gates)
		for _, a := range ec.acts[proc] {
			ec.buf = append(ec.buf, Choice{Proc: proc, Action: a})
		}
	})
	ec.bufValid = true
	return ec.buf
}
