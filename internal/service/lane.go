package service

import (
	"fmt"
	"math/rand"

	"snappif/internal/core"
	"snappif/internal/event"
	"snappif/internal/fault"
	"snappif/internal/flat"
	"snappif/internal/sim"
)

// pendingReq is an admitted-but-not-started request in a lane's queue.
type pendingReq struct {
	kind     Kind
	enqueueT int64 // requested arrival tick (latency is measured from here)
	wallNS   int64 // wall reading at enqueue (0 when Clock is nil)
}

// lane is one initiator's protocol instance: a private configuration and
// kernel rooted at the initiator, an engine-specific runner, the admission
// queue, and the wave-lifecycle observer that turns root phase transitions
// into the report's wave records.
//
// Admission never touches guards: the gate (a schedule filter) withholds
// the root's B-action while pending is empty, and the serving loop parks
// the lane once it has quiesced down to exactly that withheld broadcast.
// The lifecycle observer reads the root's phase after every committed step:
//
//	C→B   wave start: the queue head becomes the in-flight request and
//	      selects the wave's aggregation fold (all F-actions of the wave
//	      strictly follow the root's B, so switching the fold here is safe)
//	B→F   delivery: the root's Agg register is the response
//	B→F with nothing in flight: an abnormal-residue wave from a corrupted
//	      start — counted, not billed to any request
//	B→C   (B-correction) with a wave in flight: the start was swallowed by
//	      the stabilization machinery; the request is re-queued
type lane struct {
	idx  int
	root int

	kind     Kind // the in-flight (or last) wave's fold selector
	pending  []pendingReq
	inflight *pendingReq
	startT   int64 // in-flight wave's root-B tick

	prevPhase core.Phase
	tick      int64 // current global tick, for the observer
	rep       *Report
	clock     func() int64 // nil = deterministic run, wall latencies omitted

	eng laneEngine
}

// laneEngine abstracts the engines behind the serving loop: syncLane
// (sim.Runner) and eventLane (event.Runner).
type laneEngine interface {
	// advance runs the lane's schedule up to global tick t, calling observe
	// after every committed step.
	advance(t int64, observe func() error) error
	// parked reports quiescence modulo the withheld root broadcast. The
	// serving loop treats a parked lane as asleep until an enqueue.
	parked() bool
	// nextWake is the earliest future virtual time with pending schedule
	// work, or -1 when there is none (the fast-forward oracle). Engines
	// without a wake queue return -1 when parked: their only wake-up is an
	// enqueue.
	nextWake() int64
	// wake re-arms the schedule after a closed→open gate transition at
	// global tick t (the event engine's lost-wakeup cure; a no-op for the
	// synchronous engines, whose serving loop re-polls parked()).
	wake(t int64)
	// root reads the root's state.
	root() core.State
}

// gateOpen is the admission predicate: the root broadcast is admitted only
// while a request is queued.
func (ln *lane) gateOpen() bool { return len(ln.pending) > 0 }

// admit is the (proc, action) filter shared by both engines' gates.
func (ln *lane) admit(p int, a int) bool {
	return p != ln.root || a != core.ActionB || ln.gateOpen()
}

// enqueue admits a request; on the closed→open transition it wakes the
// engine at the current tick.
func (ln *lane) enqueue(k Kind, enqueueT, wallNS, tick int64) {
	wasOpen := ln.gateOpen()
	ln.pending = append(ln.pending, pendingReq{kind: k, enqueueT: enqueueT, wallNS: wallNS})
	if !wasOpen {
		ln.eng.wake(tick)
	}
}

// parked: no admitted work and the engine quiesced.
func (ln *lane) parked() bool { return ln.inflight == nil && !ln.gateOpen() && ln.eng.parked() }

// advance drives the engine to tick t with lifecycle observation.
func (ln *lane) advance(t int64) error {
	ln.tick = t
	return ln.eng.advance(t, ln.observe)
}

// observe translates root phase transitions into wave lifecycle events; it
// runs after every committed step of the lane's engine.
func (ln *lane) observe() error {
	rs := ln.eng.root()
	cur := rs.Pif
	prev := ln.prevPhase
	if cur == prev {
		return nil
	}
	ln.prevPhase = cur
	switch {
	case prev != core.B && cur == core.B:
		// Wave start. The gate admitted the broadcast, so the queue must
		// hold its request; anything else is a gate leak.
		if len(ln.pending) == 0 {
			return fmt.Errorf("gate leak: root broadcast with no pending request")
		}
		req := ln.pending[0]
		ln.pending = ln.pending[1:]
		ln.inflight = &req
		ln.kind = req.kind
		ln.startT = ln.tick
	case prev == core.B && cur == core.F:
		if ln.inflight == nil {
			// Feedback-complete on a wave this server never started: the
			// corrupted start's residue collapsing.
			ln.rep.Residue++
			return nil
		}
		req := ln.inflight
		ln.inflight = nil
		var wall int64
		if ln.clock != nil {
			wall = ln.clock() - req.wallNS
		}
		ln.rep.record(Wave{
			Lane:     ln.idx,
			Kind:     req.kind.String(),
			Msg:      rs.Msg,
			Resp:     rs.Agg,
			EnqueueT: req.enqueueT,
			StartT:   ln.startT,
			DoneT:    ln.tick,
			WallNS:   wall,
		})
	case prev == core.B && cur == core.C:
		// Root B-correction mid-wave: only reachable from corrupted
		// neighborhoods. Re-queue the swallowed request at the head.
		if ln.inflight != nil {
			req := *ln.inflight
			ln.inflight = nil
			ln.rep.Aborts++
			ln.pending = append([]pendingReq{req}, ln.pending...)
			ln.eng.wake(ln.tick)
		}
	}
	return nil
}

// newLane builds one initiator's instance on the engine-specific runner.
func newLane(opts *Options, idx, root int, faultName string) (*lane, error) {
	ln := &lane{idx: idx, root: root, clock: opts.Clock}
	pr, cfg, simOpts, err := ln.start(opts, faultName)
	if err != nil {
		return nil, err
	}
	switch opts.Engine {
	case "sim":
		r := sim.NewRunner(cfg, pr, &gateDaemon{admit: ln.admit}, simOpts)
		ln.eng = &syncLane{ln: ln, r: r, cfg: cfg}
	case "event":
		k, err := flat.FromCore(pr)
		if err != nil {
			return nil, err
		}
		fc, err := flat.NewConfig(k)
		if err != nil {
			return nil, err
		}
		if err := fc.ReadSim(cfg); err != nil {
			return nil, err
		}
		r, err := event.NewRunner(fc, k, nil, event.Options{
			Options: simOpts,
			Latency: opts.Latency,
			Gate:    func(p int, a int32) bool { return ln.admit(p, int(a)) },
		})
		if err != nil {
			return nil, err
		}
		ln.eng = &eventLane{ln: ln, fc: fc, r: r}
	}
	ln.prevPhase = ln.eng.root().Pif
	return ln, nil
}

// start builds the engine-independent half of the lane: the protocol
// rooted at the lane's initiator with its fold-dispatching Combine, the
// start configuration (deterministic per-processor values, optional fault
// corruption), and the runner options.
func (ln *lane) start(opts *Options, faultName string) (*core.Protocol, *sim.Configuration, sim.Options, error) {
	seed := opts.laneSeed(ln.idx)

	// The fold dispatches on the lane's in-flight kind. All F-actions of a
	// wave run strictly after the root B that set ln.kind, so the closure
	// always sees the right wave's fold.
	combine := func(acc, child int64) int64 { return ln.kind.fold(acc, child) }
	// Per-lane message base: wave j of lane l broadcasts base(l)+j, making
	// payloads globally unique and lane-attributable.
	msgBase := (uint64(ln.idx) + 1) << 32

	pr, err := core.New(opts.Graph, ln.root, core.WithCombine(combine), core.WithFirstMsg(msgBase))
	if err != nil {
		return nil, nil, sim.Options{}, err
	}
	cfg := sim.NewConfiguration(opts.Graph, pr)
	for p := 0; p < cfg.N(); p++ {
		cfg.States[p].(*core.State).Val = valOf(p)
	}
	inj, _ := fault.ByName(faultName) // validated by New
	inj.Apply(cfg, pr, newRNG(seed))

	return pr, cfg, sim.Options{
		Seed:     seed,
		MaxSteps: 1 << 30,
		// The induced/filtered schedules are intrinsically fair for this
		// protocol; fairness forcing would bypass the admission gate.
		FairnessAge: 1 << 30,
	}, nil
}

// gateDaemon wraps the synchronous daemon for the sim engine, filtering the
// withheld root broadcast out of the selection. The PIF guards are mutually
// exclusive (one action per processor), so the synchronous selection is the
// whole enabled set and filtering cannot change any RNG draw sequence.
type gateDaemon struct {
	inner sim.Synchronous
	admit func(p, a int) bool
}

func (d *gateDaemon) Name() string { return "service-gate(synchronous)" }

func (d *gateDaemon) Select(step int, c *sim.Configuration, enabled []sim.Choice, rng *rand.Rand) []sim.Choice {
	sel := d.inner.Select(step, c, enabled, rng)
	out := sel[:0]
	for _, ch := range sel {
		if d.admit(ch.Proc, ch.Action) {
			out = append(out, ch)
		}
	}
	if len(out) == 0 {
		// Unreachable: the serving loop parks the lane (and never calls
		// Step) once only the withheld broadcast remains. Reaching this
		// would make the runner fall back to a random pick, silently
		// bypassing admission — fail loudly instead.
		panic("service: gate emptied the schedule; lane should have parked")
	}
	return out
}

// syncLane runs a lane on sim.Runner under gateDaemon, one synchronous step
// per tick.
type syncLane struct {
	ln  *lane
	r   *sim.Runner
	cfg *sim.Configuration
}

func (e *syncLane) advance(_ int64, observe func() error) error {
	if e.parked() {
		return nil
	}
	done, err := e.r.Step()
	if err != nil {
		return err
	}
	if done {
		return nil // terminal configurations park trivially
	}
	return observe()
}

// parked: nothing enabled, or only the root's withheld broadcast.
func (e *syncLane) parked() bool {
	n := e.r.EnabledCount()
	if n == 0 {
		return true
	}
	if n > 1 || e.ln.gateOpen() {
		return false
	}
	acts := e.r.EnabledActionsOf(e.ln.root)
	return len(acts) == 1 && acts[0] == core.ActionB
}

func (e *syncLane) nextWake() int64 {
	if e.parked() {
		return -1
	}
	return e.ln.tick + 1
}

func (e *syncLane) wake(int64) {} // the serving loop re-polls parked()

func (e *syncLane) root() core.State { return core.At(e.cfg, e.ln.root) }

// eventLane runs a lane on the discrete-event engine: drain every effective
// wake batch up to the global tick.
type eventLane struct {
	ln *lane
	fc *flat.Config
	r  *event.Runner
}

func (e *eventLane) advance(t int64, observe func() error) error {
	for {
		progressed, err := e.r.ServeStep(t)
		if err != nil {
			return err
		}
		if !progressed {
			return nil
		}
		if err := observe(); err != nil {
			return err
		}
	}
}

func (e *eventLane) parked() bool    { return e.r.Idle() }
func (e *eventLane) nextWake() int64 { return e.r.NextWake() }
func (e *eventLane) wake(t int64)    { e.r.Wake(e.ln.root, t) }

func (e *eventLane) root() core.State { return e.fc.StateAt(e.ln.root) }
