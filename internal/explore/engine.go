package explore

import (
	"fmt"
	"math/rand"
	"slices"

	"snappif/internal/baseline/selfstab"
	"snappif/internal/core"
	"snappif/internal/event"
	"snappif/internal/flat"
	"snappif/internal/graph"
	"snappif/internal/hunt"
	"snappif/internal/multi"
	"snappif/internal/sim"
)

// Engine is one transition oracle over the real implementation: given a
// concrete state vector it reports the engine's enabled choices, and executes
// exactly one forced daemon selection through a real runner. The explorer
// enumerates whatever the engine reports — it never evaluates a guard or
// applies an action itself — so a certification is a statement about the
// engine under test (boxed sim.Runner or event.Runner), not about a model
// of it.
//
// The self-stabilizing baseline and a multi composition run through the sim
// engine too, behind a codec that maps the explorer's core.State vector and
// core action IDs onto the protocol's own states and choices (see
// baselineCodec and compositionCodec).
//
// Every Probe and Step starts a pristine run on the engine's scratch
// configuration: ages start at zero, so the weak-fairness forcing never adds
// a choice and the committed step is exactly the requested selection. The
// sim engine keeps one runner (one per explorer worker). Probe restarts it
// with sim.Runner.Reset, which is exactly a fresh NewRunner and evaluates
// every guard; Step restarts it with ResetWith from the enabled set the
// caller stored for the vector, which is this engine's own earlier report,
// so the guard cache carries along an explored path exactly as it does
// along a production run. The runner seeds its RNG on the first draw and
// the forced daemon never draws, so a transition costs one state load and
// one step, whose refresh evaluates the guards of the movers' closed
// neighbourhoods and nothing else. The flat and event engines — both
// event.Runner in external-daemon mode — build a runner per call and
// evaluate every guard: a lazily seeded source would add an interface call
// to every latency-mode draw of the event runner. Either way the
// successor's enabled set is read back from the stepped runner's own guard
// cache — the incremental refresh path included — not recomputed from
// scratch.
type Engine interface {
	// Name identifies the engine in results ("sim", "flat" or "event").
	Name() string

	// Probe loads states into the scratch configuration and returns the
	// engine's enabled choices without stepping.
	Probe(states []core.State) ([]sim.Choice, error)

	// Step executes exactly sel from states, writes the successor state
	// vector into succ (the caller's buffer, as long as states) and returns
	// the engine's post-step enabled choices. enabled must be the engine's
	// own report for states — a Probe of states, or the Step that produced
	// them — and is never modified or retained; an engine may restart from
	// it instead of evaluating every guard. Every choice in sel must be in
	// enabled; a selection the engine does not recognize is an error, never
	// a silent substitution.
	Step(states []core.State, enabled, sel []sim.Choice, succ []core.State) (succEnabled []sim.Choice, err error)
}

// forcedDaemon replays one externally chosen selection. Unlike hunt's
// tolerant scheduleDaemon it is strict: a requested choice missing from the
// enabled set marks the step as diverged and the engine reports an error.
type forcedDaemon struct {
	sel  []sim.Choice
	miss bool
	buf  []sim.Choice
}

var _ sim.Daemon = (*forcedDaemon)(nil)

// Name implements sim.Daemon.
func (d *forcedDaemon) Name() string { return "explore-forced" }

// Select implements sim.Daemon: it returns exactly the requested choices
// that the engine reports enabled, flagging any miss.
func (d *forcedDaemon) Select(_ int, _ *sim.Configuration, enabled []sim.Choice, _ *rand.Rand) []sim.Choice {
	d.buf = d.buf[:0]
	for _, want := range d.sel {
		found := false
		for _, ch := range enabled {
			if ch == want {
				found = true
				break
			}
		}
		if !found {
			d.miss = true
			continue
		}
		d.buf = append(d.buf, want)
	}
	return d.buf
}

// engineOptions pins the runner options of a single forced step: the
// fairness bound exceeds the step count so forceAged can never fire even in
// principle, and two steps of budget leave room for the one we take.
func engineOptions() sim.Options {
	return sim.Options{MaxSteps: 2, FairnessAge: 1 << 30}
}

// simEngine drives the boxed generic engine: sim.Runner over *core.State,
// or over the baseline or a composition through codec. Its one runner is
// restarted with Reset for every Probe and with ResetWith for every Step.
type simEngine struct {
	cfg    *sim.Configuration
	forced *forcedDaemon
	runner *sim.Runner
	codec  codec        // nil for core, whose boxes load in place
	en     []sim.Choice // the caller's enabled set in the protocol's choices
	sel    []sim.Choice // the caller's selection in the protocol's choices
}

// newSimEngine builds a scratch boxed engine. plant, when non-empty, wraps
// the protocol with the named test-only bug (hunt.PlantByName).
func newSimEngine(g *graph.Graph, root int, plant string, copts []core.Option) (*simEngine, error) {
	pr, err := core.New(g, root, copts...)
	if err != nil {
		return nil, err
	}
	var proto sim.Protocol = pr
	if plant != "" {
		pl, ok := hunt.PlantByName(plant)
		if !ok {
			return nil, fmt.Errorf("explore: unknown plant %q", plant)
		}
		proto = pl.Wrap(pr)
	}
	return simEngineOver(g, proto), nil
}

// simEngineOver builds a scratch boxed engine over an already constructed
// protocol.
func simEngineOver(g *graph.Graph, proto sim.Protocol) *simEngine {
	e := &simEngine{cfg: sim.NewConfiguration(g, proto), forced: &forcedDaemon{}}
	e.runner = sim.NewRunner(e.cfg, proto, e.forced, engineOptions())
	return e
}

// Name implements Engine.
func (e *simEngine) Name() string { return "sim" }

// Probe implements Engine.
func (e *simEngine) Probe(states []core.State) ([]sim.Choice, error) {
	e.load(states)
	e.runner.Reset()
	return e.enabled(), nil
}

// Step implements Engine.
func (e *simEngine) Step(states []core.State, enabled, sel []sim.Choice, succ []core.State) ([]sim.Choice, error) {
	e.load(states)
	if e.codec != nil {
		e.en = e.codec.toProtocol(e.en[:0], enabled)
		e.sel = e.codec.toProtocol(e.sel[:0], sel)
		enabled, sel = e.en, e.sel
	}
	e.runner.ResetWith(enabled)
	e.forced.sel = sel
	e.forced.miss = false
	done, err := e.runner.Step()
	if err != nil {
		return nil, fmt.Errorf("explore: sim step: %w", err)
	}
	if e.forced.miss {
		return nil, fmt.Errorf("explore: sim engine does not enable %v", sel)
	}
	if done {
		return nil, fmt.Errorf("explore: sim step from %v reported terminal", sel)
	}
	if e.codec != nil {
		e.codec.read(e.cfg, succ)
	} else {
		for p := range succ {
			succ[p] = *(e.cfg.States[p].(*core.State))
		}
	}
	return e.enabled(), nil
}

// load writes states into the scratch configuration.
func (e *simEngine) load(states []core.State) {
	if e.codec != nil {
		e.codec.load(e.cfg, states)
		return
	}
	loadStates(e.cfg, states)
}

// enabled returns a copy of the runner's enabled set in the explorer's
// choices.
func (e *simEngine) enabled() []sim.Choice {
	if e.codec != nil {
		return e.codec.fromProtocol(nil, e.runner.Enabled())
	}
	return e.runner.Enabled()
}

// codec maps the explorer's vector and choices onto a protocol whose states
// are not *core.State boxes. The explorer's choices name a vector index and
// one of core's action IDs; a codec's vector holds every field the
// protocol's guards and statements read.
type codec interface {
	// load writes states into cfg.
	load(cfg *sim.Configuration, states []core.State)
	// read writes cfg's states into the vector succ.
	read(cfg *sim.Configuration, succ []core.State)
	// toProtocol appends the explorer's choices chs to buf as the
	// protocol's, in the order the protocol's runner reports them.
	toProtocol(buf, chs []sim.Choice) []sim.Choice
	// fromProtocol appends the protocol's choices chs to buf as the
	// explorer's, in ascending vector order.
	fromProtocol(buf, chs []sim.Choice) []sim.Choice
}

// baselineToCore renumbers the baseline's action IDs to core's.
var baselineToCore = [...]int{
	selfstab.ActionB:           core.ActionB,
	selfstab.ActionF:           core.ActionF,
	selfstab.ActionC:           core.ActionC,
	selfstab.ActionBCorrection: core.ActionBCorrection,
	selfstab.ActionFCorrection: core.ActionFCorrection,
}

// baselineCodec carries the self-stabilizing baseline's Pif, Par, L and Msg
// in core.State, with Count and Fok zero, and renumbers its actions to
// core's, so the monitor reads its B- and F-actions as core's. The two
// Phase types number C, B and F alike.
type baselineCodec struct{}

func (baselineCodec) load(cfg *sim.Configuration, states []core.State) {
	for p, s := range states {
		cfg.States[p] = selfstab.State{Pif: selfstab.Phase(s.Pif), Par: s.Par, L: s.L, Msg: s.Msg}
	}
}

func (baselineCodec) read(cfg *sim.Configuration, succ []core.State) {
	for p := range succ {
		s := cfg.States[p].(selfstab.State)
		succ[p] = core.State{Pif: core.Phase(s.Pif), Par: s.Par, L: s.L, Msg: s.Msg}
	}
}

func (baselineCodec) toProtocol(buf, chs []sim.Choice) []sim.Choice {
	for _, ch := range chs {
		buf = append(buf, sim.Choice{Proc: ch.Proc, Action: slices.Index(baselineToCore[:], ch.Action)})
	}
	return buf
}

func (baselineCodec) fromProtocol(buf, chs []sim.Choice) []sim.Choice {
	for _, ch := range chs {
		buf = append(buf, sim.Choice{Proc: ch.Proc, Action: baselineToCore[ch.Action]})
	}
	return buf
}

// compositionCodec lays a k-instance multi composition over n processors
// out as a k·n vector: instance i's state of processor p sits at index
// i·n+p, and its core action a at p is the choice (i·n+p, a). A vector
// entry then enables at most one choice, as a core processor does, when
// each instance's guards are exclusive.
type compositionCodec struct {
	n, k int
}

// compositionActions is the stride of multi's action IDs: instance i's
// core action a is i·compositionActions + a.
const compositionActions = core.ActionFCorrection + 1

func (c compositionCodec) load(cfg *sim.Configuration, states []core.State) {
	for p := 0; p < c.n; p++ {
		per := cfg.States[p].(multi.State).Per
		for i := range per {
			per[i] = states[i*c.n+p]
		}
	}
}

func (c compositionCodec) read(cfg *sim.Configuration, succ []core.State) {
	for p := 0; p < c.n; p++ {
		for i, s := range cfg.States[p].(multi.State).Per {
			succ[i*c.n+p] = s
		}
	}
}

func (c compositionCodec) toProtocol(buf, chs []sim.Choice) []sim.Choice {
	for p := 0; p < c.n; p++ {
		for _, ch := range chs {
			if ch.Proc%c.n == p {
				buf = append(buf, sim.Choice{Proc: p, Action: ch.Proc/c.n*compositionActions + ch.Action})
			}
		}
	}
	return buf
}

func (c compositionCodec) fromProtocol(buf, chs []sim.Choice) []sim.Choice {
	for i := 0; i < c.k; i++ {
		for _, ch := range chs {
			if ch.Action/compositionActions == i {
				buf = append(buf, sim.Choice{Proc: i*c.n + ch.Proc, Action: ch.Action % compositionActions})
			}
		}
	}
	return buf
}

// eventEngine drives the struct-of-arrays engine in external-daemon mode
// (event.Runner, zero latency), so scripted-selection enumeration covers
// the SoA kernels and the runner's guard cache through the same facade.
// It serves both the "flat" and the "event" engine names and reports the
// one it was built for, so results keep their labels.
type eventEngine struct {
	name   string
	kernel *flat.Protocol
	cfg    *flat.Config
	forced *forcedDaemon
}

// newEventEngine builds a scratch engine named name over the flat kernel.
// The kernel mirrors the unmodified core protocol, so plants are not
// supported.
func newEventEngine(name string, g *graph.Graph, root int, plant string, copts []core.Option) (*eventEngine, error) {
	if plant != "" {
		return nil, fmt.Errorf("explore: the %s engine does not support plants (got %q)", name, plant)
	}
	pr, err := core.New(g, root, copts...)
	if err != nil {
		return nil, err
	}
	kernel, err := flat.FromCore(pr)
	if err != nil {
		return nil, err
	}
	cfg, err := flat.NewConfig(kernel)
	if err != nil {
		return nil, err
	}
	return &eventEngine{name: name, kernel: kernel, cfg: cfg, forced: &forcedDaemon{}}, nil
}

// Name implements Engine.
func (e *eventEngine) Name() string { return e.name }

// load scatters the vector into the SoA slices.
func (e *eventEngine) load(states []core.State) {
	for p := range states {
		e.cfg.SetState(p, states[p])
	}
}

// Probe implements Engine.
func (e *eventEngine) Probe(states []core.State) ([]sim.Choice, error) {
	e.load(states)
	r, err := event.NewRunner(e.cfg, e.kernel, e.forced, event.Options{Options: engineOptions()})
	if err != nil {
		return nil, fmt.Errorf("explore: %s probe: %w", e.name, err)
	}
	return r.Enabled(), nil
}

// Step implements Engine. The fresh runner evaluates every guard, so the
// caller's enabled set goes unused.
func (e *eventEngine) Step(states []core.State, _, sel []sim.Choice, succ []core.State) ([]sim.Choice, error) {
	e.load(states)
	e.forced.sel = sel
	e.forced.miss = false
	r, err := event.NewRunner(e.cfg, e.kernel, e.forced, event.Options{Options: engineOptions()})
	if err != nil {
		return nil, fmt.Errorf("explore: %s step: %w", e.name, err)
	}
	done, err := r.Step()
	if err != nil {
		return nil, fmt.Errorf("explore: %s step: %w", e.name, err)
	}
	if e.forced.miss {
		return nil, fmt.Errorf("explore: %s engine does not enable %v", e.name, sel)
	}
	if done {
		return nil, fmt.Errorf("explore: %s step from %v reported terminal", e.name, sel)
	}
	for p := range succ {
		succ[p] = e.cfg.StateAt(p)
	}
	return r.Enabled(), nil
}

// newModelEngine builds the sim engine over the self-stabilizing baseline
// rooted at root or, when initiators is non-empty, over the multi
// composition of one core instance per initiator.
func newModelEngine(g *graph.Graph, root int, initiators []int, copts []core.Option) (*simEngine, error) {
	if len(initiators) > 0 {
		mp, err := multi.New(g, initiators, copts...)
		if err != nil {
			return nil, err
		}
		return compositionEngine(g, mp, len(initiators)), nil
	}
	pr, err := selfstab.New(g, root)
	if err != nil {
		return nil, err
	}
	e := simEngineOver(g, pr)
	e.codec = baselineCodec{}
	return e, nil
}

// compositionEngine builds the sim engine over proto, a composition of k
// instances (a multi.Protocol, or a test's wrapper of one).
func compositionEngine(g *graph.Graph, proto sim.Protocol, k int) *simEngine {
	e := simEngineOver(g, proto)
	e.codec = compositionCodec{n: g.N(), k: k}
	return e
}

// newEngine constructs the named engine kind.
func newEngine(kind string, g *graph.Graph, root int, plant string, copts []core.Option) (Engine, error) {
	switch kind {
	case "", "sim":
		return newSimEngine(g, root, plant, copts)
	case "flat", "event":
		return newEventEngine(kind, g, root, plant, copts)
	}
	return nil, fmt.Errorf("explore: unknown engine %q (want sim, flat, or event)", kind)
}
