// Package hunt implements the counterexample hunter: a search-based
// adversary over the simulation engine (greedy rollout and beam-search
// daemons scored by configurable objectives), serializable replayable
// scenarios, and a ddmin-style shrinker that minimizes any failing
// execution to a small, deterministic artifact. See DESIGN.md §8.
//
// The package is part of the deterministic engine: same scenario, same
// bytes. It never reads the clock, never touches the global rand source,
// and never iterates a map.
package hunt

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strings"

	"snappif/internal/check"
	"snappif/internal/core"
	"snappif/internal/fault"
	"snappif/internal/graph"
	"snappif/internal/obs"
	"snappif/internal/sim"
	"snappif/internal/trace"
)

// SchemaVersion identifies the scenario JSON schema.
const SchemaVersion = 1

// Topology is the serializable form of a network: enough to rebuild the
// graph exactly (graph.New validates connectivity on load).
type Topology struct {
	Name  string   `json:"name"`
	N     int      `json:"n"`
	Edges [][2]int `json:"edges"`
}

// TopologyOf captures g.
func TopologyOf(g *graph.Graph) Topology {
	return Topology{Name: g.Name(), N: g.N(), Edges: g.Edges()}
}

// Scenario is a fully serializable execution: topology, protocol
// parameters, initial configuration (by injector name + seed, or as an
// explicit snapshot), and either an explicit per-step schedule or a named
// daemon with a step budget. Running a scenario twice produces
// bit-identical results, including its obs trace.
type Scenario struct {
	// V is the schema version (SchemaVersion).
	V int `json:"v"`
	// Name is a free-form label.
	Name string `json:"name,omitempty"`
	// Topology is the network.
	Topology Topology `json:"topology"`
	// Root is the PIF initiator.
	Root int `json:"root"`
	// Lmax overrides the default level bound N-1 when > 0.
	Lmax int `json:"lmax,omitempty"`
	// NPrime overrides the default Count bound N when > 0.
	NPrime int `json:"nprime,omitempty"`
	// Fault names the fault.Injector corrupting the initial configuration
	// ("" or "clean" = none). Ignored when Init is set.
	Fault string `json:"fault,omitempty"`
	// Seed seeds the injector; Seed+1 seeds the run (the harness
	// convention, see exp.stabilizeOnce).
	Seed int64 `json:"seed"`
	// Init, when set, is the explicit initial configuration (it overrides
	// Fault). Shrunk scenarios always carry one.
	Init *obs.Snapshot `json:"init,omitempty"`
	// Schedule, when non-empty, is the explicit per-step schedule: step i
	// executes exactly the listed (processor, action) pairs. A scenario
	// with a schedule ignores Daemon.
	Schedule [][][2]int `json:"schedule,omitempty"`
	// Daemon names the scheduler for schedule-free scenarios (see
	// DaemonNames; "" = dist-random).
	Daemon string `json:"daemon,omitempty"`
	// MaxSteps bounds a schedule-free run (0 = 200·N).
	MaxSteps int `json:"max_steps,omitempty"`
	// FairnessAge overrides the runner's weak-fairness bound (0 = 4·N).
	FairnessAge int `json:"fairness_age,omitempty"`
	// Plant names a test-only planted protocol bug (see Plants); "" runs
	// the unmodified protocol.
	Plant string `json:"plant,omitempty"`
	// MsgBase, when > 0, resumes the root's wave-payload counter at this
	// value instead of 1. Scenarios cut from the middle of a live run (the
	// telemetry flight recorder) carry it so replayed waves stamp the same
	// Msg payloads as the original execution.
	MsgBase uint64 `json:"msg_base,omitempty"`
	// Service, when set, makes this a serving-run scenario: an open-loop
	// arrival stream over per-initiator lanes instead of a single execution.
	// Service scenarios replay through service.ReplayScenario, not Run —
	// Root/Fault/Seed/Schedule/Daemon above are ignored.
	Service *ServiceSpec `json:"service,omitempty"`
}

// ServiceSpec captures everything a pipelined serving run (internal/service)
// needs to replay bit-identically: the engine, the per-lane setup, and the
// exact virtual-time arrival schedule. It lives here (not in the service
// package) so scenario files stay one self-contained schema; the service
// package owns the dump/replay conversions.
type ServiceSpec struct {
	// Engine is "sim" or "event".
	Engine string `json:"engine"`
	// Latency is the event engine's distribution spec (event.ParseLatency);
	// "" means the engine default.
	Latency string `json:"latency,omitempty"`
	// Initiators are the lane roots, in lane order.
	Initiators []int `json:"initiators"`
	// Faults names each lane's start-state injector ("" = clean).
	Faults []string `json:"faults,omitempty"`
	// MaxTicks bounds the virtual clock (0 = service default).
	MaxTicks int64 `json:"max_ticks,omitempty"`
	// Serial replays the closed-loop baseline instead of pipelined serving.
	Serial bool `json:"serial,omitempty"`
	// Arrivals is the exact (t, lane, kind) request stream.
	Arrivals []ServiceArrival `json:"arrivals"`
}

// ServiceArrival is one request of a serving scenario's arrival stream.
type ServiceArrival struct {
	T    int64  `json:"t"`
	Lane int    `json:"lane"`
	Kind string `json:"kind"`
}

// Graph rebuilds the scenario's network, validating it. The node count is
// bounded by the edge count up front: a connected graph has N ≤ M+1, and
// checking it here keeps a hostile scenario claiming 10¹⁸ processors from
// allocating per-node slices before graph.New's own connectivity check can
// reject it.
func (sc *Scenario) Graph() (*graph.Graph, error) {
	if sc.Topology.N < 1 || sc.Topology.N > len(sc.Topology.Edges)+1 {
		return nil, fmt.Errorf("hunt: topology with %d processors and %d edges cannot be connected",
			sc.Topology.N, len(sc.Topology.Edges))
	}
	return graph.New(sc.Topology.Name, sc.Topology.N, sc.Topology.Edges)
}

// Clone returns a deep copy of the scenario.
func (sc *Scenario) Clone() *Scenario {
	out := *sc
	out.Topology.Edges = append([][2]int(nil), sc.Topology.Edges...)
	if sc.Init != nil {
		snap := cloneSnapshot(*sc.Init)
		out.Init = &snap
	}
	out.Schedule = make([][][2]int, len(sc.Schedule))
	for i, step := range sc.Schedule {
		out.Schedule[i] = append([][2]int(nil), step...)
	}
	if sc.Service != nil {
		svc := *sc.Service
		svc.Initiators = append([]int(nil), sc.Service.Initiators...)
		svc.Faults = append([]string(nil), sc.Service.Faults...)
		svc.Arrivals = append([]ServiceArrival(nil), sc.Service.Arrivals...)
		out.Service = &svc
	}
	return &out
}

func cloneSnapshot(s obs.Snapshot) obs.Snapshot {
	s.Par = append([]int(nil), s.Par...)
	s.L = append([]int(nil), s.L...)
	s.Count = append([]int(nil), s.Count...)
	s.Fok = append([]bool(nil), s.Fok...)
	s.Msg = append([]string(nil), s.Msg...)
	s.Val = append([]int64(nil), s.Val...)
	s.Agg = append([]int64(nil), s.Agg...)
	return s
}

// Marshal renders the scenario as indented JSON (stable byte-for-byte:
// struct fields marshal in declaration order).
func (sc *Scenario) Marshal() ([]byte, error) {
	sc.V = SchemaVersion
	return json.MarshalIndent(sc, "", "  ")
}

// Unmarshal parses a scenario.
func Unmarshal(data []byte) (*Scenario, error) {
	var sc Scenario
	if err := json.Unmarshal(data, &sc); err != nil {
		return nil, fmt.Errorf("hunt: scenario: %w", err)
	}
	if sc.V > SchemaVersion {
		return nil, fmt.Errorf("hunt: scenario schema v%d is newer than supported v%d", sc.V, SchemaVersion)
	}
	return &sc, nil
}

// build constructs the initial configuration, the protocol the engine runs
// (possibly plant-wrapped), and the underlying core protocol (which the
// invariant checks always evaluate against).
func (sc *Scenario) build() (*sim.Configuration, sim.Protocol, *core.Protocol, error) {
	g, err := sc.Graph()
	if err != nil {
		return nil, nil, nil, fmt.Errorf("hunt: %w", err)
	}
	var opts []core.Option
	if sc.Lmax > 0 {
		opts = append(opts, core.WithLmax(sc.Lmax))
	}
	if sc.NPrime > 0 {
		opts = append(opts, core.WithNPrime(sc.NPrime))
	}
	if sc.MsgBase > 0 {
		opts = append(opts, core.WithFirstMsg(sc.MsgBase))
	}
	pr, err := core.New(g, sc.Root, opts...)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("hunt: %w", err)
	}
	var proto sim.Protocol = pr
	if sc.Plant != "" {
		pl, ok := PlantByName(sc.Plant)
		if !ok {
			return nil, nil, nil, fmt.Errorf("hunt: unknown plant %q", sc.Plant)
		}
		proto = pl.Wrap(pr)
	}
	cfg := sim.NewConfiguration(g, proto)
	if sc.Init != nil {
		if err := obs.RestoreSnapshot(*sc.Init, cfg); err != nil {
			return nil, nil, nil, fmt.Errorf("hunt: %w", err)
		}
		// The guards read st(c, Par_p) for every non-root processor, so an
		// out-of-range parent pointer in a hostile snapshot would panic the
		// engine; in-domain corruption (wrong neighbor, wrong level, …) is
		// what scenarios exist to carry and passes through untouched.
		for p := 0; p < cfg.N(); p++ {
			if par := core.At(cfg, p).Par; p != sc.Root && (par < 0 || par >= cfg.N()) {
				return nil, nil, nil, fmt.Errorf("hunt: snapshot parent %d at p%d out of range", par, p)
			}
		}
	} else if sc.Fault != "" && sc.Fault != "clean" {
		inj, ok := fault.ByName(sc.Fault)
		if !ok {
			return nil, nil, nil, fmt.Errorf("hunt: unknown fault injector %q", sc.Fault)
		}
		inj.Apply(cfg, pr, rand.New(rand.NewSource(sc.Seed)))
	}
	return cfg, proto, pr, nil
}

// DaemonNames lists the daemon names a schedule-free scenario accepts, in
// presentation order. "greedy-<objective>" is additionally accepted for
// every objective in Objectives().
func DaemonNames() []string {
	return []string{
		"dist-random", "synchronous", "central-random", "central-lowest",
		"central-highest", "central-roundrobin", "locally-central",
		"adversarial-lifo",
	}
}

// daemon constructs the scenario's named daemon. Greedy daemons get their
// own rollout protocol instance so rollouts never perturb the payload
// counter of the protocol driving the real run (replays must stay
// bit-identical).
func (sc *Scenario) daemon() (sim.Daemon, error) {
	name := sc.Daemon
	if strings.HasPrefix(name, "greedy-") {
		obj, ok := ObjectiveByName(strings.TrimPrefix(name, "greedy-"))
		if !ok {
			return nil, fmt.Errorf("hunt: unknown objective in daemon %q", name)
		}
		_, rollProto, rollCore, err := sc.build()
		if err != nil {
			return nil, err
		}
		return NewGreedy(rollProto, rollCore, obj), nil
	}
	switch name {
	case "", "dist-random":
		return sim.DistributedRandom{P: 0.5}, nil
	case "synchronous":
		return sim.Synchronous{}, nil
	case "central-random":
		return sim.Central{Order: sim.CentralRandom}, nil
	case "central-lowest":
		return sim.Central{Order: sim.CentralLowestID}, nil
	case "central-highest":
		return sim.Central{Order: sim.CentralHighestID}, nil
	case "central-roundrobin":
		return &sim.RoundRobin{}, nil
	case "locally-central":
		return sim.LocallyCentral{}, nil
	case "adversarial-lifo":
		return &sim.Adversarial{}, nil
	}
	return nil, fmt.Errorf("hunt: unknown daemon %q", name)
}

// Report is the outcome of one scenario run.
type Report struct {
	// Result is the engine's run summary.
	Result sim.Result
	// Violations lists every invariant violation, in step order.
	Violations []check.Violation
	// Executed is the executed schedule (one entry per committed step).
	Executed [][]sim.Choice
	// Exhausted reports that a schedule-free run spent its whole step
	// budget without violating anything (not an error: the budget is the
	// hunt's horizon, not a correctness bound).
	Exhausted bool
}

// Run executes the scenario under the given invariant checks (nil =
// check.StandardChecks). The run stops at the first violation, at schedule
// exhaustion, at a terminal configuration, or at the step budget. tr, when
// enabled, receives the full obs event stream (the caller remains
// responsible for Close).
func (sc *Scenario) Run(checks []check.Check, tr *obs.Tracer) (*Report, error) {
	if sc.Service != nil {
		return nil, fmt.Errorf("hunt: scenario %q is a serving run; replay it with service.ReplayScenario (pifhunt routes this automatically)", sc.Name)
	}
	cfg, proto, pr, err := sc.build()
	if err != nil {
		return nil, err
	}
	if checks == nil {
		checks = check.StandardChecks()
	}
	mon := check.NewMonitor(pr, checks)
	rec := trace.NewRecorder(proto, 0)
	observers := []sim.Observer{rec, mon}

	var d sim.Daemon
	var stop func(*sim.RunState) bool
	maxSteps := sc.MaxSteps
	var sd *scheduleDaemon
	if len(sc.Schedule) > 0 {
		sd = &scheduleDaemon{script: sc.script()}
		d = sd
		stop = func(*sim.RunState) bool { return len(mon.Records) > 0 || sd.Exhausted() }
		maxSteps = len(sd.script) + 1
	} else {
		d, err = sc.daemon()
		if err != nil {
			return nil, err
		}
		stop = mon.Stop()
		if maxSteps <= 0 {
			maxSteps = 200 * cfg.N()
		}
	}
	if tr.Enabled() {
		tr.BeginRun(cfg.G, d.Name(), sc.runSeed(), cfg)
		observers = append(observers, tr)
	}
	res, err := sim.Run(cfg, proto, d, sim.Options{
		MaxSteps:    maxSteps,
		Seed:        sc.runSeed(),
		FairnessAge: sc.FairnessAge,
		Observers:   observers,
		StopWhen:    stop,
	})
	rep := &Report{Result: res, Violations: mon.Records, Executed: executed(rec)}
	if err != nil {
		if errors.Is(err, sim.ErrStepLimit) && len(mon.Records) == 0 {
			rep.Exhausted = true
			return rep, nil
		}
		if !errors.Is(err, sim.ErrStepLimit) {
			return nil, err
		}
	}
	return rep, nil
}

// Trace runs the scenario with a full obs trace streamed as JSONL into w.
// The emitted bytes are a pure function of the scenario.
func (sc *Scenario) Trace(w io.Writer, checks []check.Check) (*Report, error) {
	_, _, pr, err := sc.build()
	if err != nil {
		return nil, err
	}
	tr := obs.New(w, obs.WithProtocol(pr))
	rep, rerr := sc.Run(checks, tr)
	if cerr := tr.Close(); cerr != nil && rerr == nil {
		return rep, cerr
	}
	return rep, rerr
}

// runSeed is the seed of the run's private RNG; the scenario Seed itself
// feeds the fault injector (mirroring the experiment harness convention).
func (sc *Scenario) runSeed() int64 { return sc.Seed + 1 }

// script converts the wire-format schedule into engine choices.
func (sc *Scenario) script() [][]sim.Choice {
	out := make([][]sim.Choice, len(sc.Schedule))
	for i, step := range sc.Schedule {
		chs := make([]sim.Choice, len(step))
		for j, pa := range step {
			chs[j] = sim.Choice{Proc: pa[0], Action: pa[1]}
		}
		out[i] = chs
	}
	return out
}

// ToSchedule converts executed engine choices into the wire format.
func ToSchedule(script [][]sim.Choice) [][][2]int {
	out := make([][][2]int, len(script))
	for i, step := range script {
		pas := make([][2]int, len(step))
		for j, ch := range step {
			pas[j] = [2]int{ch.Proc, ch.Action}
		}
		out[i] = pas
	}
	return out
}

// executed extracts the recorder's step log as a schedule.
func executed(rec *trace.Recorder) [][]sim.Choice {
	out := make([][]sim.Choice, len(rec.Events))
	for i, ev := range rec.Events {
		out[i] = ev.Executed
	}
	return out
}

// scheduleDaemon re-executes a recorded schedule tolerantly: each step it
// consumes script entries until one of them matches some enabled choice,
// preferring exact (processor, action) matches and falling back to
// same-processor matches (the shrinker perturbs initial states, which can
// change which action a processor has enabled). On a normalized scenario —
// whose schedule is the verbatim executed log of a previous run — every
// entry matches exactly and the replay is bit-identical, including the
// fairness-forced selections (ages evolve identically, so the runner never
// adds a choice the script does not already contain).
type scheduleDaemon struct {
	script [][]sim.Choice
	pos    int
	buf    []sim.Choice
}

var _ sim.Daemon = (*scheduleDaemon)(nil)

// Name implements sim.Daemon.
func (d *scheduleDaemon) Name() string { return "hunt-schedule" }

// Exhausted reports that every script entry has been consumed.
func (d *scheduleDaemon) Exhausted() bool { return d.pos >= len(d.script) }

// Select implements sim.Daemon.
func (d *scheduleDaemon) Select(_ int, _ *sim.Configuration, enabled []sim.Choice, _ *rand.Rand) []sim.Choice {
	d.buf = d.buf[:0]
	for d.pos < len(d.script) && len(d.buf) == 0 {
		want := d.script[d.pos]
		d.pos++
		for _, ch := range want {
			if pick, ok := matchChoice(enabled, ch); ok {
				d.buf = appendProcOnce(d.buf, pick)
			}
		}
	}
	if len(d.buf) == 0 {
		// Script exhausted without a match; the runner requires a non-empty
		// selection and the stop predicate fires right after this step.
		d.buf = append(d.buf, enabled[0])
	}
	return d.buf
}

// matchChoice finds ch among the enabled choices: exact match first, then
// any choice of the same processor.
func matchChoice(enabled []sim.Choice, ch sim.Choice) (sim.Choice, bool) {
	for _, e := range enabled {
		if e == ch {
			return e, true
		}
	}
	for _, e := range enabled {
		if e.Proc == ch.Proc {
			return e, true
		}
	}
	return sim.Choice{}, false
}

// appendProcOnce appends ch unless sel already selects its processor.
func appendProcOnce(sel []sim.Choice, ch sim.Choice) []sim.Choice {
	for _, s := range sel {
		if s.Proc == ch.Proc {
			return sel
		}
	}
	return append(sel, ch)
}
