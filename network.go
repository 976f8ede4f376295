package snappif

import (
	"errors"
	"fmt"
	"io"
	"math/rand"

	"snappif/internal/check"
	"snappif/internal/core"
	"snappif/internal/obs"
	"snappif/internal/sim"
	"snappif/internal/telemetry"
	"snappif/internal/trace"
	"snappif/internal/viz"
)

// Telemetry is the sampling/aggregating observability layer for long or
// large runs: lock-free counters, wave-latency histograms, a bounded
// time-series ring, causal wave spans (Perfetto-exportable), and the flight
// recorder that turns the last recorded window into a replayable pifhunt
// scenario. Build one with NewTelemetry, attach it WithTelemetry, and read
// it during or after the runs; a nil *Telemetry is the disabled instance.
// See DESIGN.md §11.
type Telemetry = telemetry.Telemetry

// TelemetryConfig sizes and gates a Telemetry (zero value = defaults).
type TelemetryConfig = telemetry.Config

// NewTelemetry builds an enabled telemetry aggregator.
func NewTelemetry(cfg TelemetryConfig) *Telemetry { return telemetry.New(cfg) }

// CombineFunc folds a feedback child's aggregate into an accumulator; it
// configures feedback aggregation (distributed infimum computation and
// friends). See MinCombine, MaxCombine, SumCombine.
type CombineFunc = core.CombineFunc

// Built-in aggregation folds.
var (
	// MinCombine aggregates the minimum of all processor values.
	MinCombine CombineFunc = func(acc, child int64) int64 {
		if child < acc {
			return child
		}
		return acc
	}
	// MaxCombine aggregates the maximum of all processor values.
	MaxCombine CombineFunc = func(acc, child int64) int64 {
		if child > acc {
			return child
		}
		return acc
	}
	// SumCombine aggregates the sum of all processor values.
	SumCombine CombineFunc = func(acc, child int64) int64 { return acc + child }
	// AndCombine aggregates logical AND of boolean (0/1) values.
	AndCombine CombineFunc = func(acc, child int64) int64 {
		if acc != 0 && child != 0 {
			return 1
		}
		return 0
	}
)

// ErrWaveIncomplete is returned when a run ends before the requested waves
// completed (step budget exhausted) — with correct protocol parameters this
// indicates a bug, not a slow run.
var ErrWaveIncomplete = errors.New("snappif: wave did not complete within the step budget")

// Network is a live PIF system: a topology, the snap-stabilizing protocol
// instance rooted at one processor, and the current global configuration.
// It is not safe for concurrent use.
type Network struct {
	topo   Topology
	proto  *core.Protocol
	cfg    *sim.Configuration
	daemon sim.Daemon
	rng    *rand.Rand

	maxSteps   int
	monitor    bool
	traceW     io.Writer
	traceEvery int
	recorder   *trace.Recorder
	tracer     *obs.Tracer
	telObs     *telemetry.Observer
	telMeta    telemetry.RunMeta
}

// NetworkOption customizes NewNetwork.
type NetworkOption func(*networkOptions)

type networkOptions struct {
	daemon      sim.Daemon
	seed        int64
	lmax        int
	combine     CombineFunc
	maxSteps    int
	monitor     bool
	traceW      io.Writer
	traceEvery  int
	record      bool
	recordLimit int
	eventW      io.Writer
	telemetry   *telemetry.Telemetry
}

// WithDaemon selects the scheduling daemon (default: DistributedDaemon(0.5)).
func WithDaemon(d Daemon) NetworkOption {
	return func(o *networkOptions) { o.daemon = d.d }
}

// WithSeed seeds all randomness of the network's runs (default 1).
func WithSeed(seed int64) NetworkOption {
	return func(o *networkOptions) { o.seed = seed }
}

// WithLmax overrides the level bound Lmax ≥ N-1 (default N-1).
func WithLmax(lmax int) NetworkOption {
	return func(o *networkOptions) { o.lmax = lmax }
}

// WithCombine enables feedback aggregation with the given fold; each wave's
// result is the fold of every processor's value (see Network.SetValue).
func WithCombine(f CombineFunc) NetworkOption {
	return func(o *networkOptions) { o.combine = f }
}

// WithMaxSteps bounds each run's computation steps (default 4_000_000).
func WithMaxSteps(n int) NetworkOption {
	return func(o *networkOptions) { o.maxSteps = n }
}

// WithInvariantChecking attaches the paper's invariant monitors (Properties
// 1 and 2, variable domains) to every run; violations turn into errors.
// Intended for tests and demos — it makes runs considerably slower.
func WithInvariantChecking() NetworkOption {
	return func(o *networkOptions) { o.monitor = true }
}

// WithEventRecording keeps a log of every executed action across the
// network's runs (up to limit steps; 0 = unlimited, keep-head drop policy
// beyond it), retrievable as JSONL via Network.TraceJSON — the
// machine-readable counterpart of WithRoundTrace.
func WithEventRecording(limit int) NetworkOption {
	return func(o *networkOptions) {
		o.record = true
		o.recordLimit = limit
	}
}

// WithEventTrace streams the structured JSONL event trace of every run to w:
// the topology header, per-run state snapshots, step commits, phase
// transitions, wave boundaries, round boundaries, abnormal-processor counts,
// fault injections, and the totals summary (see internal/obs for the
// schema). The trace is the input to the piftrace analysis CLI. Call
// Network.Close when done — it writes the final snapshot and summary and
// flushes the background writer.
func WithEventTrace(w io.Writer) NetworkOption {
	return func(o *networkOptions) { o.eventW = w }
}

// WithTelemetry attaches a telemetry aggregator to every run of the
// network (see NewTelemetry). Unlike WithInvariantChecking it is built for
// permanent use: everything it records is O(1) per step or amortized over a
// sampling cadence. Combined WithInvariantChecking, the flight recorder
// freezes the moment a checker fires, so Telemetry.DumpScenario captures a
// replayable window that ends at the violating step.
func WithTelemetry(t *Telemetry) NetworkOption {
	return func(o *networkOptions) { o.telemetry = t }
}

// WithRoundTrace prints a one-line phase strip (one character per
// processor: B/F/C, lowercase when the processor is abnormal) to w at every
// every-th round boundary of every run — a live view of waves sweeping the
// network.
func WithRoundTrace(w io.Writer, every int) NetworkOption {
	return func(o *networkOptions) {
		o.traceW = w
		o.traceEvery = every
	}
}

// NewNetwork builds a PIF system on topo rooted at root.
func NewNetwork(topo Topology, root int, opts ...NetworkOption) (*Network, error) {
	if topo.g == nil {
		return nil, errors.New("snappif: zero-value Topology; use a topology constructor")
	}
	o := networkOptions{
		daemon:   sim.DistributedRandom{P: 0.5},
		seed:     1,
		maxSteps: 4_000_000,
	}
	for _, opt := range opts {
		opt(&o)
	}
	var coreOpts []core.Option
	if o.lmax != 0 {
		coreOpts = append(coreOpts, core.WithLmax(o.lmax))
	}
	if o.combine != nil {
		coreOpts = append(coreOpts, core.WithCombine(o.combine))
	}
	proto, err := core.New(topo.g, root, coreOpts...)
	if err != nil {
		return nil, err
	}
	net := &Network{
		topo:       topo,
		proto:      proto,
		cfg:        sim.NewConfiguration(topo.g, proto),
		daemon:     o.daemon,
		rng:        rand.New(rand.NewSource(o.seed)),
		maxSteps:   o.maxSteps,
		monitor:    o.monitor,
		traceW:     o.traceW,
		traceEvery: o.traceEvery,
	}
	if o.record {
		net.recorder = trace.NewRecorder(proto, o.recordLimit)
	}
	if o.eventW != nil {
		net.tracer = obs.New(o.eventW, obs.WithProtocol(proto))
	}
	if o.telemetry.Enabled() {
		net.telObs = &telemetry.Observer{T: o.telemetry, Proto: proto}
		net.telMeta = telemetry.RunMeta{
			G:       topo.g,
			Root:    proto.Root,
			Lmax:    o.lmax,
			Engine:  "sim",
			NextMsg: proto.NextMsg,
		}
	}
	return net, nil
}

// Close flushes and closes the event tracer (see WithEventTrace), writing
// the final state snapshot and the totals summary. It is a no-op on a
// network without an event trace, and safe to call more than once.
func (n *Network) Close() error { return n.tracer.Close() }

// Topology returns the network's topology.
func (n *Network) Topology() Topology { return n.topo }

// Root returns the initiator processor.
func (n *Network) Root() int { return n.proto.Root }

// SetValue sets processor p's application value, the input to feedback
// aggregation.
func (n *Network) SetValue(p int, v int64) error {
	if p < 0 || p >= n.topo.N() {
		return fmt.Errorf("snappif: processor %d out of range [0,%d)", p, n.topo.N())
	}
	s := core.At(n.cfg, p)
	s.Val = v
	core.Set(n.cfg, p, s)
	return nil
}

// SetValues sets every processor's application value; vals must have N
// entries.
func (n *Network) SetValues(vals []int64) error {
	if len(vals) != n.topo.N() {
		return fmt.Errorf("snappif: got %d values, want %d", len(vals), n.topo.N())
	}
	for p, v := range vals {
		if err := n.SetValue(p, v); err != nil {
			return err
		}
	}
	return nil
}

// WaveResult reports one completed PIF cycle.
type WaveResult struct {
	// Message is the payload identifier the root broadcast.
	Message uint64
	// Delivered counts the non-root processors that received the message
	// ([PIF1] requires all N-1).
	Delivered int
	// Acknowledged counts the non-root processors whose acknowledgment
	// reached the root ([PIF2] requires all N-1).
	Acknowledged int
	// Rounds is the full cycle length in rounds (Theorem 4 bounds it by
	// 5h+5 from a clean start).
	Rounds int
	// Steps is the number of computation steps the cycle took.
	Steps int
	// Moves is the number of action executions during the run.
	Moves int
	// Height is the height h of the tree the wave constructed.
	Height int
	// Aggregate is the feedback-aggregation result (meaningful when the
	// network was built WithCombine).
	Aggregate int64
	// Violations lists PIF-specification violations (always empty for this
	// protocol; present so experiment code can assert on it).
	Violations []string
}

// OK reports whether the wave satisfied [PIF1] and [PIF2].
func (w WaveResult) OK() bool { return len(w.Violations) == 0 }

// Broadcast runs one full PIF cycle — broadcast, feedback, cleaning — and
// returns its measurements. Thanks to snap-stabilization this works (and
// satisfies the specification) even if the configuration was corrupted
// beforehand; any error-correction rounds are included in the result's
// Rounds/Steps.
func (n *Network) Broadcast() (WaveResult, error) {
	results, err := n.RunWaves(1)
	if err != nil {
		return WaveResult{}, err
	}
	return results[0], nil
}

// RunWaves runs k consecutive PIF cycles and returns one result per cycle.
func (n *Network) RunWaves(k int) ([]WaveResult, error) {
	obs := check.NewCycleObserver(n.proto)
	observers := []sim.Observer{obs}
	var mon *check.Monitor
	if n.monitor {
		mon = check.NewMonitor(n.proto, check.StandardChecks())
		observers = append(observers, mon)
	}
	if n.traceW != nil {
		observers = append(observers,
			&viz.Watcher{W: n.traceW, Proto: n.proto, Every: n.traceEvery})
	}
	if n.recorder != nil {
		observers = append(observers, n.recorder)
	}
	seed := n.rng.Int63()
	if n.tracer.Enabled() {
		n.tracer.BeginRun(n.topo.g, n.daemon.Name(), seed, n.cfg)
		observers = append(observers, n.tracer)
	}
	if n.telObs != nil {
		// Appended after the monitor: when a check fires at step i, the
		// telemetry observer sees the new violation record in the same step's
		// OnEnabled and freezes the flight recorder with step i inside it.
		n.telObs.Mon = mon
		meta := n.telMeta
		meta.Seed = seed - 1
		meta.Daemon = n.daemon.Name()
		n.telObs.Begin(meta, n.cfg)
		observers = append(observers, n.telObs)
	}
	res, err := sim.Run(n.cfg, n.proto, n.daemon, sim.Options{
		MaxSteps:  n.maxSteps,
		Seed:      seed,
		Observers: observers,
		StopWhen:  obs.StopAfterCycles(k),
	})
	if err != nil {
		return nil, err
	}
	if mon != nil {
		if err := mon.Err(); err != nil {
			return nil, err
		}
	}
	if obs.CompletedCycles() < k {
		return nil, fmt.Errorf("%w: %d/%d cycles after %d steps",
			ErrWaveIncomplete, obs.CompletedCycles(), k, res.Steps)
	}
	out := make([]WaveResult, 0, k)
	for _, rec := range obs.Cycles[:k] {
		out = append(out, WaveResult{
			Message:      rec.Msg,
			Delivered:    rec.Delivered,
			Acknowledged: rec.FedBack,
			Rounds:       rec.Rounds(),
			Steps:        rec.CleanStep - rec.StartStep + 1,
			Moves:        res.Moves,
			Height:       rec.Height,
			Aggregate:    core.At(n.cfg, n.proto.Root).Agg,
			Violations:   rec.Violations,
		})
	}
	return out, nil
}

// Stabilize runs the protocol without initiating waves until the system
// reaches a normal configuration with the root clean (an SBN
// configuration), returning the number of rounds taken. Theorem 3 bounds
// this by 8·Lmax+7 rounds from any configuration. On an already-clean
// system it returns 0.
func (n *Network) Stabilize() (rounds int, err error) {
	stop := func(rs *sim.RunState) bool { return check.IsSBN(rs.Config, n.proto) }
	seed := n.rng.Int63()
	var observers []sim.Observer
	if n.tracer.Enabled() {
		n.tracer.BeginRun(n.topo.g, n.daemon.Name(), seed, n.cfg)
		observers = append(observers, n.tracer)
	}
	if n.telObs != nil {
		n.telObs.Mon = nil
		meta := n.telMeta
		meta.Seed = seed - 1
		meta.Daemon = n.daemon.Name()
		n.telObs.Begin(meta, n.cfg)
		observers = append(observers, n.telObs)
	}
	res, err := sim.Run(n.cfg, n.proto, n.daemon, sim.Options{
		MaxSteps:  n.maxSteps,
		Seed:      seed,
		Observers: observers,
		StopWhen:  stop,
	})
	if err != nil {
		return 0, err
	}
	if !check.IsSBN(n.cfg, n.proto) {
		return 0, fmt.Errorf("snappif: stabilization stalled after %d steps", res.Steps)
	}
	return res.Rounds, nil
}

// Corruption identifies an initial-configuration corruption pattern.
type Corruption int

// Corruption patterns (see internal/fault for their constructions).
const (
	// CorruptUniform scrambles every variable uniformly over its domain.
	CorruptUniform Corruption = iota + 1
	// CorruptPartial scrambles roughly half of the processors.
	CorruptPartial
	// CorruptPhantomTree plants a broadcast tree rooted at a non-root.
	CorruptPhantomTree
	// CorruptPrematureFok plants a tree with the Fok wave wrongly raised.
	CorruptPrematureFok
	// CorruptInflatedCounts plants a tree with Count forced to the domain
	// maximum.
	CorruptInflatedCounts
	// CorruptStaleFeedback plants a tree with random phase inversions.
	CorruptStaleFeedback
	// CorruptMaxLevels sets every processor broadcasting at level Lmax.
	CorruptMaxLevels
	// CorruptStaleRegion plants the self-contained stale region that
	// defeats non-snap PIF protocols.
	CorruptStaleRegion
)

// Corrupt applies the given corruption pattern to the current
// configuration, simulating an arbitrary transient fault.
func (n *Network) Corrupt(kind Corruption) error {
	inj, err := injectorFor(kind)
	if err != nil {
		return err
	}
	inj.Apply(n.cfg, n.proto, n.rng)
	n.tracer.Fault(inj.Name, n.cfg)
	return nil
}

// ProcessorState is a read-only view of one processor's protocol state.
type ProcessorState struct {
	// ID is the processor's identifier.
	ID int
	// Phase is "B", "F", or "C".
	Phase string
	// Parent is the PIF parent (-1 at the root).
	Parent int
	// Level is the broadcast level L.
	Level int
	// Count is the B-subtree size estimate.
	Count int
	// Fok reports whether the feedback-authorization wave reached the
	// processor.
	Fok bool
	// Payload is the last received broadcast payload identifier.
	Payload uint64
	// Value is the application value (aggregation input).
	Value int64
	// Aggregate is the last computed feedback aggregate.
	Aggregate int64
}

// TraceJSON writes the accumulated action trace as JSONL in the structured
// event schema (readable by the piftrace CLI). The network must have been
// built WithEventRecording.
func (n *Network) TraceJSON(w io.Writer) error {
	if n.recorder == nil {
		return errors.New("snappif: event recording not enabled; build the network WithEventRecording")
	}
	return n.recorder.JSON(w)
}

// WriteTree draws the currently built broadcast tree (and any abnormal
// trees a corruption left behind) to w as ASCII art.
func (n *Network) WriteTree(w io.Writer) {
	viz.Tree(w, n.cfg, n.proto)
	viz.Forest(w, n.cfg, n.proto)
}

// States returns a snapshot of every processor's state.
func (n *Network) States() []ProcessorState {
	out := make([]ProcessorState, n.topo.N())
	for p := 0; p < n.topo.N(); p++ {
		s := core.At(n.cfg, p)
		out[p] = ProcessorState{
			ID:        p,
			Phase:     s.Pif.String(),
			Parent:    s.Par,
			Level:     s.L,
			Count:     s.Count,
			Fok:       s.Fok,
			Payload:   s.Msg,
			Value:     s.Val,
			Aggregate: s.Agg,
		}
	}
	return out
}
