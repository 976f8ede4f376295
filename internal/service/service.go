// Package service is the PIF-as-a-service layer: a long-running server that
// accepts a stream of PIF requests and pipelines waves through the network
// back-to-back, multiplexing tenants across per-initiator lanes.
//
// The paper's snap-stabilization property is what makes the pipelining
// sound: a wave started by the root from *any* configuration — including one
// where the previous wave's cleaning phase is still draining through the far
// side of the network — delivers a correct PIF. The server therefore never
// quiesces between requests: the root re-broadcasts the instant its own
// broadcast guard permits (Pif_r = C and the neighborhood clean), overlapping
// wave i's cleaning with wave i+1's broadcast, and independent initiators
// run their lanes fully concurrently.
//
// Admission is gate-based and engine-mechanism-preserving: the protocol's
// guards are never touched. Instead the schedule source withholds the root's
// B-action while the lane has no pending request — a filtering daemon on the
// sim engine, event.Options.Gate on the discrete-event engine —
// and the serving loop parks a lane that has quiesced down to exactly the
// withheld broadcast. Everything advances on one global virtual clock
// (ticks), so a run is a pure function of (topology, engine, seed, arrival
// stream): byte-identical across repetitions and worker counts. Wall-clock
// readings come only from the injected Options.Clock and never steer the
// schedule.
package service

import (
	"fmt"
	"math/rand"
	"sort"

	"snappif/internal/event"
	"snappif/internal/fault"
	"snappif/internal/flat"
	"snappif/internal/graph"
)

// Kind selects a request's application payload — the paper's intro
// applications, each realized as a feedback-aggregation fold over the
// per-processor values. Every fold is symmetric and associative, so the
// root's response is independent of the spanning tree the wave happens to
// build — the property the pipelined-vs-serial differential leans on.
type Kind uint8

const (
	// Snapshot sums the per-processor values (a global state aggregate).
	Snapshot Kind = iota
	// Termination ORs per-processor activity bits (termination detection).
	Termination
	// Barrier takes the max (all processors have passed phase X).
	Barrier
	// Reset ignores feedback values: the wave itself is the payload.
	Reset
	// Infimum takes the min over the processor values (paper §1 intro).
	Infimum

	numKinds
)

var kindNames = [numKinds]string{"snapshot", "termination", "barrier", "reset", "infimum"}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// ParseKind inverts Kind.String.
func ParseKind(s string) (Kind, error) {
	for i, name := range kindNames {
		if s == name {
			return Kind(i), nil
		}
	}
	return 0, fmt.Errorf("service: unknown request kind %q", s)
}

// Kinds lists every request kind name, in Kind order.
func Kinds() []string {
	out := make([]string, numKinds)
	copy(out, kindNames[:])
	return out
}

// fold applies k's aggregation: acc starts at the processor's own value
// (see core.Protocol aggregate) and folds one child's aggregate in.
func (k Kind) fold(acc, child int64) int64 {
	switch k {
	case Snapshot:
		return acc + child
	case Termination:
		return acc | child
	case Barrier:
		if child > acc {
			return child
		}
		return acc
	case Reset:
		return acc
	default: // Infimum
		if child < acc {
			return child
		}
		return acc
	}
}

// valOf is processor p's deterministic application value — a fixed hash so
// every engine, mode, and worker count folds the same inputs.
func valOf(p int) int64 {
	return int64((uint64(p)*2654435761 + 12345) % 1000003)
}

// Options configures a Server.
type Options struct {
	// Graph is the served topology (required).
	Graph *graph.Graph
	// Engine selects the execution engine per lane: "sim" (sim.Runner, one
	// synchronous step per tick) or "event" (event.Runner on per-link
	// latencies).
	Engine string
	// Latency is the event engine's per-link delay distribution; nil means
	// event.Constant(1). The sim engine is synchronous and rejects it.
	Latency event.Latency
	// Initiators lists the lane roots — one independent protocol instance
	// per initiator, all advancing on the shared virtual clock. Default
	// {0}. Pipeline depth = number of initiators with queued work.
	Initiators []int
	// Faults optionally names a fault injector per lane ("" or "clean"
	// leaves the lane's start state clean); shorter than Initiators is
	// padded with clean.
	Faults []string
	// Seed derives every lane's RNG stream (default 1).
	Seed int64
	// MaxTicks bounds the virtual clock (default 1<<22); exceeding it is an
	// error, not a long run.
	MaxTicks int64
	// Clock, when non-nil, supplies wall-clock nanosecond readings for the
	// latency report. A nil Clock keeps the run and its report fully
	// deterministic.
	Clock func() int64
}

// laneSeed derives lane l's private seed.
func (o *Options) laneSeed(l int) int64 { return o.Seed + int64(l+1)*7919 }

// Server is a one-shot serving run: build with New, drive with Run (the
// pipelined open-loop server) or RunSerial (the closed-loop baseline that
// admits one wave at a time, globally).
type Server struct {
	opts  Options
	lanes []*lane
	used  bool
}

// New validates opts and builds the per-initiator lanes, each a private
// protocol instance on its own copy of the topology's state.
func New(opts Options) (*Server, error) {
	if opts.Graph == nil {
		return nil, fmt.Errorf("service: Options.Graph is required")
	}
	switch opts.Engine {
	case "sim":
		if opts.Latency != nil {
			return nil, fmt.Errorf("service: engine %q is synchronous and takes no Latency (got %s); link latency needs the event engine", opts.Engine, opts.Latency.Name())
		}
	case "event":
	default:
		return nil, fmt.Errorf("service: unknown engine %q (want sim or event)", opts.Engine)
	}
	if len(opts.Initiators) == 0 {
		opts.Initiators = []int{0}
	}
	seen := make(map[int]bool, len(opts.Initiators))
	for _, r := range opts.Initiators {
		if r < 0 || r >= opts.Graph.N() {
			return nil, fmt.Errorf("service: initiator %d out of range [0,%d)", r, opts.Graph.N())
		}
		if seen[r] {
			return nil, fmt.Errorf("service: duplicate initiator %d", r)
		}
		seen[r] = true
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	if opts.MaxTicks <= 0 {
		opts.MaxTicks = 1 << 22
	}
	if opts.Engine == "event" && opts.Latency == nil {
		opts.Latency = event.Constant(1)
	}
	for i, name := range opts.Faults {
		if name == "" {
			continue
		}
		if _, ok := fault.ByName(name); !ok {
			return nil, fmt.Errorf("service: lane %d: unknown fault %q", i, name)
		}
	}
	if len(opts.Faults) > len(opts.Initiators) {
		return nil, fmt.Errorf("service: %d faults for %d lanes", len(opts.Faults), len(opts.Initiators))
	}

	s := &Server{opts: opts}
	var like *flat.Protocol // an event lane's kernel: the later lanes share its slot layout
	for l, root := range opts.Initiators {
		faultName := ""
		if l < len(opts.Faults) {
			faultName = opts.Faults[l]
		}
		ln, err := newLane(&opts, l, root, faultName, like)
		if err != nil {
			return nil, fmt.Errorf("service: lane %d (root %d): %w", l, root, err)
		}
		if e, ok := ln.eng.(*eventLane); ok {
			like = e.k
		}
		s.lanes = append(s.lanes, ln)
	}
	return s, nil
}

// Run serves the arrival stream open-loop and pipelined: every lane admits
// its queued requests back-to-back, all lanes advance concurrently on the
// virtual clock. Arrivals must be sorted by T (ascending) with T ≥ 1 and
// valid lane/kind fields.
func (s *Server) Run(arrivals []Arrival) (*Report, error) {
	return s.serve(arrivals, false)
}

// RunSerial is the closed-loop baseline: requests are admitted one at a
// time globally, each waiting for full quiescence (wave delivered, cleaning
// drained, every lane parked) before the next is enqueued. Arrival times
// still lower-bound admission, so the two modes serve the same demand.
func (s *Server) RunSerial(arrivals []Arrival) (*Report, error) {
	return s.serve(arrivals, true)
}

// checkArrivals validates order and fields.
func (s *Server) checkArrivals(arrivals []Arrival) error {
	var prev int64 = 1
	for i, a := range arrivals {
		if a.T < prev {
			return fmt.Errorf("service: arrival %d at t=%d before t=%d (stream must be sorted, t ≥ 1)", i, a.T, prev)
		}
		prev = a.T
		if a.Lane < 0 || a.Lane >= len(s.lanes) {
			return fmt.Errorf("service: arrival %d: lane %d out of range [0,%d)", i, a.Lane, len(s.lanes))
		}
		if _, err := ParseKind(a.Kind); err != nil {
			return fmt.Errorf("service: arrival %d: %w", i, err)
		}
	}
	return nil
}

// allParked reports whether every lane has quiesced (down to at most its
// withheld root broadcast) with no admitted work pending.
func (s *Server) allParked() bool {
	for _, ln := range s.lanes {
		if !ln.parked() {
			return false
		}
	}
	return true
}

// serve is the virtual-clock loop shared by Run and RunSerial.
func (s *Server) serve(arrivals []Arrival, serial bool) (*Report, error) {
	if s.used {
		return nil, fmt.Errorf("service: Server is one-shot; build a fresh one per run")
	}
	s.used = true
	if err := s.checkArrivals(arrivals); err != nil {
		return nil, err
	}

	rep := &Report{Engine: s.opts.Engine, Serial: serial}
	for _, ln := range s.lanes {
		ln.rep = rep
	}

	var tick int64
	ai := 0 // next arrival to inject
	for {
		drained := s.allParked()
		if drained && ai == len(arrivals) {
			break // every request delivered (or none left) and all cleaning drained
		}
		tick++

		// Fast-forward across idle gaps: with every lane parked the only
		// future work is the next arrival or a pending event-lane wake.
		if drained {
			next := int64(-1)
			if ai < len(arrivals) {
				next = arrivals[ai].T
			}
			for _, ln := range s.lanes {
				if w := ln.eng.nextWake(); w >= 0 && (next < 0 || w < next) {
					next = w
				}
			}
			if next < 0 {
				break // nothing will ever happen again
			}
			if next > tick {
				tick = next
			}
		}
		if tick > s.opts.MaxTicks {
			return nil, fmt.Errorf("service: virtual clock exceeded MaxTicks=%d with %d/%d arrivals injected, %d waves delivered",
				s.opts.MaxTicks, ai, len(arrivals), len(rep.Waves))
		}

		// Inject due arrivals. Pipelined mode admits every arrival with
		// T ≤ tick; serial mode admits the next arrival only once the
		// system is fully drained (one wave in flight, globally).
		for ai < len(arrivals) && arrivals[ai].T <= tick {
			if serial && !s.allParked() {
				break
			}
			a := arrivals[ai]
			ai++
			k, _ := ParseKind(a.Kind) // validated above
			s.lanes[a.Lane].enqueue(k, a.T, s.now(), tick)
			if serial {
				break // at most one admitted request in the system
			}
		}

		// Advance every lane to the tick: a sim lane takes one synchronous
		// step, an event lane drains its wake batches ≤ tick.
		for _, ln := range s.lanes {
			if err := ln.advance(tick); err != nil {
				return nil, fmt.Errorf("service: lane %d: %w", ln.idx, err)
			}
		}
	}

	rep.Ticks = tick
	return rep, nil
}

// now reads the injected wall clock (0 when deterministic).
func (s *Server) now() int64 {
	if s.opts.Clock == nil {
		return 0
	}
	return s.opts.Clock()
}

// SortArrivals orders a stream by (T, Lane) in place — the canonical order
// serve requires.
func SortArrivals(arrivals []Arrival) {
	sort.SliceStable(arrivals, func(i, j int) bool {
		if arrivals[i].T != arrivals[j].T {
			return arrivals[i].T < arrivals[j].T
		}
		return arrivals[i].Lane < arrivals[j].Lane
	})
}

// newRNG isolates the package's one deliberate rand dependency for the
// workload generator and fault injection (lane-local, seed-derived).
func newRNG(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
