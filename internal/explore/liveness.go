package explore

import (
	"fmt"

	"snappif/internal/check"
	"snappif/internal/core"
	"snappif/internal/graph"
	"snappif/internal/sim"
)

// Liveness certification: where Explorer certifies safety (every reachable
// state clean), CertifyLiveness certifies the paper's *round bounds* — the
// liveness half of Theorems 1–4 — against the real engines, exhaustively
// over every central-daemon schedule.
//
// The certified statement is phrased exactly as the theorems are: "the
// target configuration is reached within R rounds". A round, as in the
// paper, completes when every processor that was continuously enabled since
// the round began has executed or been disabled. The certifier explores the
// product of the quotient state with the round-accounting state (the set of
// processors still owed a move this round, plus the index of the round in
// progress); a schedule that completes round R without having passed
// through the target is a violation. Schedules that never complete rounds
// (an unfair daemon starving a processor forever) satisfy every round bound
// vacuously — and collapse onto finitely many product states, so the BFS
// still closes.

// Liveness targets.
const (
	// TargetCycle certifies Theorem 4's shape from the clean start: every
	// schedule returns to the Start-Broadcast-Normal configuration (one
	// full PIF cycle) within the bound.
	TargetCycle = "cycle"
	// TargetNormal certifies Theorem 1's shape from corrupted starts:
	// every schedule reaches a normal configuration (Definition 8, no
	// abnormal processor) within the bound.
	TargetNormal = "normal"
)

// LivenessOptions configures one liveness certification.
type LivenessOptions struct {
	// Engine selects the implementation under test: "sim" (default),
	// "flat", or "event".
	Engine string
	// Target is TargetCycle or TargetNormal.
	Target string
	// Bound is the round bound to certify; ≤ 0 derives the theorem's own
	// bound: 5h+5 with h ≤ n−1 for TargetCycle, 3·Lmax+3 for TargetNormal.
	Bound int
	// MaxStates aborts the exploration when the interned product-state
	// count exceeds it; ≤ 0 means 2,000,000.
	MaxStates int
	// CoreOptions are forwarded to core.New.
	CoreOptions []core.Option
}

// LivenessResult is the machine-readable outcome, serialized into
// explore.json by cmd/pifexplore certify.
type LivenessResult struct {
	Topology      string `json:"topology"`
	N             int    `json:"n"`
	Root          int    `json:"root"`
	Engine        string `json:"engine"`
	Power         string `json:"power"`
	InitMode      string `json:"init_mode,omitempty"`
	Target        string `json:"target"`
	Bound         int    `json:"bound_rounds"`
	WorstRounds   int    `json:"worst_rounds"`
	ProductStates int    `json:"product_states"`
	Transitions   int64  `json:"transitions"`
	Complete      bool   `json:"complete"`
	Verdict       string `json:"verdict"`
	Violation     string `json:"violation,omitempty"`
}

// livenessNode is one product state: a quotient state, the set of
// processors still owed a move in the round in progress, and the 1-based
// index of that round. Comparable, so it keys the product BFS directly.
type livenessNode struct {
	id      int32
	rounds  int32
	pending uint64
}

// livenessSearch is one CertifyLiveness call: the engine, the interned
// quotient states with their cached successors, and the product BFS.
//
// The search interns each state's quotient image in an identity-group store
// (pending masks name concrete processors): the record holds Pif, Par, L,
// Count and Fok of every processor exactly, Msg only as its nonzero bit,
// and Val and Agg not at all, and a state is stepped from its decoded
// record. The cache is sound because the record fixes every input of what
// the search reads off a state. No guard of Algorithms 1 and 2 reads Msg,
// Val or Agg, and neither do IsNormalConfiguration and IsSBN, so two
// vectors with one record have the same enabled set and the same target
// verdict. Under one choice both step to successors with one record: every
// statement writes Pif, Par, L, Count and Fok from those same variables, a
// root B stamps a fresh nonzero Msg, a non-root B copies its parent's Msg
// (and with it the nonzero bit), and Val and Agg feed only Val and Agg. So
// a product state may name its quotient state by ID, and one step from the
// decoded record answers for every vector with that record.
type livenessSearch struct {
	g       *graph.Graph
	opts    LivenessOptions
	pr      *core.Protocol
	eng     Engine
	h       hasher
	scratch *sim.Configuration
	store   store
	target  []bool  // per state: the target verdict
	succ    []int32 // per stored choice: the successor's ID once stepped, -1 before
	states  []core.State
	next    []core.State // Step's successor buffer
	enabled []sim.Choice
	one     [1]sim.Choice
	steps   int64 // engine steps: one per distinct (quotient state, choice)
}

// CertifyLiveness explores every central-daemon schedule from the given
// initial vectors through the chosen engine and certifies that the target
// is reached within the round bound on all of them. A bound violation (or a
// deadlock before the target) is a Result with Verdict "violation", not an
// error; an error means the exploration itself could not finish.
//
// The product BFS visits every (quotient state, pending, round) triple, but
// the engine steps each distinct (quotient state, choice) pair once: the
// search interns each quotient state with its enabled set and target
// verdict and caches the successor of every choice it steps (see
// livenessSearch for why that is sound).
func CertifyLiveness(g *graph.Graph, root int, inits [][]core.State, opts LivenessOptions) (*LivenessResult, error) {
	s, err := newLivenessSearch(g, root, opts)
	if err != nil {
		return nil, err
	}
	return s.run(inits)
}

// newLivenessSearch validates the options and builds the search's engine.
func newLivenessSearch(g *graph.Graph, root int, opts LivenessOptions) (*livenessSearch, error) {
	if g.N() > maxN {
		return nil, fmt.Errorf("explore: %d processors exceeds the exploration bound %d", g.N(), maxN)
	}
	if opts.Target != TargetCycle && opts.Target != TargetNormal {
		return nil, fmt.Errorf("explore: unknown liveness target %q (want %s or %s)", opts.Target, TargetCycle, TargetNormal)
	}
	if opts.Engine == "" {
		opts.Engine = "sim"
	}
	if opts.MaxStates <= 0 {
		opts.MaxStates = 2_000_000
	}
	pr, err := core.New(g, root, opts.CoreOptions...)
	if err != nil {
		return nil, err
	}
	if opts.Bound <= 0 {
		if opts.Target == TargetCycle {
			opts.Bound = 5*(g.N()-1) + 5 // h ≤ n−1 for any constructed tree
		} else {
			opts.Bound = 3*pr.Lmax + 3
		}
	}
	eng, err := newEngine(opts.Engine, g, root, "", opts.CoreOptions)
	if err != nil {
		return nil, err
	}
	return &livenessSearch{
		g: g, opts: opts, pr: pr, eng: eng,
		scratch: sim.NewConfiguration(g, pr),
		store:   newStore(g.N(), false),
		states:  make([]core.State, g.N()),
		next:    make([]core.State, g.N()),
	}, nil
}

// isTarget reports whether states is a target configuration.
func (s *livenessSearch) isTarget(states []core.State) bool {
	loadStates(s.scratch, states)
	if s.opts.Target == TargetCycle {
		return check.IsSBN(s.scratch, s.pr)
	}
	return check.IsNormalConfiguration(s.scratch, s.pr)
}

// intern returns the ID of states' quotient state, interning it with the
// given engine-reported enabled set when it is new.
func (s *livenessSearch) intern(states []core.State, enabled []sim.Choice) (int32, error) {
	rec, _, hash, err := s.h.encode(states, monState{})
	if err != nil {
		return -1, err
	}
	id, slot := s.store.find(hash, rec)
	if id >= 0 {
		return id, nil
	}
	id = s.store.add(slot, hash, rec, rec, enabled)
	s.target = append(s.target, s.isTarget(states))
	for range enabled {
		s.succ = append(s.succ, -1)
	}
	return id, nil
}

// successor returns the ID of the state that quotient state id's i-th
// enabled choice steps to, stepping the engine from the decoded record only
// the first time.
func (s *livenessSearch) successor(id int32, i int) (int32, error) {
	c := s.store.firstChoice(id) + i
	if next := s.succ[c]; next >= 0 {
		return next, nil
	}
	s.store.decode(id, s.states)
	s.enabled = s.store.enabled(id, s.enabled[:0])
	s.one[0] = s.enabled[i]
	enabled, err := s.eng.Step(s.states, s.enabled, s.one[:], s.next)
	if err != nil {
		return -1, err
	}
	s.steps++
	next, err := s.intern(s.next, enabled)
	if err != nil {
		return -1, err
	}
	s.succ[c] = next
	return next, nil
}

// run certifies the target from inits with a FIFO BFS over product states.
func (s *livenessSearch) run(inits [][]core.State) (*LivenessResult, error) {
	if len(inits) == 0 {
		return nil, fmt.Errorf("explore: no initial states")
	}
	opts, bound := s.opts, s.opts.Bound
	res := &LivenessResult{
		Topology: s.g.Name(), N: s.g.N(), Root: s.pr.Root,
		Engine: opts.Engine, Power: PowerCentral,
		Target: opts.Target, Bound: bound,
	}
	var (
		queue       []livenessNode
		seen        = make(map[livenessNode]struct{})
		transitions int64
		worst       int
		reached     bool
	)
	violation := func(msg string) (*LivenessResult, error) {
		res.ProductStates = len(seen)
		res.Transitions = transitions
		res.WorstRounds = worst
		res.Verdict = "violation"
		res.Violation = msg
		return res, nil
	}
	enqueue := func(nd livenessNode) bool {
		if _, ok := seen[nd]; ok {
			return true
		}
		if len(seen) >= opts.MaxStates {
			return false
		}
		seen[nd] = struct{}{}
		queue = append(queue, nd)
		return true
	}
	for _, init := range inits {
		if len(init) != s.g.N() {
			return nil, fmt.Errorf("explore: initial vector has %d states, want %d", len(init), s.g.N())
		}
		v := normalizeSeed(init)
		enabled, err := s.eng.Probe(v)
		if err != nil {
			return nil, err
		}
		id, err := s.intern(v, enabled)
		if err != nil {
			return nil, err
		}
		// TargetCycle's initial state IS the target (SBN); the cycle it
		// certifies is the return to it, so the init check applies only to
		// TargetNormal.
		if opts.Target == TargetNormal && s.target[id] {
			reached = true // reached within 0 rounds
			continue
		}
		mask := s.store.procs(id)
		if mask == 0 {
			return violation(fmt.Sprintf("deadlock at an initial state before reaching the %s target", opts.Target))
		}
		if !enqueue(livenessNode{id: id, rounds: 1, pending: mask}) {
			return nil, fmt.Errorf("explore: product-state budget %d exceeded (raise MaxStates)", opts.MaxStates)
		}
	}
	for qi := 0; qi < len(queue); qi++ {
		nd := queue[qi]
		for i, n := 0, s.store.numEnabled(nd.id); i < n; i++ {
			next, err := s.successor(nd.id, i)
			if err != nil {
				return nil, err
			}
			transitions++
			if s.target[next] {
				reached = true
				worst = max(worst, int(nd.rounds))
				continue
			}
			mask := s.store.procs(next)
			if mask == 0 {
				return violation(fmt.Sprintf("deadlock during round %d before reaching the %s target", nd.rounds, opts.Target))
			}
			proc := s.store.choice(nd.id, i).Proc
			pending := (nd.pending &^ (1 << uint(proc))) & mask
			rounds := nd.rounds
			if pending == 0 {
				if int(rounds) >= bound {
					return violation(fmt.Sprintf("%d rounds completed without reaching the %s target (bound %d)", rounds, opts.Target, bound))
				}
				rounds++
				pending = mask
			}
			if !enqueue(livenessNode{id: next, rounds: rounds, pending: pending}) {
				return nil, fmt.Errorf("explore: product-state budget %d exceeded (raise MaxStates)", opts.MaxStates)
			}
		}
	}
	if !reached {
		return violation(fmt.Sprintf("no schedule ever reached the %s target", opts.Target))
	}
	res.ProductStates = len(seen)
	res.Transitions = transitions
	res.WorstRounds = worst
	res.Complete = true
	res.Verdict = "certified"
	return res, nil
}
