package core

import (
	"fmt"

	"snappif/internal/graph"
	"snappif/internal/sim"
)

// Action IDs, shared by root and non-root processors. Names follow the
// paper's action labels.
const (
	ActionB = iota
	ActionFok
	ActionF
	ActionC
	ActionCount
	ActionBCorrection
	ActionFCorrection
	numActions
)

var actionNames = []string{
	ActionB:           "B-action",
	ActionFok:         "Fok-action",
	ActionF:           "F-action",
	ActionC:           "C-action",
	ActionCount:       "Count-action",
	ActionBCorrection: "B-correction",
	ActionFCorrection: "F-correction",
}

// CombineFunc merges a child's aggregated feedback value into an
// accumulator; it parameterizes the optional feedback-aggregation extension
// (distributed infimum computation etc., see package doc).
type CombineFunc func(acc, child int64) int64

// Protocol is the snap-stabilizing PIF protocol instantiated on a concrete
// network. It implements sim.Protocol.
//
// Per the paper, the root knows the exact network size N (that knowledge is
// the key to snap-stabilization), every processor knows Lmax ≥ N-1, and
// Count ranges over [1,N'] for an upper bound N' ≥ N.
type Protocol struct {
	// Root is the initiator processor r.
	Root int
	// N is the exact network size, an input at the root.
	N int
	// NPrime is the upper bound N' on N bounding the Count domain.
	NPrime int
	// Lmax is the level bound, ≥ N-1.
	Lmax int
	// Combine, if non-nil, enables feedback aggregation: at F-action time a
	// processor folds its children's Agg values into its own Val.
	Combine CombineFunc

	// printedGuards reverts the two model-checker-found repairs (DESIGN.md
	// §2, repairs 3 and 4) to the guards exactly as printed in the paper's
	// transcription. For studying the repairs only: with printed guards
	// certain corrupted configurations deadlock, which the exhaustive
	// checker demonstrates (internal/explore's TestPrintedGuardsDeadlock).
	printedGuards bool

	g       *graph.Graph
	nextMsg uint64
}

var _ sim.Protocol = (*Protocol)(nil)

// Option customizes a Protocol.
type Option func(*Protocol)

// WithLmax overrides the default level bound Lmax = N-1. The value must be
// at least N-1; larger values are legal and slow error correction (the
// bounds of Theorems 1–3 scale with Lmax).
func WithLmax(lmax int) Option {
	return func(pr *Protocol) { pr.Lmax = lmax }
}

// WithNPrime overrides the default Count domain bound N' = N.
func WithNPrime(nprime int) Option {
	return func(pr *Protocol) { pr.NPrime = nprime }
}

// WithCombine enables feedback aggregation with the given fold.
func WithCombine(f CombineFunc) Option {
	return func(pr *Protocol) { pr.Combine = f }
}

// WithFirstMsg sets the payload identifier the root's next broadcast will
// carry (default 1). Mid-run replay tooling — the telemetry flight
// recorder — captures the counter at checkpoint time and resumes it here,
// so a scenario cut from the middle of a run reproduces the tail's payload
// values exactly. Zero is ignored (the counter keeps its default).
func WithFirstMsg(m uint64) Option {
	return func(pr *Protocol) {
		if m > 0 {
			pr.nextMsg = m
		}
	}
}

// WithPrintedGuards reverts the repairs of DESIGN.md §2 (3 and 4), running
// the guards exactly as printed in the transcription. Only for
// demonstrating why the repairs are necessary: corrupted configurations can
// deadlock under the printed guards.
func WithPrintedGuards() Option {
	return func(pr *Protocol) { pr.printedGuards = true }
}

// New builds the protocol for network g rooted at root.
func New(g *graph.Graph, root int, opts ...Option) (*Protocol, error) {
	if root < 0 || root >= g.N() {
		return nil, fmt.Errorf("core: root %d out of range [0,%d)", root, g.N())
	}
	pr := &Protocol{
		Root:    root,
		N:       g.N(),
		NPrime:  g.N(),
		Lmax:    max(1, g.N()-1),
		g:       g,
		nextMsg: 1,
	}
	for _, o := range opts {
		o(pr)
	}
	if pr.Lmax < g.N()-1 {
		return nil, fmt.Errorf("core: Lmax = %d violates Lmax ≥ N-1 = %d", pr.Lmax, g.N()-1)
	}
	if pr.NPrime < g.N() {
		return nil, fmt.Errorf("core: N' = %d violates N' ≥ N = %d", pr.NPrime, g.N())
	}
	return pr, nil
}

// MustNew is New but panics on error; for tests and examples.
func MustNew(g *graph.Graph, root int, opts ...Option) *Protocol {
	pr, err := New(g, root, opts...)
	if err != nil {
		panic(err)
	}
	return pr
}

// Graph returns the network the protocol runs on.
func (pr *Protocol) Graph() *graph.Graph { return pr.g }

// NextMsg returns the payload identifier the root's next broadcast will
// carry. Checkpointing tools persist it so a replay resumed from the
// checkpoint assigns the same payload sequence (see WithFirstMsg).
func (pr *Protocol) NextMsg() uint64 { return pr.nextMsg }

// UsesPrintedGuards reports whether WithPrintedGuards reverted the
// transcription repairs. The struct-of-arrays kernel (internal/flat)
// mirrors the guard kernels field by field and needs to know which reading
// to replicate.
func (pr *Protocol) UsesPrintedGuards() bool { return pr.printedGuards }

// Name implements sim.Protocol.
func (pr *Protocol) Name() string { return "snap-pif" }

// ActionNames implements sim.Protocol.
func (pr *Protocol) ActionNames() []string {
	return append([]string(nil), actionNames...)
}

// InitialState implements sim.Protocol: the normal starting configuration
// has Pif_p = C everywhere. The remaining variables still carry legal
// domain values (they are irrelevant while Pif = C).
func (pr *Protocol) InitialState(p int) sim.State {
	s := State{Pif: C, Count: 1}
	if p == pr.Root {
		s.Par = ParNone
		s.L = 0
	} else {
		s.Par = pr.g.Neighbors(p)[0]
		s.L = 1
	}
	return &s
}

// enabledSingle[a] is the shared, read-only slice Enabled returns for action
// a; sharing the boxes keeps guard evaluation allocation-free.
var enabledSingle = [numActions][]int{
	ActionB:           {ActionB},
	ActionFok:         {ActionFok},
	ActionF:           {ActionF},
	ActionC:           {ActionC},
	ActionCount:       {ActionCount},
	ActionBCorrection: {ActionBCorrection},
	ActionFCorrection: {ActionFCorrection},
}

// Enabled implements sim.Protocol. The guards of Algorithms 1 and 2 are
// mutually exclusive, so at most one action is returned (verified by
// property tests in enabled_test.go). The returned slice is shared and must
// not be mutated.
//
//snapvet:hotpath
func (pr *Protocol) Enabled(c *sim.Configuration, p int) []int {
	if p == pr.Root {
		return pr.enabledRoot(c, p)
	}
	return pr.enabledOther(c, p)
}

// enabledRoot evaluates Algorithm 1's guards.
//
//snapvet:hotpath
func (pr *Protocol) enabledRoot(c *sim.Configuration, p int) []int {
	switch {
	case pr.Broadcast(c, p):
		return enabledSingle[ActionB]
	case pr.Feedback(c, p):
		return enabledSingle[ActionF]
	case pr.Cleaning(c, p):
		return enabledSingle[ActionC]
	case pr.NewCount(c, p):
		return enabledSingle[ActionCount]
	case !pr.Normal(c, p):
		return enabledSingle[ActionBCorrection]
	default:
		return nil
	}
}

// enabledOther evaluates Algorithm 2's guards.
//
//snapvet:hotpath
func (pr *Protocol) enabledOther(c *sim.Configuration, p int) []int {
	switch {
	case pr.Broadcast(c, p):
		return enabledSingle[ActionB]
	case pr.ChangeFok(c, p):
		return enabledSingle[ActionFok]
	case pr.Feedback(c, p):
		return enabledSingle[ActionF]
	case pr.Cleaning(c, p):
		return enabledSingle[ActionC]
	case pr.NewCount(c, p):
		return enabledSingle[ActionCount]
	case pr.AbnormalB(c, p):
		return enabledSingle[ActionBCorrection]
	case pr.AbnormalF(c, p):
		return enabledSingle[ActionFCorrection]
	default:
		return nil
	}
}

// Apply implements sim.Protocol. Statements read the pre-step configuration
// c and return p's next state.
func (pr *Protocol) Apply(c *sim.Configuration, p int, a int) sim.State {
	s := pr.apply(c, p, a)
	return &s
}

// ApplyInto implements sim.InPlaceProtocol: like Apply, but the next state
// overwrites dst's box instead of allocating a fresh one.
//
//snapvet:hotpath
func (pr *Protocol) ApplyInto(c *sim.Configuration, p int, a int, dst sim.State) {
	*dst.(*State) = pr.apply(c, p, a)
}

// apply computes p's next state by value.
//
//snapvet:hotpath
func (pr *Protocol) apply(c *sim.Configuration, p int, a int) State {
	s := st(c, p)
	if p == pr.Root {
		return pr.applyRoot(c, p, a, s)
	}
	return pr.applyOther(c, p, a, s)
}

// applyRoot executes Algorithm 1's statements.
//
//snapvet:hotpath
func (pr *Protocol) applyRoot(c *sim.Configuration, p, a int, s State) State {
	switch a {
	case ActionB:
		// Pif := B; Count := 1; Fok := (1 = N). The root stamps a fresh
		// message value: this is the broadcast of m.
		s.Pif = B
		s.Count = 1
		s.Fok = pr.N == 1
		s.Msg = pr.nextMsg
		pr.nextMsg++
	case ActionF:
		s.Pif = F
		s.Agg = pr.aggregate(c, p, s)
	case ActionC:
		s.Pif = C
	case ActionCount:
		// Count := Sum, saturated at the domain bound N' (with corrupted
		// descendant counts Sum can transiently exceed N'; the variable
		// physically cannot hold such a value — see DESIGN.md §2). The Fok
		// test uses the unsaturated Sum, exactly as printed.
		sum := pr.Sum(c, p)
		s.Count = min(sum, pr.NPrime)
		s.Fok = sum == pr.N
	case ActionBCorrection:
		s.Pif = C
	default:
		panic(fmt.Sprintf("core: root action %d out of range", a)) //snapvet:ok cold invariant-violation path, never taken in a legal run
	}
	return s
}

// applyOther executes Algorithm 2's statements.
//
//snapvet:hotpath
func (pr *Protocol) applyOther(c *sim.Configuration, p, a int, s State) State {
	switch a {
	case ActionB:
		// Par := min_{≺p}(Potential_p); L := L_Par + 1; Count := 1;
		// Fok := false; Pif := B. Receiving the broadcast also copies the
		// parent's message payload.
		par := pr.bestPotential(c, p)
		s.Par = par
		s.L = st(c, par).L + 1
		s.Count = 1
		s.Fok = false
		s.Pif = B
		s.Msg = st(c, par).Msg
	case ActionFok:
		s.Fok = true
	case ActionF:
		s.Pif = F
		s.Agg = pr.aggregate(c, p, s)
	case ActionC:
		s.Pif = C
	case ActionCount:
		s.Count = min(pr.Sum(c, p), pr.NPrime) // saturated, see applyRoot
	case ActionBCorrection:
		s.Pif = F
	case ActionFCorrection:
		s.Pif = C
	default:
		panic(fmt.Sprintf("core: action %d out of range", a)) //snapvet:ok cold invariant-violation path, never taken in a legal run
	}
	return s
}

// aggregate folds the Agg values of p's feedback children into p's Val at
// F-action time (extension; see package doc). Children are the neighbors
// that point to p at the next level and have reached the feedback phase —
// at F-action time BLeaf(p) guarantees that set is exactly p's children in
// the constructed tree.
//
//snapvet:hotpath
func (pr *Protocol) aggregate(c *sim.Configuration, p int, s State) int64 {
	acc := s.Val
	if pr.Combine == nil {
		return acc
	}
	for _, q := range c.G.Neighbors(p) {
		sq := st(c, q)
		if sq.Par == p && sq.Pif == F && sq.L == s.L+1 {
			acc = pr.Combine(acc, sq.Agg)
		}
	}
	return acc
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// GuardsAreLocal implements sim.LocalProtocol: every guard of Algorithms 1
// and 2 reads only the closed neighborhood, enabling the runner's
// incremental guard evaluation.
func (pr *Protocol) GuardsAreLocal() bool { return true }
