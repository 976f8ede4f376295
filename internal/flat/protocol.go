package flat

import (
	"fmt"

	"snappif/internal/core"
	"snappif/internal/graph"
)

// Phase values, copied into untyped byte constants so the kernels compare
// uint8 slots without conversions in the guard loops.
const (
	phC = uint8(core.C)
	phB = uint8(core.B)
	phF = uint8(core.F)
)

// noAction is the enabled-kernel result when no guard holds.
const noAction = int32(-1)

// Protocol is the struct-of-arrays PIF kernel: the guards and statements of
// Algorithms 1 and 2 (with the transcription repairs of DESIGN.md §2,
// unless the source protocol reverted them) re-expressed over Config's
// field slices. It is constructed from a *core.Protocol so that both
// engines run from exactly the same parameters — root, N, N', Lmax,
// aggregation fold, and guard reading — which is what the differential
// oracle quantifies over.
//
// The kernels work in slot space (see layout): below, a processor argument
// p is a slot, and so is every Par value read or staged. The ≺_p order of
// a slot's CSR adjacency is its processor's, so the minimum-≺_p tie-break
// of bestPotential is unchanged.
type Protocol struct {
	// Root, N, NPrime, Lmax mirror core.Protocol's parameters; Root is a
	// processor ID.
	Root, N, NPrime, Lmax int
	// Combine mirrors the optional feedback-aggregation fold.
	Combine core.CombineFunc

	// layout is the network's slot layout, which NewConfig shares, and
	// root the root's slot: the kernels speak slots.
	layout
	root int

	printed bool
	g       *graph.Graph
	name    string
	names   []string
	nextMsg uint64
}

// FromCore builds the flat kernel for pr's network and parameters, and
// computes the network's slot layout for NewConfig to share. The root's
// broadcast counter is copied from pr (1 on a freshly constructed protocol,
// a later value when pr was built core.WithFirstMsg), so runs stay
// payload-identical to the sim engine's.
func FromCore(pr *core.Protocol) (*Protocol, error) { return fromCore(pr, nil) }

// FromCoreLike builds the flat kernel for pr as FromCore does, but shares
// the slot layout of like, a kernel on the same network (the same
// *graph.Graph) instead of computing it again. A layout depends on the
// graph alone and is immutable, so the kernels of several roots on one
// network, and every configuration NewConfig builds from them, can share
// one.
func FromCoreLike(pr *core.Protocol, like *Protocol) (*Protocol, error) {
	if like.g != pr.Graph() {
		return nil, fmt.Errorf("flat: FromCoreLike needs a kernel on the protocol's own network")
	}
	return fromCore(pr, &like.layout)
}

// fromCore builds the kernel for pr over layout l, or over a layout
// computed from pr's network when l is nil.
func fromCore(pr *core.Protocol, l *layout) (*Protocol, error) {
	g := pr.Graph()
	if g.N() != pr.N {
		return nil, fmt.Errorf("flat: protocol N = %d does not match graph N = %d", pr.N, g.N())
	}
	if err := checkSize(g); err != nil {
		return nil, err
	}
	if l == nil {
		nl := newLayout(g)
		l = &nl
	}
	return &Protocol{
		Root:    pr.Root,
		N:       pr.N,
		NPrime:  pr.NPrime,
		Lmax:    pr.Lmax,
		Combine: pr.Combine,
		layout:  *l,
		root:    l.slotOf(pr.Root),
		printed: pr.UsesPrintedGuards(),
		g:       g,
		name:    pr.Name(),
		names:   pr.ActionNames(),
		nextMsg: pr.NextMsg(),
	}, nil
}

// NextMsg returns the payload identifier the root's next broadcast will
// carry — the flat counterpart of core.Protocol.NextMsg, read by the
// telemetry flight recorder at checkpoint time.
func (k *Protocol) NextMsg() uint64 { return k.nextMsg }

// Name returns the source protocol's name, not a flat-specific one: the
// engines must be indistinguishable in step-limit errors and trace metadata
// for the differential oracle to compare them byte for byte. Which engine
// ran is recorded by the benchmark/experiment layer, not the kernel.
func (k *Protocol) Name() string { return k.name }

// ActionNames returns the action labels, shared with the generic protocol
// so MovesPerAction maps compare equal across engines.
func (k *Protocol) ActionNames() []string { return append([]string(nil), k.names...) }

// Graph returns the network the kernel runs on.
func (k *Protocol) Graph() *graph.Graph { return k.g }

// sum implements the macro Sum_p = 1 + Σ_{q ∈ Sum_Set_p} Count_q over the
// field slices (cf. core.Protocol.Sum).
//
//snapvet:hotpath
func (k *Protocol) sum(c *Config, p int) int {
	if c.fok[p] {
		return 1
	}
	lp1 := c.level[p] + 1
	p32 := int32(p)
	total := 1
	for _, q := range c.neighbors(p) {
		if c.pif[q] == phB && c.par[q] == p32 && c.level[q] == lp1 {
			total += int(c.count[q])
		}
	}
	return total
}

// bestPotential returns min_{≺p}(Potential_p) (cf. core.bestPotential):
// strict < keeps the earliest neighbor on level ties, matching ≺_p.
//
//snapvet:hotpath
func (k *Protocol) bestPotential(c *Config, p int) int32 {
	lmax := int32(k.Lmax)
	p32 := int32(p)
	best, bestL := int32(-1), int32(0)
	for _, q := range c.neighbors(p) {
		if c.pif[q] == phB && c.par[q] != p32 && c.level[q] < lmax && !c.fok[q] &&
			(best < 0 || c.level[q] < bestL) {
			best, bestL = q, c.level[q]
		}
	}
	if best < 0 {
		panic("flat: B-action applied with empty Potential set")
	}
	return best
}

// leafWithPotential fuses Leaf(p) ∧ (Potential_p ≠ ∅) — the clean-phase
// Broadcast guard — into one neighbor scan: Leaf is a universally
// quantified reject and Potential an existentially quantified accept, so a
// single pass computes the conjunction exactly (cf. core.Protocol.Leaf,
// core.Protocol.hasPotential).
//
//snapvet:hotpath
func (k *Protocol) leafWithPotential(c *Config, p int) bool {
	p32, lmax := int32(p), int32(k.Lmax)
	pot := false
	for _, q := range c.neighbors(p) {
		if c.pif[q] != phC && c.par[q] == p32 {
			return false
		}
		if c.pif[q] == phB && c.par[q] != p32 && c.level[q] < lmax && !c.fok[q] {
			pot = true
		}
	}
	return pot
}

// leafAndBFree fuses Leaf(p) ∧ BFree(p) — the non-root Cleaning guard's
// neighbor conditions — into one scan; both are universally quantified, so
// the fused reject condition is their disjunction.
//
//snapvet:hotpath
func (k *Protocol) leafAndBFree(c *Config, p int) bool {
	p32 := int32(p)
	for _, q := range c.neighbors(p) {
		if c.pif[q] == phB || (c.pif[q] != phC && c.par[q] == p32) {
			return false
		}
	}
	return true
}

// bleaf implements BLeaf(p) with the repaired reading — clean neighbors'
// stale pointers do not block — unless the source protocol reverted it
// (cf. core.Protocol.BLeaf).
//
//snapvet:hotpath
func (k *Protocol) bleaf(c *Config, p int) bool {
	if c.pif[p] != phB {
		return true
	}
	p32 := int32(p)
	for _, q := range c.neighbors(p) {
		if k.printed {
			if c.par[q] == p32 && c.pif[q] != phF {
				return false
			}
			continue
		}
		if c.pif[q] != phC && c.par[q] == p32 && c.pif[q] != phF {
			return false
		}
	}
	return true
}

// bfree implements BFree(p) (cf. core.Protocol.BFree).
//
//snapvet:hotpath
func (k *Protocol) bfree(c *Config, p int) bool {
	for _, q := range c.neighbors(p) {
		if c.pif[q] == phB {
			return false
		}
	}
	return true
}

// allNeighborsClean is the root's Broadcast/Cleaning neighbor scan.
//
//snapvet:hotpath
func (k *Protocol) allNeighborsClean(c *Config, p int) bool {
	for _, q := range c.neighbors(p) {
		if c.pif[q] != phC {
			return false
		}
	}
	return true
}

// enabledAction evaluates p's guards and returns the enabled action ID or
// noAction — the flat counterpart of sim.Protocol.Enabled, exploiting that
// the PIF guards are mutually exclusive (at most one action, enforced by
// property tests on the generic protocol), so the result is a scalar
// instead of a slice.
//
// Every guard of Algorithms 1–2 is gated on Pif_p, so the cascade
// dispatches on the phase first; within a phase each shared sub-predicate
// — Normal(p) and its Sum_p neighbor scan in particular — is computed at
// most once. (The generic protocol's guard-by-guard cascade re-derives
// Normal for ChangeFok, Feedback, NewCount, and the correction guards,
// costing up to four extra Sum scans per evaluation.) All predicates are
// pure reads of the pre-step slices and the per-phase cascade preserves
// the generic guard order, so the result is identical — pinned by the
// differential grid and FuzzFlatVsGeneric.
//
//snapvet:hotpath
func (k *Protocol) enabledAction(c *Config, p int) int32 {
	if p == k.root {
		switch c.pif[p] {
		case phC:
			// Only Broadcast can hold; GoodFok and GoodCount are vacuous
			// for a clean root, so the correction guard never fires.
			if k.allNeighborsClean(c, p) {
				return core.ActionB
			}
			return noAction
		case phB:
			if c.fok[p] {
				// GoodCount is vacuous; Normal reduces to GoodFok's root
				// clause Count_root = N.
				if int(c.count[p]) != k.N {
					return core.ActionBCorrection
				}
				if k.bfree(c, p) {
					return core.ActionF // Feedback
				}
				return noAction
			}
			// GoodFok is vacuous; Normal reduces to GoodCount. One Sum
			// scan serves both GoodCount and NewCount (with the root
			// repair disjunct, unless the printed guards were requested).
			sum := k.sum(c, p)
			if int(c.count[p]) > sum {
				return core.ActionBCorrection
			}
			if int(c.count[p]) < sum || (!k.printed && sum == k.N) {
				return core.ActionCount // NewCount
			}
			return noAction
		default: // phF
			// Normal is vacuously true for a feedback root.
			if k.allNeighborsClean(c, p) {
				return core.ActionC // Cleaning
			}
			return noAction
		}
	}
	switch c.pif[p] {
	case phC:
		// Only Broadcast can hold; every Good* predicate is vacuous in
		// phase C, so the correction guards never fire.
		if k.leafWithPotential(c, p) {
			return core.ActionB
		}
		return noAction
	case phB:
		par := c.par[p]
		// Normal in phase B: GoodPif (parent broadcasting), GoodLevel,
		// GoodFok's broadcast clause, and — only when Fok_p is down —
		// GoodCount, whose Sum scan is reused by NewCount below.
		good := c.pif[par] == phB &&
			c.level[p] == c.level[par]+1 &&
			!(c.fok[p] && !c.fok[par])
		sum := 0
		if good && !c.fok[p] {
			sum = k.sum(c, p)
			good = int(c.count[p]) <= sum
		}
		if !good {
			return core.ActionBCorrection // AbnormalB
		}
		if c.fok[p] != c.fok[par] {
			return core.ActionFok // ChangeFok
		}
		if c.fok[p] {
			if k.bleaf(c, p) {
				return core.ActionF // Feedback
			}
			return noAction
		}
		if int(c.count[p]) < sum {
			return core.ActionCount // NewCount
		}
		return noAction
	default: // phF
		par := c.par[p]
		// Normal in phase F: GoodPif (parent in B or F), GoodLevel, and
		// GoodFok's feedback clause; GoodCount is vacuous.
		parPh := c.pif[par]
		good := (parPh == phB || parPh == phF) &&
			c.level[p] == c.level[par]+1 &&
			!(parPh == phB && !c.fok[par])
		if !good {
			return core.ActionFCorrection // AbnormalF
		}
		if k.leafAndBFree(c, p) {
			return core.ActionC // Cleaning
		}
		return noAction
	}
}

// Readers returns the slots other than p whose guards can read what action
// a at slot p writes — the set a guard cache must re-evaluate besides p
// after the move; p's own guards always can. For every action that is p's
// neighborhood, the kernel's invalidation radius 1, with one exception: a
// non-root NewCount writes only Count_p, which no neighbor's guard reads
// except through its Sum, and p counts in the Sum of Par_p alone. The
// root's NewCount also writes Fok_root, which every neighbor reads, so it
// keeps the full neighborhood. Par_p is the same before and after the move,
// so the result does not depend on whether the move has been committed. The
// returned slice aliases c's storage and must not be modified.
//
//snapvet:hotpath
func (k *Protocol) Readers(c *Config, p int, a int32) []int32 {
	if a == core.ActionCount && p != k.root {
		return c.par[p : p+1]
	}
	return c.neighbors(p)
}

// aggregate folds the feedback children's Agg values into p's Val at
// F-action time (cf. core.Protocol.aggregate).
//
//snapvet:hotpath
func (k *Protocol) aggregate(c *Config, p int) int64 {
	acc := c.val[p]
	if k.Combine == nil {
		return acc
	}
	lp1 := c.level[p] + 1
	p32 := int32(p)
	for _, q := range c.neighbors(p) {
		if c.par[q] == p32 && c.pif[q] == phF && c.level[q] == lp1 {
			//snapvet:ok Combine is the pure aggregation fold fixed at construction; it reads only its arguments
			acc = k.Combine(acc, c.agg[q])
		}
	}
	return acc
}

// Write is the write set of one move: the values its action writes that
// are not constants of the statement, read from the pre-step configuration
// by Stage and written by Commit. A move writes at most six fields of
// core.State and usually one or two, so the runner stages these 16 bytes a
// move instead of a 64-byte core.State. Which fields are live depends on
// the action:
//
//   - Broadcast: par and level are the Potential parent's slot and its level
//     plus one (a non-root move; the root keeps both), and word the message
//     the move takes, the parent's or, at the root, the next payload;
//   - NewCount: par is the new count and level the root's new Fok (0 or 1);
//   - Feedback: word is the folded aggregate.
//
// Every other action writes constants only (ChangeFok, Cleaning and the
// corrections).
type Write struct {
	par, level int32
	word       uint64
}

// Stage computes the write set of action a at slot p from the pre-step
// slices into *w — the reads of core.Protocol.Apply's statement. It must
// not touch any Config slice (composite atomicity: the runner stages every
// move before it commits any), and it advances only the root's broadcast
// counter, which only the root's B-action reads. Par is staged as a slot.
//
//snapvet:hotpath
func (k *Protocol) Stage(c *Config, p int, a int32, w *Write) {
	switch a {
	case core.ActionB:
		if p == k.root {
			w.word = k.nextMsg
			//snapvet:ok only the root's B-action reaches this, and a daemon selects at most one action per processor per step
			k.nextMsg++
			return
		}
		par := k.bestPotential(c, p)
		w.par, w.level, w.word = par, c.level[par]+1, c.msg[par]
	case core.ActionF:
		w.word = uint64(k.aggregate(c, p))
	case core.ActionCount:
		sum := k.sum(c, p)
		w.par, w.level = int32(minInt(sum, k.NPrime)), 0
		if p == k.root && sum == k.N {
			w.level = 1
		}
	case core.ActionFok, core.ActionFCorrection:
		if p == k.root {
			panic(fmt.Sprintf("flat: root action %d out of range", a)) //snapvet:ok cold invariant-violation path, never taken in a legal run
		}
	case core.ActionC, core.ActionBCorrection:
	default:
		panic(fmt.Sprintf("flat: action %d out of range", a)) //snapvet:ok cold invariant-violation path, never taken in a legal run
	}
}

// Commit writes the write set w that Stage computed for action a at slot p
// into c, with the statement's constants: only the columns the action
// changes.
//
//snapvet:hotpath
func (k *Protocol) Commit(c *Config, p int, a int32, w *Write) {
	root := p == k.root
	switch a {
	case core.ActionB:
		if !root {
			c.par[p], c.level[p] = w.par, w.level
		}
		c.pif[p] = phB
		c.count[p] = 1
		c.fok[p] = root && k.N == 1
		c.msg[p] = w.word
	case core.ActionFok:
		c.fok[p] = true
	case core.ActionF:
		c.pif[p] = phF
		c.agg[p] = int64(w.word)
	case core.ActionCount:
		c.count[p] = w.par
		if root {
			c.fok[p] = w.level != 0
		}
	case core.ActionBCorrection:
		// The root restarts clean; any other processor feeds back.
		if root {
			c.pif[p] = phC
		} else {
			c.pif[p] = phF
		}
	case core.ActionC, core.ActionFCorrection:
		c.pif[p] = phC
	default:
		panic(fmt.Sprintf("flat: action %d out of range", a)) //snapvet:ok cold invariant-violation path, never taken in a legal run
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
