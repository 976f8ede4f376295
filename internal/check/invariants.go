package check

import (
	"fmt"

	"snappif/internal/core"
	"snappif/internal/sim"
)

// This file implements the invariants of Section 4.2 (Properties 1 and 2),
// the chordless-ParentPath property from the proof of Theorem 4, and domain
// checks on the variables. Each check returns nil or an error describing the
// first violation found — the experiment harness treats any non-nil result
// as a reproduction failure.

// Property1 checks the paper's Property 1: while the root broadcasts with
// Fok lowered, every LegalTree member is broadcasting at the right level
// with Fok lowered and Count ≤ Sum. The paper's induction implicitly starts
// from a root satisfying its own Good predicates (a corrupted root is about
// to execute B-correction and its tree is vacuous), so the check is
// conditioned on Normal(r).
//
//snapvet:hotpath
func Property1(c *sim.Configuration, pr *core.Protocol) error {
	sr := stateOf(c, pr.Root)
	if sr.Pif != core.B || sr.Fok {
		return nil
	}
	var flags [stackProcs]uint8
	t := newTreeView(c, pr, flags[:])
	if !t.normal(pr.Root) {
		return nil
	}
	for p := 0; p < c.N(); p++ {
		if !t.member(p) {
			continue
		}
		s := stateOf(c, p)
		if s.Pif != core.B {
			return fmt.Errorf("check: property 1: p%d in LegalTree has Pif=%v, want B", p, s.Pif) //snapvet:ok violation message, built once per failed check
		}
		if p != pr.Root && s.L != stateOf(c, s.Par).L+1 {
			return fmt.Errorf("check: property 1: p%d has L=%d, parent p%d has L=%d", //snapvet:ok violation message, built once per failed check
				p, s.L, s.Par, stateOf(c, s.Par).L) //snapvet:ok violation message, built once per failed check
		}
		if s.Fok {
			return fmt.Errorf("check: property 1: p%d in LegalTree has Fok raised", p) //snapvet:ok violation message, built once per failed check
		}
		if sum := pr.Sum(c, p); s.Count > sum {
			return fmt.Errorf("check: property 1: p%d has Count=%d > Sum=%d", p, s.Count, sum) //snapvet:ok violation message, built once per failed check
		}
	}
	return nil
}

// Property2 checks the paper's Property 2 in normal configurations:
//
//  1. every participating processor belongs to the (Good)LegalTree;
//  2. Pif_r = C implies every processor is clean;
//  3. Pif_r = F implies every LegalTree member is in feedback;
//  4. while broadcasting with Fok lowered, Count never exceeds the true
//     subtree size.
//
// In configurations that are not normal the property is vacuous and nil is
// returned.
//
//snapvet:hotpath
func Property2(c *sim.Configuration, pr *core.Protocol) error {
	var flags [stackProcs]uint8
	t := newTreeView(c, pr, flags[:])
	for p := 0; p < c.N(); p++ {
		if !t.normal(p) {
			return nil
		}
	}
	sr := stateOf(c, pr.Root)
	for p := 0; p < c.N(); p++ {
		s := stateOf(c, p)
		in := t.member(p)
		if s.Pif != core.C && !in {
			return fmt.Errorf("check: property 2.1: participating p%d (Pif=%v) outside LegalTree", p, s.Pif) //snapvet:ok violation message, built once per failed check
		}
		if sr.Pif == core.C && s.Pif != core.C {
			return fmt.Errorf("check: property 2.2: root clean but p%d has Pif=%v", p, s.Pif) //snapvet:ok violation message, built once per failed check
		}
		if sr.Pif == core.F && in && s.Pif != core.F {
			return fmt.Errorf("check: property 2.3: root in feedback but tree member p%d has Pif=%v", p, s.Pif) //snapvet:ok violation message, built once per failed check
		}
	}
	if sr.Pif == core.B && !sr.Fok {
		var sizeBuf [stackProcs]int
		var scratch [2*stackProcs + 1]int32
		sizes := t.subtreeSizes(sizeBuf[:], scratch[:])
		for p := range sizes {
			if cnt := stateOf(c, p).Count; sizes[p] != 0 && cnt > sizes[p] {
				return fmt.Errorf("check: property 2.4: p%d has Count=%d > #Subtree=%d", p, cnt, sizes[p]) //snapvet:ok violation message, built once per failed check
			}
		}
	}
	return nil
}

// ChordlessParentPaths checks the structural property established in the
// proof of Theorem 4: every ParentPath of a LegalTree member is an
// elementary chordless path of the network. The property holds for trees
// the algorithm builds from a clean start; it is not guaranteed for
// adversarially injected initial configurations, so callers attach this
// check only to clean-start runs.
func ChordlessParentPaths(c *sim.Configuration, pr *core.Protocol) error {
	for _, p := range LegalTree(c, pr) {
		if p == pr.Root || stateOf(c, p).Pif == core.C {
			continue
		}
		path := ParentPath(c, pr, p)
		if !c.G.IsChordlessPath(path) {
			return fmt.Errorf("check: ParentPath(%d) = %v is not chordless", p, path)
		}
	}
	return nil
}

// Domains checks that every variable stays in its declared domain:
// Pif ∈ {B,F,C}, Par_p ∈ Neig_p (⊥ at the root), L_r = 0 and
// L_p ∈ [1,Lmax] otherwise, Count ∈ [1,N'].
//
//snapvet:hotpath
func Domains(c *sim.Configuration, pr *core.Protocol) error {
	for p := 0; p < c.N(); p++ {
		s := stateOf(c, p)
		if s.Pif != core.B && s.Pif != core.F && s.Pif != core.C {
			return fmt.Errorf("check: p%d has Pif=%d outside {B,F,C}", p, s.Pif) //snapvet:ok violation message, built once per failed check
		}
		if s.Count < 1 || s.Count > pr.NPrime {
			return fmt.Errorf("check: p%d has Count=%d outside [1,%d]", p, s.Count, pr.NPrime) //snapvet:ok violation message, built once per failed check
		}
		if p == pr.Root {
			if s.Par != core.ParNone {
				return fmt.Errorf("check: root Par=%d, want ⊥", s.Par) //snapvet:ok violation message, built once per failed check
			}
			if s.L != 0 {
				return fmt.Errorf("check: root L=%d, want 0", s.L) //snapvet:ok violation message, built once per failed check
			}
			continue
		}
		if s.L < 1 || s.L > pr.Lmax {
			return fmt.Errorf("check: p%d has L=%d outside [1,%d]", p, s.L, pr.Lmax) //snapvet:ok violation message, built once per failed check
		}
		if !c.G.HasEdge(p, s.Par) {
			return fmt.Errorf("check: p%d has Par=%d which is not a neighbor", p, s.Par) //snapvet:ok violation message, built once per failed check
		}
	}
	return nil
}

// Check is one named configuration predicate used by Monitor.
type Check struct {
	Name string
	Fn   func(*sim.Configuration, *core.Protocol) error
}

// StandardChecks returns the invariant set safe on any run, including runs
// from corrupted initial configurations.
func StandardChecks() []Check {
	return []Check{
		{Name: "domains", Fn: Domains},
		{Name: "property-1", Fn: Property1},
		{Name: "property-2", Fn: Property2},
	}
}

// CleanStartChecks returns StandardChecks plus the checks that are only
// guaranteed on runs started from the normal starting configuration.
func CleanStartChecks() []Check {
	return append(StandardChecks(),
		Check{Name: "chordless-parentpaths", Fn: ChordlessParentPaths})
}

// Violation is one structured invariant failure: which check failed, at
// which step, with the underlying message. The hunt shrinker keys on Check
// to make sure a minimized scenario still fails for the *same* reason as the
// original counterexample.
type Violation struct {
	// Step is the 1-based computation step after which the check failed.
	Step int `json:"step"`
	// Check is the failing check's name (e.g. "domains").
	Check string `json:"check"`
	// Msg is the underlying error text.
	Msg string `json:"msg"`
}

// String renders the violation in the historical Monitor format.
func (v Violation) String() string {
	return fmt.Sprintf("step %d: %s: %s", v.Step, v.Check, v.Msg)
}

// Monitor is a sim.Observer that evaluates a set of invariant checks after
// every computation step and records violations.
type Monitor struct {
	Proto  *core.Protocol
	Checks []Check

	// Violations collects one message per violated (step, check).
	Violations []string
	// Records collects the same violations in structured form.
	Records []Violation
	// StepsChecked counts how many steps were examined.
	StepsChecked int
}

var _ sim.Observer = (*Monitor)(nil)

// NewMonitor builds a Monitor over the given checks.
func NewMonitor(pr *core.Protocol, checks []Check) *Monitor {
	return &Monitor{Proto: pr, Checks: checks}
}

// OnStep implements sim.Observer.
func (m *Monitor) OnStep(step int, _ []sim.Choice, c *sim.Configuration) {
	m.StepsChecked++
	for _, chk := range m.Checks {
		if err := chk.Fn(c, m.Proto); err != nil {
			rec := Violation{Step: step, Check: chk.Name, Msg: err.Error()}
			m.Records = append(m.Records, rec)
			m.Violations = append(m.Violations, rec.String())
		}
	}
}

// Stop returns a sim.Options.StopWhen predicate that halts the run as soon
// as the monitor has recorded a violation. Hunters use it so a failing run
// ends at the first bad step instead of burning the rest of its budget.
func (m *Monitor) Stop() func(*sim.RunState) bool {
	return func(*sim.RunState) bool { return len(m.Records) > 0 }
}

// Err returns an error summarizing the recorded violations, or nil.
func (m *Monitor) Err() error {
	if len(m.Violations) == 0 {
		return nil
	}
	return fmt.Errorf("check: %d invariant violations, first: %s", len(m.Violations), m.Violations[0])
}
