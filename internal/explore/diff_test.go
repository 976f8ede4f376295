package explore

import (
	"sort"
	"testing"

	"snappif/internal/core"
	"snappif/internal/graph"
	"snappif/internal/sim"
)

// The abstraction-soundness differential: referenceEngine derives the
// transition relation independently of any runner (sim.EnabledChoices on a
// scratch configuration plus Protocol.Apply per selected choice), while the
// sim engine drives the real runner with its guard cache, seeded restarts
// and in-place commit. These tests pin the two relations to each other on
// the 3-processor line and triangle, in both directions.

// referenceEngine is the independent transition relation: every guard is
// evaluated by sim.EnabledChoices, and a step applies every selected choice
// with Protocol.Apply against the pre-step configuration and commits them
// together (composite atomicity). The caller's enabled set goes unused.
type referenceEngine struct {
	pr  *core.Protocol
	cfg *sim.Configuration
}

func newReferenceEngine(g *graph.Graph) *referenceEngine {
	pr := core.MustNew(g, 0)
	return &referenceEngine{pr: pr, cfg: sim.NewConfiguration(g, pr)}
}

// Name implements Engine.
func (r *referenceEngine) Name() string { return "reference" }

// Probe implements Engine.
func (r *referenceEngine) Probe(states []core.State, buf []sim.Choice) ([]sim.Choice, error) {
	loadStates(r.cfg, states)
	return append(buf, sim.EnabledChoices(r.cfg, r.pr)...), nil
}

// Step implements Engine.
func (r *referenceEngine) Step(states []core.State, _, sel []sim.Choice, succ []core.State, buf []sim.Choice) ([]sim.Choice, error) {
	loadStates(r.cfg, states)
	copy(succ, states)
	for _, ch := range sel {
		succ[ch.Proc] = *r.pr.Apply(r.cfg, ch.Proc, ch.Action).(*core.State)
	}
	loadStates(r.cfg, succ)
	return append(buf, sim.EnabledChoices(r.cfg, r.pr)...), nil
}

// runWith runs an explorer built from opts from inits with every worker's
// engine replaced by a fresh eng().
func runWith(t *testing.T, g *graph.Graph, opts Options, inits [][]core.State, eng func() Engine) (*Explorer, *Result) {
	t.Helper()
	root := 0
	if len(opts.Initiators) > 0 {
		root = opts.Initiators[0]
	}
	e, err := New(g, root, opts)
	if err != nil {
		t.Fatal(err)
	}
	for w := range e.workers {
		e.workers[w].eng = eng()
	}
	res, err := e.Run(inits)
	if err != nil {
		t.Fatal(err)
	}
	return e, res
}

// TestMCDifferentialCounts: exploring byte-identical initial vectors through
// the sim engine and through referenceEngine must yield the same verdict,
// state and transition counts and fingerprint over the full closure — the
// two relations agree on the quotient (state × wave-monitor) graph. The
// full-domain line-3 closure also keeps the counts the abstract checker
// reported for it, under both daemons.
func TestMCDifferentialCounts(t *testing.T) {
	for _, tc := range []struct {
		build              func(int) (*graph.Graph, error)
		mode, power        string
		states, transition int64
	}{
		{graph.Line, "faults:3", PowerCentral, 0, 0},
		{graph.Ring, "faults:3", PowerCentral, 0, 0},
		{graph.Line, "domain", PowerCentral, 47558, 82768},
		{graph.Line, "domain", PowerDistributed, 47558, 126296},
	} {
		g := mustGraph(t, tc.build, 3)
		name := g.Name() + "/" + tc.mode
		if tc.power != PowerCentral {
			name += "/" + tc.power
		}
		t.Run(name, func(t *testing.T) {
			opts := Options{Power: tc.power}
			inits := mustInits(t, tc.mode, g)
			_, ref := runWith(t, g, opts, inits, func() Engine { return newReferenceEngine(g) })
			_, exRes := run(t, g, opts, tc.mode)
			if exRes.Verdict != "certified" || ref.Verdict != "certified" {
				t.Fatalf("verdicts: sim %q (%s), reference %q (%s)", exRes.Verdict, exRes.Violation, ref.Verdict, ref.Violation)
			}
			if exRes.States != ref.States || exRes.Transitions != ref.Transitions || exRes.Fingerprint != ref.Fingerprint {
				t.Fatalf("relations diverge: sim %d states, %d transitions (%s); reference %d, %d (%s)",
					exRes.States, exRes.Transitions, exRes.Fingerprint, ref.States, ref.Transitions, ref.Fingerprint)
			}
			if tc.states > 0 && (int64(exRes.States) != tc.states || exRes.Transitions != tc.transition) {
				t.Fatalf("%d states, %d transitions; want %d, %d", exRes.States, exRes.Transitions, tc.states, tc.transition)
			}
			t.Logf("%s: %d states, %d transitions agree", name, exRes.States, exRes.Transitions)
		})
	}
}

// TestMCDifferentialPerTransition walks every state the explorer interned
// and checks, per state, both directions of the correspondence:
//
//   - every choice the abstract relation enables (sim.EnabledChoices on a
//     scratch configuration, referenceEngine's source of transitions) is
//     enabled by the real engine, and vice versa;
//   - for every enabled choice, abstract apply (sim.Protocol.Apply plus the
//     wave-monitor transition) and the engine's forced step land on the
//     same canonical key.
func TestMCDifferentialPerTransition(t *testing.T) {
	for _, build := range []func(int) (*graph.Graph, error){graph.Line, graph.Ring} {
		g := mustGraph(t, build, 3)
		t.Run(g.Name(), func(t *testing.T) {
			e, res := run(t, g, Options{}, "faults:3")
			if res.Verdict != "certified" {
				t.Fatalf("explore verdict %q", res.Verdict)
			}
			pr := core.MustNew(g, 0)
			cfg := sim.NewConfiguration(g, pr)
			eng, err := newEngine("sim", g, 0, "", nil)
			if err != nil {
				t.Fatal(err)
			}
			h := &hasher{lay: e.store.lay}
			checkedSteps := 0
			states := make([]core.State, g.N())
			for id := int32(0); id < int32(e.store.len()); id++ {
				mon := e.store.decode(id, states)
				enabled := e.store.enabled(id, nil)
				for p, s := range states {
					core.Set(cfg, p, s)
				}
				abstract := sim.EnabledChoices(cfg, pr)
				if !sameChoices(abstract, enabled) {
					t.Fatalf("state %d: abstract enabled %v, engine enabled %v",
						id, abstract, enabled)
				}
				for _, ch := range abstract {
					// Abstract successor: per-choice apply on the scratch
					// configuration (central daemon: one mover), then the
					// wave-monitor transition on the quotient.
					succ := append([]core.State(nil), states...)
					succ[ch.Proc] = *(pr.Apply(cfg, ch.Proc, ch.Action).(*core.State))
					succMon, delivery := e.applyMonitor(states, mon, []sim.Choice{ch}, succ)
					if delivery != "" {
						t.Fatalf("state %d choice %v: unexpected delivery violation %q", id, ch, delivery)
					}
					wantKey := h.key(succ, succMon)

					engSucc := make([]core.State, len(states))
					_, err := eng.Step(states, enabled, []sim.Choice{ch}, engSucc, nil)
					if err != nil {
						t.Fatalf("state %d: engine rejects abstract choice %v: %v", id, ch, err)
					}
					engMon, _ := e.applyMonitor(states, mon, []sim.Choice{ch}, engSucc)
					if gotKey := h.key(engSucc, engMon); gotKey != wantKey {
						t.Fatalf("state %d choice %v: abstract and engine successors diverge", id, ch)
					}
					checkedSteps++
				}
			}
			if int64(checkedSteps) != res.Transitions {
				t.Fatalf("checked %d steps, explorer counted %d transitions", checkedSteps, res.Transitions)
			}
			t.Logf("%s: %d states, %d transitions bisimulate", g.Name(), res.States, checkedSteps)
		})
	}
}

func sameChoices(a, b []sim.Choice) bool {
	if len(a) != len(b) {
		return false
	}
	as := append([]sim.Choice(nil), a...)
	bs := append([]sim.Choice(nil), b...)
	less := func(s []sim.Choice) func(i, j int) bool {
		return func(i, j int) bool {
			if s[i].Proc != s[j].Proc {
				return s[i].Proc < s[j].Proc
			}
			return s[i].Action < s[j].Action
		}
	}
	sort.Slice(as, less(as))
	sort.Slice(bs, less(bs))
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}
