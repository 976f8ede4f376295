package explore

import (
	"sort"
	"testing"

	"snappif/internal/core"
	"snappif/internal/graph"
	"snappif/internal/mc"
	"snappif/internal/sim"
)

// The abstraction-soundness differential: internal/mc's SnapModel explores
// a transition relation it derives itself (sim.EnabledChoices on a scratch
// configuration plus its own per-choice apply), while explore drives the
// real engine's cached runner. These tests pin the two relations to each
// other on the 3-processor line and triangle, in both directions.

// TestMCDifferentialCounts: seeding internal/mc's checker and the explorer
// with the byte-identical initial vectors must yield the same state and
// transition counts over the full closure — the two systems agree on the
// quotient (state × wave-monitor) graph they explore.
func TestMCDifferentialCounts(t *testing.T) {
	for _, tc := range []struct {
		build func(int) (*graph.Graph, error)
		mode  string
	}{
		{graph.Line, "faults:3"},
		{graph.Ring, "faults:3"},
		{graph.Line, "domain"},
	} {
		g := mustGraph(t, tc.build, 3)
		t.Run(g.Name()+"/"+tc.mode, func(t *testing.T) {
			inits := mustInits(t, tc.mode, g)
			pr := core.MustNew(g, 0)
			var configs []*sim.Configuration
			for _, v := range inits {
				cfg := sim.NewConfiguration(g, pr)
				for p, s := range v {
					core.Set(cfg, p, s)
				}
				configs = append(configs, cfg)
			}
			m, err := mc.NewSnapModel(g, 0)
			if err != nil {
				t.Fatal(err)
			}
			c := mc.New(m, mc.CentralPower)
			c.SetLimit(2_000_000)
			mcRes, err := c.RunFrom(configs)
			if err != nil {
				t.Fatal(err)
			}
			if mcRes.SafetyViolation != nil || mcRes.Deadlock != nil {
				t.Fatalf("mc found a violation: %v %v", mcRes.SafetyViolation, mcRes.Deadlock)
			}

			_, exRes := run(t, g, Options{}, tc.mode)
			if exRes.Verdict != "certified" {
				t.Fatalf("explore verdict %q (%s)", exRes.Verdict, exRes.Violation)
			}
			if exRes.States != mcRes.States {
				t.Fatalf("state counts diverge: explore %d, mc %d", exRes.States, mcRes.States)
			}
			if exRes.Transitions != int64(mcRes.Transitions) {
				t.Fatalf("transition counts diverge: explore %d, mc %d", exRes.Transitions, mcRes.Transitions)
			}
			t.Logf("%s/%s: %d states, %d transitions agree", g.Name(), tc.mode, exRes.States, exRes.Transitions)
		})
	}
}

// TestMCDifferentialPerTransition walks every state the explorer interned
// and checks, per state, both directions of the correspondence:
//
//   - every choice the abstract relation enables (sim.EnabledChoices on a
//     scratch configuration — internal/mc's source of transitions) is
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
			h := &hasher{}
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

					engSucc, _, err := eng.Step(states, enabled, []sim.Choice{ch})
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
