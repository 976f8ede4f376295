package explore

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"snappif/internal/check"
	"snappif/internal/core"
	"snappif/internal/graph"
	"snappif/internal/sim"
)

// TestLivenessCertifiesRoundBounds is the liveness half of the
// certification table: on ≥5-processor non-star topologies, every
// central-daemon schedule reaches the Theorem-4 target (one full PIF cycle
// from the clean start) and the Theorem-1 target (a normal configuration
// from corrupted starts) within the theorems' own round bounds. The
// product-state and worst-round counts are pinned — the certifier is
// deterministic, so any drift means the engines or the round accounting
// changed.
func TestLivenessCertifiesRoundBounds(t *testing.T) {
	for _, tc := range []struct {
		topo      string
		mk        func() (*graph.Graph, error)
		target    string
		init      string
		bound     int
		worst     int
		product   int
		wantTrans int64
	}{
		{"line:5", func() (*graph.Graph, error) { return graph.Line(5) }, TargetCycle, "clean", 25, 20, 279, 468},
		{"ring:5", func() (*graph.Graph, error) { return graph.Ring(5) }, TargetCycle, "clean", 25, 14, 767, 1347},
		{"line:5", func() (*graph.Graph, error) { return graph.Line(5) }, TargetNormal, "faults:2", 15, 10, 25529, 67831},
		{"ring:5", func() (*graph.Graph, error) { return graph.Ring(5) }, TargetNormal, "faults:2", 15, 8, 35007, 93752},
		{"grid:2x3", func() (*graph.Graph, error) { return graph.Grid(2, 3) }, TargetCycle, "clean", 30, 17, 3634, 7621},
	} {
		t.Run(tc.topo+"/"+tc.target, func(t *testing.T) {
			g, err := tc.mk()
			if err != nil {
				t.Fatal(err)
			}
			inits, err := Inits(tc.init, g, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			res, err := CertifyLiveness(g, 0, inits, LivenessOptions{Target: tc.target})
			if err != nil {
				t.Fatal(err)
			}
			if res.Verdict != "certified" || !res.Complete {
				t.Fatalf("verdict %q (%s), want certified", res.Verdict, res.Violation)
			}
			if res.Bound != tc.bound || res.WorstRounds != tc.worst {
				t.Errorf("bound/worst = %d/%d, want %d/%d", res.Bound, res.WorstRounds, tc.bound, tc.worst)
			}
			if res.ProductStates != tc.product || res.Transitions != tc.wantTrans {
				t.Errorf("product/transitions = %d/%d, want %d/%d",
					res.ProductStates, res.Transitions, tc.product, tc.wantTrans)
			}
		})
	}
}

// TestLivenessCacheSound checks the argument that lets CertifyLiveness step
// each (quotient state, choice) pair once: two vectors with one quotient
// key behave alike. For every quotient state the Theorem-1 search reaches
// from the faults:2 starts, decoded from the search's store, the stored
// enabled set — which the search's engine restarted from when it stepped
// the state — equals a fresh Probe and the stored target verdict the
// decoded vector's; a copy with other nonzero Msg stamps and arbitrary
// Val/Agg has the same enabled set and target verdicts; and under every
// enabled choice both step to successors with equal keys, enabled sets and
// target verdicts. On ring:5 the search steps the engine once per distinct
// (state key, choice) pair its product BFS reaches: 16,634 steps for
// 93,752 product transitions.
func TestLivenessCacheSound(t *testing.T) {
	for _, tc := range []struct {
		mk    func() (*graph.Graph, error)
		steps int64 // 0: not pinned
	}{
		{func() (*graph.Graph, error) { return graph.Ring(5) }, 16634},
		{func() (*graph.Graph, error) { return graph.Line(5) }, 0},
	} {
		g, err := tc.mk()
		if err != nil {
			t.Fatal(err)
		}
		t.Run(g.Name(), func(t *testing.T) {
			inits, err := Inits("faults:2", g, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			s, err := newLivenessSearch(g, 0, LivenessOptions{Target: TargetNormal})
			if err != nil {
				t.Fatal(err)
			}
			res, err := s.run(inits)
			if err != nil || res.Verdict != "certified" {
				t.Fatalf("certification: %+v, %v", res, err)
			}
			if tc.steps != 0 && s.steps != tc.steps {
				t.Errorf("engine steps = %d, want %d", s.steps, tc.steps)
			}
			if s.steps >= res.Transitions {
				t.Errorf("engine steps %d not below product transitions %d: the cache is unused", s.steps, res.Transitions)
			}
			pr := core.MustNew(g, 0)
			cfg := sim.NewConfiguration(g, pr)
			targets := func(states []core.State) [2]bool {
				loadStates(cfg, states)
				return [2]bool{check.IsNormalConfiguration(cfg, pr), check.IsSBN(cfg, pr)}
			}
			eng, err := newEngine("sim", g, 0, "", nil)
			if err != nil {
				t.Fatal(err)
			}
			h := hasher{lay: s.store.lay}
			rng := rand.New(rand.NewSource(1))
			stamped := 0
			for id := int32(0); id < int32(s.store.len()); id++ {
				v := make([]core.State, g.N())
				s.store.decode(id, v)
				stored := s.store.enabled(id, nil)
				w := append([]core.State(nil), v...)
				for p := range w {
					if w[p].Msg != 0 {
						w[p].Msg += 1 + uint64(rng.Intn(1000))
						stamped++
					}
					w[p].Val, w[p].Agg = rng.Int63(), rng.Int63()
				}
				enV, err := eng.Probe(v, nil)
				if err != nil {
					t.Fatal(err)
				}
				enW, err := eng.Probe(w, nil)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(enV, stored) {
					t.Fatalf("state %d: stored enabled set %v, a fresh probe gives %v", id, stored, enV)
				}
				if targets(v)[0] != s.target[id] {
					t.Fatalf("state %d: stored target verdict %v, the decoded vector's is %v", id, s.target[id], targets(v)[0])
				}
				if !reflect.DeepEqual(enV, enW) || targets(v) != targets(w) {
					t.Fatalf("state %d: the copy differs before any step", id)
				}
				for _, ch := range enV {
					sv, sw := make([]core.State, len(v)), make([]core.State, len(w))
					afterV, err := eng.Step(v, enV, []sim.Choice{ch}, sv, nil)
					if err != nil {
						t.Fatal(err)
					}
					afterW, err := eng.Step(w, enW, []sim.Choice{ch}, sw, nil)
					if err != nil {
						t.Fatal(err)
					}
					if h.key(sv, monState{}) != h.key(sw, monState{}) ||
						!reflect.DeepEqual(afterV, afterW) || targets(sv) != targets(sw) {
						t.Fatalf("state %d choice %v: successors of the copy differ", id, ch)
					}
				}
			}
			if stamped == 0 {
				t.Fatal("no reached state carries a message stamp")
			}
		})
	}
}

// TestLivenessEnginesAgree: the certifier is itself a differential — the
// sim and event engines must produce the identical certification
// (same product space, same transition count, same worst round), because
// each forced step is the same protocol step.
func TestLivenessEnginesAgree(t *testing.T) {
	g, err := graph.Line(5)
	if err != nil {
		t.Fatal(err)
	}
	inits, err := Inits("clean", g, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	var base *LivenessResult
	for _, engine := range []string{"sim", "event"} {
		res, err := CertifyLiveness(g, 0, inits, LivenessOptions{Target: TargetCycle, Engine: engine})
		if err != nil {
			t.Fatalf("%s: %v", engine, err)
		}
		if base == nil {
			base = res
			continue
		}
		want := *base
		want.Engine = res.Engine
		if !reflect.DeepEqual(*res, want) {
			t.Errorf("%s certification diverges from sim:\nsim  %+v\n%s %+v", engine, *base, engine, *res)
		}
	}
}

// TestLivenessTightBoundViolates: a bound below the measured worst case
// must flip the verdict to violation — the certifier really is checking the
// bound, not just exploring.
func TestLivenessTightBoundViolates(t *testing.T) {
	g, err := graph.Line(5)
	if err != nil {
		t.Fatal(err)
	}
	inits, err := Inits("clean", g, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := CertifyLiveness(g, 0, inits, LivenessOptions{Target: TargetCycle, Bound: 19})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != "violation" || !strings.Contains(res.Violation, "19 rounds completed") {
		t.Fatalf("bound 19 (< worst 20) not flagged: %+v", res)
	}
	// One round of slack over the worst case certifies again.
	res, err = CertifyLiveness(g, 0, inits, LivenessOptions{Target: TargetCycle, Bound: 20})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != "certified" || res.WorstRounds != 20 {
		t.Fatalf("bound 20 should be exactly tight: %+v", res)
	}
}

// TestLivenessNormalInitIsZeroRounds: a TargetNormal certification whose
// initial states are already normal succeeds immediately with zero worst
// rounds and an empty product space.
func TestLivenessNormalInitIsZeroRounds(t *testing.T) {
	g, err := graph.Line(5)
	if err != nil {
		t.Fatal(err)
	}
	inits, err := Inits("clean", g, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := CertifyLiveness(g, 0, inits, LivenessOptions{Target: TargetNormal})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != "certified" || res.WorstRounds != 0 || res.ProductStates != 0 {
		t.Fatalf("already-normal init not certified in 0 rounds: %+v", res)
	}
}

// TestLivenessOptionValidation: bad targets, oversized networks, empty
// inits, unknown engines and start vectors the store cannot hold are
// errors, not verdicts.
func TestLivenessOptionValidation(t *testing.T) {
	g, err := graph.Line(5)
	if err != nil {
		t.Fatal(err)
	}
	inits, err := Inits("clean", g, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CertifyLiveness(g, 0, inits, LivenessOptions{Target: "bogus"}); err == nil {
		t.Error("bogus target accepted")
	}
	if _, err := CertifyLiveness(g, 0, nil, LivenessOptions{Target: TargetCycle}); err == nil {
		t.Error("empty inits accepted")
	}
	if _, err := CertifyLiveness(g, 0, inits, LivenessOptions{Target: TargetCycle, Engine: "bogus"}); err == nil {
		t.Error("bogus engine accepted")
	}
	big, err := graph.Line(maxN + 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CertifyLiveness(big, 0, inits, LivenessOptions{Target: TargetCycle}); err == nil {
		t.Error("oversized network accepted")
	}
	if _, err := CertifyLiveness(g, 0, inits, LivenessOptions{Target: TargetCycle, MaxStates: 3}); err == nil {
		t.Error("state budget not enforced")
	}
	// A level the record cannot hold: truncated, it would be level 5.
	line3, err := graph.Line(3)
	if err != nil {
		t.Fatal(err)
	}
	overflow, err := Inits("clean", line3, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	overflow[0][1].L = 65541
	if res, err := CertifyLiveness(line3, 0, overflow, LivenessOptions{Target: TargetNormal}); err == nil || !strings.Contains(err.Error(), "p1 has level L=65541") {
		t.Errorf("CertifyLiveness = %+v, %v; want an error naming p1's level", res, err)
	}
}
