package service

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"snappif/internal/event"
	"snappif/internal/graph"
)

// engines are the lane engines every table-driven test covers: the two
// engines New accepts and the test-only reference lane (see refEngine).
var engines = []string{"sim", refEngine, "event"}

// expectResp computes kind k's expected root response on a clean graph: the
// fold over every processor's deterministic value, starting from the root's.
func expectResp(g *graph.Graph, root int, k Kind) int64 {
	acc := valOf(root)
	for p := 0; p < g.N(); p++ {
		if p == root {
			continue
		}
		acc = k.fold(acc, valOf(p))
	}
	return acc
}

// TestServiceSingleLane drives one clean lane with one request of every kind
// on every engine and checks responses against the closed-form folds.
func TestServiceSingleLane(t *testing.T) {
	g, err := graph.Parse("line:8")
	if err != nil {
		t.Fatal(err)
	}
	for _, eng := range engines {
		t.Run(eng, func(t *testing.T) {
			var arrivals []Arrival
			for i, k := range Kinds() {
				arrivals = append(arrivals, Arrival{T: int64(1 + i), Lane: 0, Kind: k})
			}
			rep := mustServe(t, Options{Graph: g, Engine: eng}, arrivals, false)
			if len(rep.Waves) != numKindsInt() {
				t.Fatalf("got %d waves, want %d", len(rep.Waves), numKindsInt())
			}
			if rep.Residue != 0 || rep.Aborts != 0 {
				t.Fatalf("clean run with residue=%d aborts=%d", rep.Residue, rep.Aborts)
			}
			for i, w := range rep.Waves {
				wantKind := Kind(i)
				if w.Kind != wantKind.String() {
					t.Fatalf("wave %d kind %s, want %s (FIFO order)", i, w.Kind, wantKind)
				}
				if want := expectResp(g, 0, wantKind); w.Resp != want {
					t.Errorf("wave %d (%s) resp %d, want %d", i, w.Kind, w.Resp, want)
				}
				if wantMsg := uint64(1)<<32 + uint64(i); w.Msg != wantMsg {
					t.Errorf("wave %d msg %d, want %d", i, w.Msg, wantMsg)
				}
				if w.LatencyTicks() <= 0 {
					t.Errorf("wave %d latency %d, want > 0", i, w.LatencyTicks())
				}
				if w.StartT < w.EnqueueT || w.DoneT <= w.StartT {
					t.Errorf("wave %d timeline enq=%d start=%d done=%d out of order",
						i, w.EnqueueT, w.StartT, w.DoneT)
				}
			}
		})
	}
}

func numKindsInt() int { return int(numKinds) }

// TestServiceMultiLane serves two initiators concurrently and checks lane
// attribution via the message bases.
func TestServiceMultiLane(t *testing.T) {
	g, err := graph.Parse("ring:10")
	if err != nil {
		t.Fatal(err)
	}
	for _, eng := range engines {
		t.Run(eng, func(t *testing.T) {
			arrivals := []Arrival{
				{T: 1, Lane: 0, Kind: "snapshot"},
				{T: 1, Lane: 1, Kind: "infimum"},
				{T: 2, Lane: 0, Kind: "barrier"},
				{T: 2, Lane: 1, Kind: "termination"},
			}
			rep := mustServe(t, Options{Graph: g, Engine: eng, Initiators: []int{0, 5}}, arrivals, false)
			if len(rep.Waves) != 4 {
				t.Fatalf("got %d waves, want 4", len(rep.Waves))
			}
			for l := 0; l < 2; l++ {
				lw := rep.PerLane(l)
				if len(lw) != 2 {
					t.Fatalf("lane %d delivered %d waves, want 2", l, len(lw))
				}
				base := (uint64(l) + 1) << 32
				for j, w := range lw {
					if w.Msg != base+uint64(j) {
						t.Errorf("lane %d wave %d msg %d, want %d", l, j, w.Msg, base+uint64(j))
					}
				}
			}
			root1 := 5
			for _, w := range rep.PerLane(1) {
				k, _ := ParseKind(w.Kind)
				if want := expectResp(g, root1, k); w.Resp != want {
					t.Errorf("lane 1 %s resp %d, want %d", w.Kind, w.Resp, want)
				}
			}
		})
	}
}

// TestServiceIdleGapFastForward checks the virtual clock skips idle gaps
// rather than ticking through them.
func TestServiceIdleGapFastForward(t *testing.T) {
	g, err := graph.Parse("line:6")
	if err != nil {
		t.Fatal(err)
	}
	for _, eng := range engines {
		t.Run(eng, func(t *testing.T) {
			arrivals := []Arrival{
				{T: 1, Lane: 0, Kind: "snapshot"},
				{T: 100000, Lane: 0, Kind: "snapshot"},
			}
			rep := mustServe(t, Options{Graph: g, Engine: eng, MaxTicks: 101000}, arrivals, false)
			if len(rep.Waves) != 2 {
				t.Fatalf("got %d waves, want 2", len(rep.Waves))
			}
			if rep.Waves[1].StartT < 100000 {
				t.Errorf("second wave started at %d, before its arrival", rep.Waves[1].StartT)
			}
			if rep.Ticks > 100200 {
				t.Errorf("makespan %d: the idle gap was not fast-forwarded", rep.Ticks)
			}
		})
	}
}

// TestServiceValidation exercises New and serve input checking.
func TestServiceValidation(t *testing.T) {
	g, _ := graph.Parse("line:4")
	cases := []struct {
		name string
		opts Options
		want string // a substring the error must carry ("" = any error)
	}{
		{"nil graph", Options{Engine: "sim"}, ""},
		{"bad engine", Options{Graph: g, Engine: "warp"}, "want sim or event"},
		{"retired engine flat", Options{Graph: g, Engine: "flat"}, "want sim or event"},
		{"retired engine generic", Options{Graph: g, Engine: "generic"}, "want sim or event"},
		{"latency on sim", Options{Graph: g, Engine: "sim", Latency: event.Constant(3)}, `engine "sim"`},
		{"initiator range", Options{Graph: g, Engine: "sim", Initiators: []int{4}}, ""},
		{"dup initiator", Options{Graph: g, Engine: "sim", Initiators: []int{1, 1}}, ""},
		{"bad fault", Options{Graph: g, Engine: "sim", Faults: []string{"nope"}}, ""},
		{"too many faults", Options{Graph: g, Engine: "sim", Faults: []string{"", ""}}, ""},
	}
	for _, tc := range cases {
		_, err := New(tc.opts)
		if err == nil {
			t.Errorf("%s: New accepted invalid options", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
		// A scenario New refuses would never replay, so it is never dumped.
		if _, err := DumpScenario(tc.name, tc.opts, nil, false); err == nil {
			t.Errorf("%s: DumpScenario accepted invalid options", tc.name)
		}
	}

	srv, err := New(Options{Graph: g, Engine: "sim"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Run([]Arrival{{T: 2, Lane: 0, Kind: "snapshot"}, {T: 1, Lane: 0, Kind: "snapshot"}}); err == nil {
		t.Error("unsorted arrivals accepted")
	}
	srv, _ = New(Options{Graph: g, Engine: "sim"})
	if _, err := srv.Run([]Arrival{{T: 1, Lane: 3, Kind: "snapshot"}}); err == nil {
		t.Error("out-of-range lane accepted")
	}
	srv, _ = New(Options{Graph: g, Engine: "sim"})
	if _, err := srv.Run([]Arrival{{T: 1, Lane: 0, Kind: "quux"}}); err == nil {
		t.Error("unknown kind accepted")
	}
	srv, _ = New(Options{Graph: g, Engine: "sim"})
	if _, err := srv.Run(nil); err != nil {
		t.Errorf("empty stream: %v", err)
	}
	if _, err := srv.Run(nil); err == nil {
		t.Error("Server reuse accepted")
	}
}

// TestParseKindRoundTrip pins the kind names.
func TestParseKindRoundTrip(t *testing.T) {
	for i, name := range Kinds() {
		k, err := ParseKind(name)
		if err != nil || k != Kind(i) {
			t.Errorf("ParseKind(%q) = %v, %v", name, k, err)
		}
	}
	if _, err := ParseKind("bogus"); err == nil {
		t.Error("ParseKind accepted bogus")
	}
	if got := Kind(200).String(); got != "kind(200)" {
		t.Errorf("out-of-range String = %q", got)
	}
}

// TestWorkloadGenerate checks determinism, ordering, rate, and mix handling.
func TestWorkloadGenerate(t *testing.T) {
	w := Workload{Process: "poisson", Rate: 50, Requests: 200, Lanes: 3, Seed: 42}
	a1, err := w.Generate()
	if err != nil {
		t.Fatal(err)
	}
	a2, _ := w.Generate()
	if fmt.Sprint(a1) != fmt.Sprint(a2) {
		t.Fatal("same workload generated different streams")
	}
	if len(a1) != 200 {
		t.Fatalf("generated %d arrivals, want 200", len(a1))
	}
	var prev int64 = 1
	for i, a := range a1 {
		if a.T < prev {
			t.Fatalf("arrival %d unsorted", i)
		}
		prev = a.T
		if a.Lane < 0 || a.Lane >= 3 {
			t.Fatalf("arrival %d lane %d", i, a.Lane)
		}
		if _, err := ParseKind(a.Kind); err != nil {
			t.Fatalf("arrival %d: %v", i, err)
		}
	}

	// Constant process: gaps are exactly 1000/Rate ticks.
	c := Workload{Process: "constant", Rate: 10, Requests: 5, Seed: 1}
	ca, err := c.Generate()
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range ca {
		if want := int64(100 * (i + 1)); a.T != want {
			t.Errorf("constant arrival %d at t=%d, want %d", i, a.T, want)
		}
	}

	// Mix: zero-weight kinds never appear; single-weight mixes are pure.
	m := Workload{Rate: 100, Requests: 300, Seed: 7, Mix: map[string]float64{"barrier": 1}}
	ma, err := m.Generate()
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range ma {
		if a.Kind != "barrier" {
			t.Fatalf("mix {barrier:1} produced %q", a.Kind)
		}
	}

	for _, bad := range []Workload{
		{Rate: 0, Requests: 1},
		{Rate: 1, Requests: 0},
		{Rate: 1, Requests: 1, Process: "uniform"},
		{Rate: 1, Requests: 1, Mix: map[string]float64{"nope": 1}},
		{Rate: 1, Requests: 1, Mix: map[string]float64{"snapshot": -1}},
		{Rate: 1, Requests: 1, Mix: map[string]float64{"snapshot": 0}},
	} {
		if _, err := bad.Generate(); err == nil {
			t.Errorf("workload %+v accepted", bad)
		}
	}
}

// TestServiceDeterminism: same (topology, engine, seed, stream) → byte-equal
// canonical reports across repetitions.
func TestServiceDeterminism(t *testing.T) {
	g, err := graph.Parse("grid:4x4")
	if err != nil {
		t.Fatal(err)
	}
	w := Workload{Rate: 40, Requests: 30, Lanes: 2, Seed: 11}
	arrivals, err := w.Generate()
	if err != nil {
		t.Fatal(err)
	}
	for _, eng := range engines {
		t.Run(eng, func(t *testing.T) {
			run := func() []byte {
				rep := mustServe(t, Options{
					Graph: g, Engine: eng, Initiators: []int{0, 15}, Seed: 5,
				}, arrivals, false)
				return rep.Canonical()
			}
			if !bytes.Equal(run(), run()) {
				t.Fatal("two identical runs diverged")
			}
		})
	}
}

// TestEventLanesShareLayout: the event engine's lanes run one kernel per
// root, all on the slot layout New computed once for the network.
func TestEventLanesShareLayout(t *testing.T) {
	g, err := graph.Parse("grid:4x4")
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Options{Graph: g, Engine: "event", Initiators: []int{0, 5, 15}})
	if err != nil {
		t.Fatal(err)
	}
	first := &s.lanes[0].eng.(*eventLane).fc.Neighbors(0)[0]
	for l, ln := range s.lanes[1:] {
		if &ln.eng.(*eventLane).fc.Neighbors(0)[0] != first {
			t.Fatalf("lane %d holds a slot layout of its own", l+1)
		}
	}
}
