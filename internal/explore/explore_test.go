package explore

import (
	"bytes"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"snappif/internal/core"
	"snappif/internal/graph"
	"snappif/internal/hunt"
)

func mustGraph(t *testing.T, build func(int) (*graph.Graph, error), n int) *graph.Graph {
	t.Helper()
	g, err := build(n)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func mustInits(t *testing.T, mode string, g *graph.Graph) [][]core.State {
	t.Helper()
	inits, err := Inits(mode, g, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	return inits
}

func run(t *testing.T, g *graph.Graph, opts Options, mode string) (*Explorer, *Result) {
	t.Helper()
	e, err := New(g, 0, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(mustInits(t, mode, g))
	if err != nil {
		t.Fatal(err)
	}
	return e, res
}

// TestCleanAndFaultStartsCertified is the headline certification: on the
// three acceptance topologies, every central-daemon schedule from the clean
// start and from every fault-injector corruption reaches closure with zero
// [PIF1]/[PIF2]/Section-4 violations.
func TestCleanAndFaultStartsCertified(t *testing.T) {
	for _, tc := range []struct {
		g    *graph.Graph
		mode string
	}{
		{mustGraph(t, graph.Line, 3), "clean"},
		{mustGraph(t, graph.Ring, 3), "clean"},
		{mustGraph(t, graph.Star, 4), "clean"},
		{mustGraph(t, graph.Line, 3), "faults:2"},
		{mustGraph(t, graph.Ring, 3), "faults:2"},
		{mustGraph(t, graph.Star, 4), "faults:2"},
	} {
		t.Run(tc.g.Name()+"/"+tc.mode, func(t *testing.T) {
			_, res := run(t, tc.g, Options{POR: true}, tc.mode)
			if res.Verdict != "certified" || !res.Complete {
				t.Fatalf("verdict %q (complete=%v, violation %q), want certified",
					res.Verdict, res.Complete, res.Violation)
			}
			if res.States == 0 || res.Transitions == 0 {
				t.Fatalf("empty exploration: %+v", res)
			}
		})
	}
}

// TestDeterministicAcrossRunsAndWorkers: state counts, transition counts,
// and the XOR fingerprint are byte-stable run to run and independent of the
// worker count.
func TestDeterministicAcrossRunsAndWorkers(t *testing.T) {
	g := mustGraph(t, graph.Line, 3)
	var base *Result
	var baseVisited []string
	for _, workers := range []int{1, 1, 3, 7} {
		e, res := run(t, g, Options{POR: true, Workers: workers}, "faults:2")
		if base == nil {
			base, baseVisited = res, e.Visited()
			continue
		}
		if res.States != base.States || res.Transitions != base.Transitions ||
			res.Slept != base.Slept || res.Fingerprint != base.Fingerprint {
			t.Fatalf("workers=%d diverged: %+v vs %+v", workers, res, base)
		}
		if !reflect.DeepEqual(e.Visited(), baseVisited) {
			t.Fatalf("workers=%d visited a different state set", workers)
		}
	}
}

// TestViolatingRunDeterministicAcrossWorkers pins a violating exploration
// and shows that it, too, is independent of the worker count. With the
// level-overflow plant, grid:2x3 explored from faults:1 with POR and
// symmetry first breaks the domains invariant in its third layer. That
// layer interns 84 states from ID 78 on before they are checked; the
// checks fail at ID 79, so the explorer rolls back the other 82 states
// together with their index entries and transitions. The pinned values are
// those of the explorer that checked every state serially as it interned
// it.
func TestViolatingRunDeterministicAcrossWorkers(t *testing.T) {
	g, err := graph.Grid(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Plant: "level-overflow", POR: true, Symmetry: true}
	twoLayers := opts
	twoLayers.Depth = 2
	_, before := run(t, g, twoLayers, "faults:1")
	if before.Verdict != "bounded" || before.States != 78 {
		t.Fatalf("two layers: verdict %q, %d states; want bounded, 78", before.Verdict, before.States)
	}
	var baseScenario []byte
	for _, workers := range []int{1, 2, 3, 7} {
		opts.Workers = workers
		e, res := run(t, g, opts, "faults:1")
		if res.States != 80 || res.Transitions != 91 || res.Slept != 52 ||
			res.Fingerprint != "6056e47d86ddf13a" || res.MaxDepth != 3 ||
			res.Violation != "invariant:domains: check: p2 has L=6 outside [1,5]" {
			t.Fatalf("workers=%d: %+v", workers, res)
		}
		sc, err := e.Scenario("grid-level-overflow")
		if err != nil {
			t.Fatal(err)
		}
		data, err := sc.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if baseScenario == nil {
			baseScenario = data
			t.Logf("violating layer 3 starts at state %d; the run keeps %d of its states", before.States, res.States-before.States)
		} else if !bytes.Equal(data, baseScenario) {
			t.Fatalf("workers=%d exported a different scenario", workers)
		}
	}
}

// TestExploredEnabledSetsMatchProbe is the oracle for the sim engine's
// seeded restarts and for the store. Every explored transition restarts the
// runner from the predecessor's stored enabled set instead of evaluating its
// guards, so a stale set would carry along a path and silently prune
// branches. For every interned node, the stored enabled set must equal a
// fresh Probe of its decoded vector, re-encoding that vector must give back
// the node's record, and the stored canonical key must equal the hasher's
// key of it. Four instances run: the benchmark's certify safety question
// (grid:2x3 from faults:2, central daemon, POR, symmetry, two workers,
// where the group is trivial), the planted level-overflow run of
// TestViolatingRunDeterministicAcrossWorkers, whose out-of-domain levels
// reach guards no clean run does, and two with a non-trivial group, where
// the record of a node that is not its orbit's minimum differs from its
// canonical key: star:4 from faults:3 and ring:3 from faults:2 under the
// distributed daemon.
func TestExploredEnabledSetsMatchProbe(t *testing.T) {
	grid, err := graph.Grid(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name         string
		g            *graph.Graph
		opts         Options
		init         string
		states       int
		nonCanonical int
	}{
		{"certify", grid, Options{POR: true, Symmetry: true, Workers: 2}, "faults:2", 109560, 0},
		{"level-overflow", grid, Options{Plant: "level-overflow", POR: true, Symmetry: true, Workers: 2}, "faults:1", 80, 0},
		{"star-symmetry", mustGraph(t, graph.Star, 4), Options{POR: true, Symmetry: true, Workers: 2}, "faults:3", 533, 396},
		{"ring-distributed", mustGraph(t, graph.Ring, 3), Options{Power: PowerDistributed, Symmetry: true, Workers: 2}, "faults:2", 144, 47},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, res := run(t, tc.g, tc.opts, tc.init)
			eng, err := newEngine("sim", tc.g, 0, tc.opts.Plant, nil)
			if err != nil {
				t.Fatal(err)
			}
			h := hasher{autos: e.autos}
			states := make([]core.State, tc.g.N())
			nonCanonical := 0
			for id := int32(0); id < int32(e.store.len()); id++ {
				mon := e.store.decode(id, states)
				enabled := e.store.enabled(id, nil)
				probed, err := eng.Probe(states)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(probed, enabled) {
					t.Fatalf("state %d: stored enabled set %v, a fresh probe gives %v", id, enabled, probed)
				}
				rec, _, _, err := h.encode(states, mon)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(rec, e.store.record(id)) {
					t.Fatalf("state %d: re-encoding the decoded vector gives %v, the record is %v", id, rec, e.store.record(id))
				}
				if key := h.key(states, mon); string(e.store.key(id)) != key {
					t.Fatalf("state %d: stored key %v, the hasher's key of the decoded vector is %v", id, e.store.key(id), []byte(key))
				}
				if !bytes.Equal(e.store.record(id), e.store.key(id)) {
					nonCanonical++
				}
			}
			if res.States != tc.states || nonCanonical != tc.nonCanonical {
				t.Fatalf("%d states, %d of them non-canonical; want %d, %d", res.States, nonCanonical, tc.states, tc.nonCanonical)
			}
		})
	}
}

// TestExplorerRetainedBytes is the store's memory gate: after Run on the
// certify safety instance (grid:2x3 from faults:2, POR, symmetry, two
// workers), the explorer retains at most 200 bytes of heap per interned
// state — its record, enabled set, index slots and per-node columns.
func TestExplorerRetainedBytes(t *testing.T) {
	g, err := graph.Grid(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	inits := mustInits(t, "faults:2", g)
	heap := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	before := heap()
	e, err := New(g, 0, Options{POR: true, Symmetry: true, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(inits)
	if err != nil {
		t.Fatal(err)
	}
	after := heap()
	runtime.KeepAlive(e)
	perState := float64(after-before) / float64(res.States)
	t.Logf("%d states, %.1f MB retained, %.1f B per state", res.States, float64(after-before)/(1<<20), perState)
	if res.States != 109560 {
		t.Fatalf("%d states, want 109560", res.States)
	}
	if perState > 200 {
		t.Fatalf("the explorer retains %.1f B per interned state, want ≤ 200", perState)
	}
}

// TestSimAndFlatEnginesAgree: the boxed and the struct-of-arrays engines
// explore identical state spaces with identical counts.
func TestSimAndFlatEnginesAgree(t *testing.T) {
	for _, build := range []func(int) (*graph.Graph, error){graph.Line, graph.Ring, graph.Star} {
		g := mustGraph(t, build, 4)
		t.Run(g.Name(), func(t *testing.T) {
			eSim, resSim := run(t, g, Options{Engine: "sim"}, "faults:1")
			eFlat, resFlat := run(t, g, Options{Engine: "flat"}, "faults:1")
			if resSim.States != resFlat.States || resSim.Transitions != resFlat.Transitions ||
				resSim.Fingerprint != resFlat.Fingerprint || resSim.Verdict != resFlat.Verdict {
				t.Fatalf("engines diverge:\nsim  %+v\nflat %+v", resSim, resFlat)
			}
			if !reflect.DeepEqual(eSim.Visited(), eFlat.Visited()) {
				t.Fatal("engines visited different state sets")
			}
		})
	}
}

// TestPlantedLevelOverflowFoundAndReplays: the PR 4 planted bug is found by
// exhaustive exploration from the clean start, and the exported scenario
// replays bit for bit under the hunt replay machinery, reproducing the same
// domains violation.
func TestPlantedLevelOverflowFoundAndReplays(t *testing.T) {
	g := mustGraph(t, graph.Line, 3)
	e, res := run(t, g, Options{Plant: "level-overflow", POR: true}, "clean")
	if res.Verdict != "violation" {
		t.Fatalf("verdict %q, want violation", res.Verdict)
	}
	if !strings.Contains(res.Violation, "domains") {
		t.Fatalf("violation %q, want a domains violation", res.Violation)
	}
	sc, err := e.Scenario("explore-level-overflow")
	if err != nil {
		t.Fatal(err)
	}
	data, err := sc.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	sc2, err := hunt.Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sc2.Run(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) == 0 {
		t.Fatal("replay reproduced no violation")
	}
	if rep.Violations[0].Check != "domains" {
		t.Fatalf("replay violated %q, want domains", rep.Violations[0].Check)
	}
	// Bit-for-bit: the replay executed exactly the exported schedule.
	if got := hunt.ToSchedule(rep.Executed); !reflect.DeepEqual(got, sc.Schedule) {
		t.Fatalf("replay executed %v, exported %v", got, sc.Schedule)
	}
}

// TestDepthBoundAndFrontierSeeds: a depth-limited run reports "bounded" and
// exports its horizon as runnable pifhunt seed scenarios.
func TestDepthBoundAndFrontierSeeds(t *testing.T) {
	g := mustGraph(t, graph.Line, 3)
	e, res := run(t, g, Options{Depth: 1}, "faults:1")
	if res.Verdict != "bounded" || res.Complete {
		t.Fatalf("verdict %q complete=%v, want bounded", res.Verdict, res.Complete)
	}
	if res.MaxDepth != 1 {
		t.Fatalf("max depth %d, want 1", res.MaxDepth)
	}
	seeds, err := e.FrontierSeeds("horizon", "central-random", 30)
	if err != nil {
		t.Fatal(err)
	}
	if len(seeds) == 0 {
		t.Fatal("no frontier seeds from a bounded run")
	}
	for _, sc := range seeds[:1] {
		rep, err := sc.Run(nil, nil)
		if err != nil {
			t.Fatalf("seed %s does not run: %v", sc.Name, err)
		}
		if len(rep.Violations) != 0 {
			t.Fatalf("seed %s violates: %v", sc.Name, rep.Violations)
		}
	}
}

// TestNonCentralPowers: the synchronous daemon's single maximal schedule
// and the distributed daemon's full subset tree both certify on the
// triangle.
func TestNonCentralPowers(t *testing.T) {
	g := mustGraph(t, graph.Ring, 3)
	for _, power := range []string{PowerSynchronous, PowerDistributed} {
		t.Run(power, func(t *testing.T) {
			_, res := run(t, g, Options{Power: power}, "faults:1")
			if res.Verdict != "certified" {
				t.Fatalf("verdict %q (violation %q), want certified", res.Verdict, res.Violation)
			}
		})
	}
}

// TestDistributedSupersetOfCentral: every central-daemon state is also
// reached under the distributed daemon (singleton subsets are subsets too).
func TestDistributedSupersetOfCentral(t *testing.T) {
	g := mustGraph(t, graph.Ring, 3)
	eC, _ := run(t, g, Options{Power: PowerCentral}, "clean")
	eD, _ := run(t, g, Options{Power: PowerDistributed}, "clean")
	dist := make(map[string]bool)
	for _, k := range eD.Visited() {
		dist[k] = true
	}
	for _, k := range eC.Visited() {
		if !dist[k] {
			t.Fatal("central reaches a state the distributed daemon does not")
		}
	}
}

// TestMaxStatesAborts: blowing the state budget is an error, not a silent
// truncation.
func TestMaxStatesAborts(t *testing.T) {
	g := mustGraph(t, graph.Line, 3)
	e, err := New(g, 0, Options{MaxStates: 10})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(mustInits(t, "faults:2", g)); err == nil || !strings.Contains(err.Error(), "state budget") {
		t.Fatalf("err = %v, want state budget exceeded", err)
	}
}

// TestOptionAndUsageErrors covers the constructor and single-use guards
// and the start vectors Run refuses.
func TestOptionAndUsageErrors(t *testing.T) {
	g := mustGraph(t, graph.Line, 3)
	if _, err := New(g, 0, Options{Power: "chaotic"}); err == nil {
		t.Fatal("unknown power accepted")
	}
	if _, err := New(g, 0, Options{Engine: "quantum"}); err == nil {
		t.Fatal("unknown engine accepted")
	}
	if _, err := New(g, 0, Options{Engine: "flat", Plant: "level-overflow"}); err == nil {
		t.Fatal("flat engine accepted a plant")
	}
	if _, err := New(g, 0, Options{Plant: "no-such-bug"}); err == nil {
		t.Fatal("unknown plant accepted")
	}
	big := mustGraph(t, graph.Line, maxN+1)
	if _, err := New(big, 0, Options{}); err == nil {
		t.Fatal("oversized network accepted")
	}

	e, err := New(g, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Scenario("x"); err == nil {
		t.Fatal("Scenario before Run succeeded")
	}
	if _, err := e.Run(nil); err == nil {
		t.Fatal("Run with no inits succeeded")
	}
	if _, err := e.Run(mustInits(t, "clean", g)); err == nil {
		t.Fatal("second Run on a single-use explorer succeeded")
	}
	e2, _ := New(g, 0, Options{})
	if _, err := e2.Run([][]core.State{make([]core.State, 99)}); err == nil {
		t.Fatal("mis-sized init vector accepted")
	}
	// A level the record cannot hold: truncated, it would be level 5.
	overflow := mustInits(t, "clean", g)[0]
	overflow[1].L = 65541
	e4, _ := New(g, 0, Options{})
	if res, err := e4.Run([][]core.State{overflow}); err == nil || !strings.Contains(err.Error(), "p1 has level L=65541") {
		t.Fatalf("Run = %+v, %v; want an error naming p1's level", res, err)
	}
	e3, _ := New(g, 0, Options{})
	if _, err := e3.Run(mustInits(t, "clean", g)); err != nil {
		t.Fatal(err)
	}
	if _, err := e3.Scenario("x"); err == nil {
		t.Fatal("Scenario without a violation succeeded")
	}
}

// TestInitModes covers the seed generators.
func TestInitModes(t *testing.T) {
	g := mustGraph(t, graph.Line, 3)
	clean := mustInits(t, "clean", g)
	if len(clean) != 1 {
		t.Fatalf("clean mode produced %d vectors", len(clean))
	}
	faults := mustInits(t, "faults:2", g)
	if len(faults) < 10 {
		t.Fatalf("faults:2 produced only %d vectors", len(faults))
	}
	domain := mustInits(t, "domain", g)
	// 3 phases × parents × levels × counts × fok per processor:
	// ends 3·1·2·3·2 = 36, middle 3·2·2·3·2 = 72, root 3·1·1·3·2 = 18.
	if want := 36 * 72 * 18; len(domain) != want {
		t.Fatalf("domain mode produced %d vectors, want %d", len(domain), want)
	}
	for _, mode := range []string{"faults:0", "faults:x", "everything"} {
		if _, err := Inits(mode, g, 0, nil); err == nil {
			t.Fatalf("mode %q accepted", mode)
		}
	}
	bigGrid, err := graph.Grid(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Inits("domain", bigGrid, 0, nil); err == nil {
		t.Fatal("domain mode accepted an instance with an astronomical product")
	}
}
