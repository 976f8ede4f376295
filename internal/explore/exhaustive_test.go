package explore

import (
	"math/rand"
	"strings"
	"testing"

	"snappif/internal/core"
	"snappif/internal/fault"
	"snappif/internal/graph"
	"snappif/internal/multi"
	"snappif/internal/sim"
)

// checkCounts fails unless res certified with exactly the given counts of
// distinct starts, states and transitions (a negative count is not pinned).
func checkCounts(t *testing.T, res *Result, initial, states int, transitions int64) {
	t.Helper()
	t.Logf("initial=%d states=%d transitions=%d", res.InitialStates, res.States, res.Transitions)
	if res.Verdict != "certified" {
		t.Fatalf("verdict %q (%s), want certified", res.Verdict, res.Violation)
	}
	if (initial >= 0 && res.InitialStates != initial) || res.States != states || res.Transitions != transitions {
		t.Fatalf("initial=%d states=%d transitions=%d; want %d, %d, %d",
			res.InitialStates, res.States, res.Transitions, initial, states, transitions)
	}
}

// TestExhaustiveSnapLine3Central is the strongest single validation in the
// repository: over every one of the 46,656 initial configurations of the
// snap-stabilizing protocol on a 3-processor line (the full domain product,
// Msg normalized), under every central daemon schedule, the protocol never
// completes an undelivered wave, never deadlocks, keeps its invariants, and
// can always return to the clean configuration.
func TestExhaustiveSnapLine3Central(t *testing.T) {
	_, res := run(t, mustGraph(t, graph.Line, 3), Options{}, "domain")
	checkCounts(t, res, 46656, 47558, 82768)
}

func TestExhaustiveSnapLine3Distributed(t *testing.T) {
	if testing.Short() {
		t.Skip("distributed-daemon power set in -short mode")
	}
	_, res := run(t, mustGraph(t, graph.Line, 3), Options{Power: PowerDistributed}, "domain")
	checkCounts(t, res, 46656, 47558, 126296)
}

func TestExhaustiveSnapStar3RootedAtCenter(t *testing.T) {
	if testing.Short() {
		t.Skip("star-3 state space in -short mode")
	}
	// Root with two children (the line-3 tests root an endpoint).
	_, res := run(t, mustGraph(t, graph.Star, 3), Options{}, "domain")
	checkCounts(t, res, 23328, 23536, 40329)
}

// TestExhaustiveSnapTriangleCentral covers a cyclic topology: on the
// triangle every pair of processors is adjacent, so the chordless-path and
// minimum-level logic is exercised in a way no tree can.
func TestExhaustiveSnapTriangleCentral(t *testing.T) {
	if testing.Short() {
		t.Skip("triangle full-domain product in -short mode")
	}
	// Root: 3 phases × 3 counts × 2 Fok = 18; each non-root:
	// 3 × 2 parents × 2 levels × 3 counts × 2 = 72.
	_, res := run(t, mustGraph(t, graph.Ring, 3), Options{}, "domain")
	checkCounts(t, res, 18*72*72, 94000, 155937)
}

// TestExhaustiveSelfStabFindsCounterexample checks the baseline: from its
// full domain on a 4-processor line the explorer must synthesize, fully
// automatically, the corrupted configuration and schedule whose completed
// wave violates [PIF1]/[PIF2] — the paper's motivating separation, derived
// rather than hand-crafted.
func TestExhaustiveSelfStabFindsCounterexample(t *testing.T) {
	g := mustGraph(t, graph.Line, 4)
	inits, err := BaselineDomain(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(inits) != 8748 {
		t.Fatalf("baseline domain has %d vectors, want 3·18·18·9 = 8748", len(inits))
	}
	e, err := New(g, 0, Options{Protocol: ProtocolSelfStab})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(inits)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != "violation" || !strings.HasPrefix(res.Violation, "pif-delivery: PIF") {
		t.Fatalf("verdict %q (%s); the separation did not reproduce", res.Verdict, res.Violation)
	}
	trace, err := e.Trace()
	if err != nil || len(trace) == 0 {
		t.Fatalf("Trace = %v, %v; want the counterexample's states", trace, err)
	}
	t.Logf("synthesized counterexample after %d states (%s):\n%s", res.States, res.Violation, strings.Join(trace, "\n"))
}

// TestSelfStabSafeOnLine3 shows the separation needs topology: with only
// one processor beyond the root's neighborhood, the baseline's local
// feedback test happens to suffice on a 3-line, so the check certifies
// there: safety, no deadlock, and the clean configuration stays reachable.
func TestSelfStabSafeOnLine3(t *testing.T) {
	g := mustGraph(t, graph.Line, 3)
	inits, err := BaselineDomain(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(g, 0, Options{Protocol: ProtocolSelfStab})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(inits)
	if err != nil {
		t.Fatal(err)
	}
	checkCounts(t, res, 216, 250, 386)
}

// compositionSeeds builds doubly corrupted starts of the composition of
// roots on g: for seeds 0–2, instance 0 gets each fault injector's output
// (the clean control included) and instance 1 the injector three further
// on, each on its own seed, laid out as the explorer's vectors (instance
// i's state of processor p at index i·N+p).
func compositionSeeds(t *testing.T, g *graph.Graph, roots []int) [][]core.State {
	t.Helper()
	mp, err := multi.New(g, roots)
	if err != nil {
		t.Fatal(err)
	}
	insts := mp.Instances()
	injs := append(fault.All(), fault.Clean())
	var out [][]core.State
	for seed := int64(0); seed < 3; seed++ {
		for j, injA := range injs {
			cfg := sim.NewConfiguration(g, mp)
			for i, inj := range []fault.Injector{injA, injs[(j+3)%len(injs)]} {
				proj := multi.Project(cfg, i)
				inj.Apply(proj, insts[i], rand.New(rand.NewSource(seed+100*int64(i))))
				multi.Inject(cfg, i, proj)
			}
			v := make([]core.State, len(roots)*g.N())
			for p := range cfg.States {
				for i, s := range cfg.States[p].(multi.State).Per {
					v[i*g.N()+p] = s
				}
			}
			out = append(out, v)
		}
	}
	return out
}

// TestCompositionSystematically verifies the concurrent-initiator
// composition: from independently corrupted starts, over every central
// schedule, each initiator's waves satisfy the specification in their own
// window, the composition never deadlocks, and the all-clean configuration
// stays reachable.
func TestCompositionSystematically(t *testing.T) {
	g := mustGraph(t, graph.Line, 4)
	opts := Options{Initiators: []int{0, 3}}
	e, err := New(g, 0, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(compositionSeeds(t, g, opts.Initiators))
	if err != nil {
		t.Fatal(err)
	}
	checkCounts(t, res, -1, 170081, 610437)
}

// leakyComposition plants a coupling bug in the composition: every
// instance-1 action also clears instance 0's message register at the
// mover, so instance 0 can close a wave a processor no longer holds.
type leakyComposition struct {
	*multi.Protocol
}

// Apply implements sim.Protocol.
func (l leakyComposition) Apply(c *sim.Configuration, p, a int) sim.State {
	s := l.Protocol.Apply(c, p, a).(multi.State)
	if inst, _ := l.Decode(a); inst == 1 {
		s.Per[0].Msg = 0
	}
	return s
}

// TestCompositionPlantedCouplingViolates: the per-instance windows must
// catch one instance writing another's state.
func TestCompositionPlantedCouplingViolates(t *testing.T) {
	g := mustGraph(t, graph.Line, 4)
	opts := Options{Initiators: []int{0, 3}}
	_, res := runWith(t, g, opts, compositionSeeds(t, g, opts.Initiators), func() Engine {
		mp, err := multi.New(g, opts.Initiators)
		if err != nil {
			t.Fatal(err)
		}
		return compositionEngine(g, leakyComposition{mp}, 2)
	})
	if res.Verdict != "violation" || !strings.Contains(res.Violation, "instance 0, p") {
		t.Fatalf("verdict %q (%s), want instance 0's delivery violation", res.Verdict, res.Violation)
	}
	t.Logf("planted coupling caught after %d states: %s", res.States, res.Violation)
}

// stuckRootEngine plants a livelock: the root's C-action becomes a
// self-loop, so once the root has fed back it stays in F with that choice
// enabled forever. Nothing deadlocks and every reached state is one the
// real protocol reaches, so only the EF-clean check can fail.
type stuckRootEngine struct {
	Engine
}

// Step implements Engine.
func (s stuckRootEngine) Step(states []core.State, enabled, sel []sim.Choice, succ []core.State) ([]sim.Choice, error) {
	if len(sel) == 1 && sel[0] == (sim.Choice{Proc: 0, Action: core.ActionC}) {
		copy(succ, states)
		return append([]sim.Choice(nil), enabled...), nil
	}
	return s.Engine.Step(states, enabled, sel, succ)
}

// TestEFCleanPlantViolates: a closed run that enumerated every transition
// reports the planted livelock as an ef-clean violation. With POR on the
// run does not enumerate every transition, keeps no edges and certifies.
func TestEFCleanPlantViolates(t *testing.T) {
	g := mustGraph(t, graph.Line, 3)
	inits := mustInits(t, "clean", g)
	stuck := func() Engine {
		eng, err := newSimEngine(g, 0, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		return stuckRootEngine{eng}
	}
	for _, opts := range []Options{{}, {Power: PowerDistributed}} {
		e, res := runWith(t, g, opts, inits, stuck)
		if res.Verdict != "violation" || !strings.HasPrefix(res.Violation, "ef-clean:") {
			t.Fatalf("%s: verdict %q (%s), want an ef-clean violation", opts.Power, res.Verdict, res.Violation)
		}
		if trace, err := e.Trace(); err != nil || len(trace) == 0 {
			t.Fatalf("%s: Trace = %v, %v; want the path to the stuck state", opts.Power, trace, err)
		}
	}
	if _, res := runWith(t, g, Options{POR: true}, inits, stuck); res.Verdict != "certified" {
		t.Fatalf("with POR: verdict %q (%s), want certified", res.Verdict, res.Violation)
	}
}

// TestPrintedGuardsDeadlock is the regression test for the transcription
// repairs of DESIGN.md §2 (3 and 4): running the guards exactly as printed,
// the exhaustive check from the full line-3 domain must rediscover a
// reachable deadlock — the finding that forced the repairs in the first
// place. (With the repairs active, the same exploration certifies; see
// TestExhaustiveSnapLine3Central.)
func TestPrintedGuardsDeadlock(t *testing.T) {
	g := mustGraph(t, graph.Line, 3)
	copts := []core.Option{core.WithPrintedGuards()}
	inits, err := Inits("domain", g, 0, copts)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(g, 0, Options{CoreOptions: copts})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(inits)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != "violation" || !strings.HasPrefix(res.Violation, "deadlock:") {
		t.Fatalf("printed guards did not deadlock — the repairs would be unnecessary: %+v", res)
	}
	trace, err := e.Trace()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("rediscovered deadlock under printed guards:\n%s", strings.Join(trace, "\n"))
}

// TestSystematicFromInjectedFaults performs systematic concurrency testing
// on instances whose full domain product is out of reach: it seeds the
// explorer with every fault injector's output on three seeds and explores
// every central-daemon schedule from each — exactly the nondeterminism
// random testing samples.
func TestSystematicFromInjectedFaults(t *testing.T) {
	for _, tc := range []struct {
		build       func(int) (*graph.Graph, error)
		states      int
		transitions int64
	}{
		{graph.Ring, 9231, 22564},
		{graph.Line, 4120, 9770},
		{graph.Star, 2927, 7869},
	} {
		g := mustGraph(t, tc.build, 5)
		t.Run(g.Name(), func(t *testing.T) {
			_, res := run(t, g, Options{}, "faults:3")
			checkCounts(t, res, -1, tc.states, tc.transitions)
		})
	}
}

// TestSystematicDistributedSmall runs the same systematic check with the
// full distributed-daemon subset power on a small instance.
func TestSystematicDistributedSmall(t *testing.T) {
	_, res := run(t, mustGraph(t, graph.Ring, 4), Options{Power: PowerDistributed}, "faults:2")
	checkCounts(t, res, -1, 1574, 5380)
}

// TestStateLimitEnforced ensures runaway explorations fail loudly.
func TestStateLimitEnforced(t *testing.T) {
	g := mustGraph(t, graph.Line, 3)
	e, err := New(g, 0, Options{MaxStates: 100})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(mustInits(t, "domain", g)); err == nil {
		t.Fatal("limit not enforced")
	}
}

// TestModelOptionErrors: the baseline and compositions run on the sim
// engine only, without plants or symmetry; a composition also refuses POR,
// non-central daemons, a root other than its first initiator and a vector
// beyond the bound; neither exports hunt scenarios.
func TestModelOptionErrors(t *testing.T) {
	g := mustGraph(t, graph.Line, 3)
	self := Options{Protocol: ProtocolSelfStab}
	comp := Options{Initiators: []int{0, 2}}
	for _, tc := range []struct {
		name string
		root int
		opts Options
	}{
		{"unknown protocol", 0, Options{Protocol: "quantum"}},
		{"baseline symmetry", 0, Options{Protocol: ProtocolSelfStab, Symmetry: true}},
		{"baseline plant", 0, Options{Protocol: ProtocolSelfStab, Plant: "level-overflow"}},
		{"baseline flat", 0, Options{Protocol: ProtocolSelfStab, Engine: "flat"}},
		{"baseline composition", 0, Options{Protocol: ProtocolSelfStab, Initiators: []int{0, 2}}},
		{"composition POR", 0, Options{Initiators: []int{0, 2}, POR: true}},
		{"composition distributed", 0, Options{Initiators: []int{0, 2}, Power: PowerDistributed}},
		{"composition event", 0, Options{Initiators: []int{0, 2}, Engine: "event"}},
		{"composition root", 2, Options{Initiators: []int{0, 2}}},
	} {
		if _, err := New(g, tc.root, tc.opts); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
	if _, err := New(mustGraph(t, graph.Line, 4), 0, Options{Initiators: []int{0, 1, 2, 3}}); err == nil ||
		!strings.Contains(err.Error(), "16 vector entries") {
		t.Errorf("a 16-entry composition: err = %v, want the exploration bound", err)
	}

	baseline, err := BaselineDomain(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		opts  Options
		inits [][]core.State
	}{
		{self, baseline},
		{comp, compositionSeeds(t, g, comp.Initiators)},
	} {
		e, err := New(g, 0, tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run([][]core.State{make([]core.State, g.N()+1)}); err == nil {
			t.Errorf("%s: a mis-sized vector accepted", modelName(e.opts))
		}
		bounded := tc.opts
		bounded.Depth = 1
		if e, err = New(g, 0, bounded); err != nil {
			t.Fatal(err)
		}
		res, err := e.Run(tc.inits)
		if err != nil {
			t.Fatal(err)
		}
		if res.Verdict != "bounded" {
			t.Fatalf("%s: one layer gives verdict %q (%s), want bounded", modelName(e.opts), res.Verdict, res.Violation)
		}
		if _, err := e.Scenario("x"); err == nil {
			t.Errorf("%s: Scenario accepted", modelName(e.opts))
		}
		if _, err := e.FrontierSeeds("x", "central-random", 1); err == nil {
			t.Errorf("%s: FrontierSeeds accepted", modelName(e.opts))
		}
	}
}
