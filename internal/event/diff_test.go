package event_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"snappif/internal/core"
	"snappif/internal/event"
	"snappif/internal/fault"
	"snappif/internal/flat"
	"snappif/internal/graph"
	"snappif/internal/obs"
	"snappif/internal/sim"
)

// This file is the event engine's differential oracle against the reference
// sim.Runner: on every topology × daemon × fault × seed combination the grid
// covers, the event runner in external-daemon mode must be *bit-identical*
// to the generic engine — same Steps/Moves/Rounds, same MovesPerAction,
// same final state at every processor, same step-limit error, and
// byte-identical obs JSONL output. In latency mode, the induced wake
// schedule replayed through the generic engine (event.InducedDaemon) must
// reproduce the asynchronous run exactly.

// diffTopologies is the grid's shapes: path, cycle, mesh, hub, dense random
// — all small enough for many (daemon × fault × seed) runs.
func diffTopologies(tb testing.TB) []*graph.Graph {
	tb.Helper()
	var gs []*graph.Graph
	for _, mk := range []func() (*graph.Graph, error){
		func() (*graph.Graph, error) { return graph.Line(7) },
		func() (*graph.Graph, error) { return graph.Ring(9) },
		func() (*graph.Graph, error) { return graph.Grid(3, 4) },
		func() (*graph.Graph, error) { return graph.Star(8) },
		func() (*graph.Graph, error) {
			return graph.RandomConnected(10, 0.35, rand.New(rand.NewSource(11)))
		},
	} {
		g, err := mk()
		if err != nil {
			tb.Fatal(err)
		}
		gs = append(gs, g)
	}
	return gs
}

// diffDaemons builds one fresh daemon per run; the stateful ones
// (round-robin, adversarial) must not leak schedule state across engines.
func diffDaemons() map[string]func() sim.Daemon {
	return map[string]func() sim.Daemon{
		"synchronous": func() sim.Daemon { return sim.Synchronous{} },
		"central":     func() sim.Daemon { return sim.Central{Order: sim.CentralRandom} },
		"dist-random": func() sim.Daemon { return sim.DistributedRandom{P: 0.5} },
		"loc-central": func() sim.Daemon { return sim.LocallyCentral{} },
		"round-robin": func() sim.Daemon { return &sim.RoundRobin{} },
		"adversarial": func() sim.Daemon {
			return &sim.Adversarial{PreferActions: []int{core.ActionB, core.ActionFok, core.ActionF}}
		},
	}
}

// diffFaults is every registered injector plus the clean start.
func diffFaults() []fault.Injector {
	return append([]fault.Injector{fault.Clean()}, fault.All()...)
}

// runGeneric executes the generic engine from a fresh protocol on g (built
// with copts), corrupted by inj under the given seed.
func runGeneric(tb testing.TB, g *graph.Graph, inj fault.Injector, mkDaemon func() sim.Daemon, opts sim.Options, copts ...core.Option) (sim.Result, error, *sim.Configuration) {
	tb.Helper()
	pr, err := core.New(g, 0, copts...)
	if err != nil {
		tb.Fatal(err)
	}
	cfg := sim.NewConfiguration(g, pr)
	inj.Apply(cfg, pr, rand.New(rand.NewSource(opts.Seed)))
	res, rerr := sim.Run(cfg, pr, mkDaemon(), opts)
	return res, rerr, cfg
}

// runEvent executes the event engine from an identically built start. A nil
// daemon factory leaves opts.Latency in charge (asynchronous mode).
func runEvent(tb testing.TB, g *graph.Graph, inj fault.Injector, mkDaemon func() sim.Daemon, opts event.Options, copts ...core.Option) (sim.Result, error, *sim.Configuration) {
	tb.Helper()
	pr, err := core.New(g, 0, copts...)
	if err != nil {
		tb.Fatal(err)
	}
	k, err := flat.FromCore(pr)
	if err != nil {
		tb.Fatal(err)
	}
	cfg := sim.NewConfiguration(g, pr)
	inj.Apply(cfg, pr, rand.New(rand.NewSource(opts.Seed)))
	fc, err := flat.FromSim(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	var d sim.Daemon
	if mkDaemon != nil {
		d = mkDaemon()
	}
	res, rerr := event.Run(fc, k, d, opts)
	return res, rerr, fc.ToSim()
}

func compareResults(t *testing.T, label string, want, got sim.Result) {
	t.Helper()
	if want.Steps != got.Steps {
		t.Errorf("Steps: want %d, %s %d", want.Steps, label, got.Steps)
	}
	if want.Moves != got.Moves {
		t.Errorf("Moves: want %d, %s %d", want.Moves, label, got.Moves)
	}
	if want.Rounds != got.Rounds {
		t.Errorf("Rounds: want %d, %s %d", want.Rounds, label, got.Rounds)
	}
	if want.Terminal != got.Terminal {
		t.Errorf("Terminal: want %v, %s %v", want.Terminal, label, got.Terminal)
	}
	if want.Stopped != got.Stopped {
		t.Errorf("Stopped: want %v, %s %v", want.Stopped, label, got.Stopped)
	}
	if !reflect.DeepEqual(want.MovesPerAction, got.MovesPerAction) {
		t.Errorf("MovesPerAction: want %v, %s %v", want.MovesPerAction, label, got.MovesPerAction)
	}
}

func compareStates(t *testing.T, label string, want, got *sim.Configuration) {
	t.Helper()
	for p := 0; p < want.N(); p++ {
		ws, gs := core.At(want, p), core.At(got, p)
		if ws != gs {
			t.Errorf("proc %d final state: want %+v, %s %+v", p, ws, label, gs)
		}
	}
}

// TestEventMatchesThreeWay is the differential grid (named for the
// generic/flat/event legs it had when flat was a separate runner): every
// topology × daemon × fault × seed cell runs the generic engine and the
// event engine under the same daemon from the same start and RNG stream, and
// every observable of the two runs must agree exactly. Two more families
// run under every daemon with a fairness bound of 2 steps, so forceAged
// fires whenever a daemon leaves an enabled processor unselected and the
// engines must also agree on the forced choices and the RNG draw each one
// consumes: one cell per topology, and two protocol variants — the
// printed-guard reverts (core.WithPrintedGuards) and the Combine fold over
// seeded values, whose feedback kernel walks children (compareStates
// covers Val and Agg).
func TestEventMatchesThreeWay(t *testing.T) {
	const steps = 400
	stop := func(rs *sim.RunState) bool { return rs.Steps >= steps }
	check := func(name string, g *graph.Graph, inj fault.Injector, mkDaemon func() sim.Daemon, seed int64, fairness int, copts ...core.Option) {
		t.Run(name, func(t *testing.T) {
			opts := sim.Options{Seed: seed, StopWhen: stop, MaxSteps: steps + 1, FairnessAge: fairness}
			genRes, genErr, genCfg := runGeneric(t, g, inj, mkDaemon, opts, copts...)
			evtRes, evtErr, evtCfg := runEvent(t, g, inj, mkDaemon, event.Options{Options: opts}, copts...)
			if (genErr == nil) != (evtErr == nil) {
				t.Fatalf("error mismatch: generic %v, event %v", genErr, evtErr)
			}
			compareResults(t, "event", genRes, evtRes)
			compareStates(t, "event", genCfg, evtCfg)
		})
	}
	for _, g := range diffTopologies(t) {
		for dname, mkDaemon := range diffDaemons() {
			for _, inj := range diffFaults() {
				for _, seed := range []int64{1, 12345} {
					check(fmt.Sprintf("%s/%s/%s/seed=%d", g.Name(), dname, inj.Name, seed), g, inj, mkDaemon, seed, 0)
				}
			}
			check(fmt.Sprintf("%s/%s/fairness=2/seed=3", g.Name(), dname), g, fault.UniformRandom(), mkDaemon, 3, 2)
		}
	}

	grid, err := graph.Grid(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	ring, err := graph.Ring(9)
	if err != nil {
		t.Fatal(err)
	}
	vals := fault.Injector{Name: "vals", Apply: func(c *sim.Configuration, _ *core.Protocol, _ *rand.Rand) {
		for p := 0; p < c.N(); p++ {
			s := core.At(c, p)
			s.Val = int64(10 * (p + 1))
			core.Set(c, p, s)
		}
	}}
	sum := func(a, b int64) int64 { return a + b }
	for _, v := range []struct {
		name  string
		g     *graph.Graph
		injs  []fault.Injector
		copts []core.Option
	}{
		{"printed", grid, []fault.Injector{fault.Clean(), fault.UniformRandom()}, []core.Option{core.WithPrintedGuards()}},
		{"combine", ring, []fault.Injector{vals}, []core.Option{core.WithCombine(sum)}},
	} {
		for dname, mkDaemon := range diffDaemons() {
			for _, inj := range v.injs {
				check(fmt.Sprintf("%s/%s/%s/%s/seed=5", v.g.Name(), v.name, dname, inj.Name), v.g, inj, mkDaemon, 5, 2, v.copts...)
			}
		}
	}
}

// TestEventTraceByteIdentical runs the generic and event engines with a
// full-mask obs.Tracer and requires the JSONL outputs to be equal byte for
// byte — the strongest form of the bit-identity contract, covering step,
// round, phase, wave, and snapshot events.
func TestEventTraceByteIdentical(t *testing.T) {
	const steps = 300
	stop := func(rs *sim.RunState) bool { return rs.Steps >= steps }
	for _, g := range diffTopologies(t) {
		for dname, mkDaemon := range diffDaemons() {
			name := fmt.Sprintf("%s/%s", g.Name(), dname)
			t.Run(name, func(t *testing.T) {
				const seed = int64(42)
				inj := fault.UniformRandom()

				// Generic, traced.
				pr1, err := core.New(g, 0)
				if err != nil {
					t.Fatal(err)
				}
				cfg1 := sim.NewConfiguration(g, pr1)
				inj.Apply(cfg1, pr1, rand.New(rand.NewSource(seed)))
				var buf1 bytes.Buffer
				tr1 := obs.New(&buf1, obs.WithProtocol(pr1))
				tr1.BeginRun(g, mkDaemon().Name(), seed, cfg1)
				_, err1 := sim.Run(cfg1, pr1, mkDaemon(), sim.Options{
					Seed: seed, StopWhen: stop, MaxSteps: steps + 1,
					Observers: []sim.Observer{tr1},
				})
				if err1 != nil {
					t.Fatal(err1)
				}
				if err := tr1.Close(); err != nil {
					t.Fatal(err)
				}

				// Event, traced via the mirror configuration.
				pr2, err := core.New(g, 0)
				if err != nil {
					t.Fatal(err)
				}
				k, err := flat.FromCore(pr2)
				if err != nil {
					t.Fatal(err)
				}
				cfg2 := sim.NewConfiguration(g, pr2)
				inj.Apply(cfg2, pr2, rand.New(rand.NewSource(seed)))
				fc, err := flat.FromSim(cfg2)
				if err != nil {
					t.Fatal(err)
				}
				var buf2 bytes.Buffer
				tr2 := obs.New(&buf2, obs.WithProtocol(pr2))
				r, err := event.NewRunner(fc, k, mkDaemon(), event.Options{
					Options: sim.Options{
						Seed: seed, StopWhen: stop, MaxSteps: steps + 1,
						Observers: []sim.Observer{tr2},
					},
				})
				if err != nil {
					t.Fatal(err)
				}
				tr2.BeginRun(g, mkDaemon().Name(), seed, r.Mirror())
				for {
					done, err := r.Step()
					if done {
						if err != nil {
							t.Fatal(err)
						}
						break
					}
				}
				if err := tr2.Close(); err != nil {
					t.Fatal(err)
				}

				if !bytes.Equal(buf1.Bytes(), buf2.Bytes()) {
					t.Fatalf("obs traces differ:\ngeneric %d bytes, event %d bytes\nfirst divergence: %s",
						buf1.Len(), buf2.Len(), firstDiffLine(buf1.Bytes(), buf2.Bytes()))
				}
			})
		}
	}
}

// firstDiffLine locates the first differing JSONL line for failure output.
func firstDiffLine(a, b []byte) string {
	la, lb := bytes.Split(a, []byte("\n")), bytes.Split(b, []byte("\n"))
	for i := 0; i < len(la) && i < len(lb); i++ {
		if !bytes.Equal(la[i], lb[i]) {
			return fmt.Sprintf("line %d:\n  want: %s\n  got:  %s", i+1, la[i], lb[i])
		}
	}
	return fmt.Sprintf("trace lengths differ: %d vs %d lines", len(la), len(lb))
}

// TestEventStepLimitError pins the step-limit failure path: the event engine
// in daemon mode must produce the generic engine's error, byte for byte.
func TestEventStepLimitError(t *testing.T) {
	g, err := graph.Ring(9)
	if err != nil {
		t.Fatal(err)
	}
	opts := sim.Options{Seed: 3, MaxSteps: 50}
	mk := func() sim.Daemon { return sim.Synchronous{} }
	_, wantErr, _ := runGeneric(t, g, fault.Clean(), mk, opts)
	_, gotErr, _ := runEvent(t, g, fault.Clean(), mk, event.Options{Options: opts})
	if wantErr == nil || gotErr == nil {
		t.Fatalf("expected both engines to hit the step limit: generic %v, event %v", wantErr, gotErr)
	}
	if !errors.Is(gotErr, sim.ErrStepLimit) {
		t.Fatalf("event error = %v, want ErrStepLimit", gotErr)
	}
	if wantErr.Error() != gotErr.Error() {
		t.Fatalf("step-limit errors differ:\ngeneric: %s\nevent:   %s", wantErr, gotErr)
	}
}

// TestEventZeroLatencyMatchesSynchronous pins the degenerate case the design
// promises: with Latency = Constant(0) every enabled processor is woken and
// executed at every tick, which *is* the synchronous daemon — identical
// results and final states, with no daemon involved at all.
func TestEventZeroLatencyMatchesSynchronous(t *testing.T) {
	const steps = 400
	stop := func(rs *sim.RunState) bool { return rs.Steps >= steps }
	mk := func() sim.Daemon { return sim.Synchronous{} }
	for _, g := range diffTopologies(t) {
		for _, inj := range diffFaults() {
			name := fmt.Sprintf("%s/%s", g.Name(), inj.Name)
			t.Run(name, func(t *testing.T) {
				opts := sim.Options{Seed: 17, StopWhen: stop, MaxSteps: steps + 1}
				wantRes, wantErr, wantCfg := runGeneric(t, g, inj, mk, opts)
				gotRes, gotErr, gotCfg := runEvent(t, g, inj, nil, event.Options{
					Options: opts, Latency: event.Constant(0),
				})
				if (wantErr == nil) != (gotErr == nil) {
					t.Fatalf("error mismatch: synchronous %v, zero-latency %v", wantErr, gotErr)
				}
				compareResults(t, "zero-latency", wantRes, gotRes)
				compareStates(t, "zero-latency", wantCfg, gotCfg)
			})
		}
	}
}

// diffLatencies is the latency suite the asynchronous differentials run
// under: degenerate, bounded-uniform, and seedable heavy-tail.
func diffLatencies() []event.Latency {
	return []event.Latency{
		event.Constant(0),
		event.Constant(3),
		event.Uniform{Lo: 1, Hi: 5},
		event.Pareto{Alpha: 1.5, Cap: 16},
	}
}

// TestEventLatencyMatchesInducedDaemon is the asynchronous refinement: an
// event run under a latency distribution and a generic run driven by
// event.InducedDaemon — the same wake queue replayed as a sim.Daemon with an
// identical RNG stream — must agree on every observable.
func TestEventLatencyMatchesInducedDaemon(t *testing.T) {
	const steps = 400
	stop := func(rs *sim.RunState) bool { return rs.Steps >= steps }
	for _, g := range diffTopologies(t) {
		for _, lat := range diffLatencies() {
			for _, inj := range []fault.Injector{fault.Clean(), fault.UniformRandom()} {
				name := fmt.Sprintf("%s/%s/%s", g.Name(), lat.Name(), inj.Name)
				t.Run(name, func(t *testing.T) {
					opts := sim.Options{Seed: 23, StopWhen: stop, MaxSteps: steps + 1}
					evtRes, evtErr, evtCfg := runEvent(t, g, inj, nil, event.Options{
						Options: opts, Latency: lat,
					})
					genRes, genErr, genCfg := runGeneric(t, g, inj,
						func() sim.Daemon { return event.NewInducedDaemon(lat) }, opts)
					if (evtErr == nil) != (genErr == nil) {
						t.Fatalf("error mismatch: event %v, generic %v", evtErr, genErr)
					}
					compareResults(t, "generic+induced", evtRes, genRes)
					compareStates(t, "generic+induced", evtCfg, genCfg)
				})
			}
		}
	}
}

// mutObserver is a MutatingObserver used to check the event engine refuses
// configurations it cannot keep mirrored.
type mutObserver struct{}

func (mutObserver) OnStep(int, []sim.Choice, *sim.Configuration) {}
func (mutObserver) MutatesConfiguration() bool                   { return true }

// TestEventRejectsMutatingObserver: mid-run fault injection would desync the
// mirror from the flat state, so NewRunner must reject it loudly instead of
// silently diverging.
func TestEventRejectsMutatingObserver(t *testing.T) {
	g, err := graph.Ring(5)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := core.New(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	k, err := flat.FromCore(pr)
	if err != nil {
		t.Fatal(err)
	}
	fc, err := flat.NewConfig(k)
	if err != nil {
		t.Fatal(err)
	}
	_, err = event.NewRunner(fc, k, sim.Synchronous{}, event.Options{
		Options: sim.Options{Observers: []sim.Observer{mutObserver{}}},
	})
	if err == nil {
		t.Fatal("NewRunner accepted a mutating observer")
	}
}

// TestEventRequiresScheduler: a runner with neither a daemon nor a latency
// distribution has no way to pick steps and must be rejected, and so must a
// configuration built for a different network than the kernel's.
func TestEventRequiresScheduler(t *testing.T) {
	g, err := graph.Ring(5)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := core.New(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	k, err := flat.FromCore(pr)
	if err != nil {
		t.Fatal(err)
	}
	fc, err := flat.NewConfig(k)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := event.NewRunner(fc, k, nil, event.Options{}); err == nil {
		t.Fatal("NewRunner accepted a run with neither daemon nor latency")
	}

	big, err := graph.Ring(9)
	if err != nil {
		t.Fatal(err)
	}
	kBig, err := flat.FromCore(core.MustNew(big, 0))
	if err != nil {
		t.Fatal(err)
	}
	fcBig, err := flat.NewConfig(kBig)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := event.NewRunner(fcBig, k, sim.Synchronous{}, event.Options{}); err == nil {
		t.Fatal("NewRunner accepted a configuration from a different network")
	}
}
