package flat_test

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

// This file is the flat engine's differential oracle: on every topology ×
// daemon × fault × seed combination the grid covers, the flat kernels
// stepped by event.Runner under the same external daemon (the "flat"
// engine) must be *bit-identical* to the generic sim.Runner — same
// Steps/Moves/Rounds, same MovesPerAction, same final state at every
// processor, same step-limit error, and (in the traced variant)
// byte-identical obs JSONL output. internal/event's TestEventMatchesThreeWay
// runs the same grid from the runner's side.

// diffTopologies mirrors the reference-runner grid's shapes: path, cycle,
// mesh, hub, dense random — all small enough for many (daemon × fault ×
// seed) runs.
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

// runGeneric executes the generic engine from a fresh protocol on g,
// corrupted by inj under the given seed.
func runGeneric(tb testing.TB, g *graph.Graph, inj fault.Injector, mkDaemon func() sim.Daemon, opts sim.Options) (sim.Result, error, *sim.Configuration) {
	tb.Helper()
	pr, err := core.New(g, 0)
	if err != nil {
		tb.Fatal(err)
	}
	cfg := sim.NewConfiguration(g, pr)
	inj.Apply(cfg, pr, rand.New(rand.NewSource(opts.Seed)))
	res, rerr := sim.Run(cfg, pr, mkDaemon(), opts)
	return res, rerr, cfg
}

// runFlat executes the flat engine — event.Runner with no latency, under
// the daemon — from an identically built start.
func runFlat(tb testing.TB, g *graph.Graph, inj fault.Injector, mkDaemon func() sim.Daemon, opts sim.Options) (sim.Result, error, *sim.Configuration) {
	tb.Helper()
	pr, err := core.New(g, 0)
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
	res, rerr := event.Run(fc, k, mkDaemon(), event.Options{Options: opts})
	return res, rerr, fc.ToSim()
}

func compareResults(t *testing.T, want, got sim.Result) {
	t.Helper()
	if want.Steps != got.Steps {
		t.Errorf("Steps: generic %d, flat %d", want.Steps, got.Steps)
	}
	if want.Moves != got.Moves {
		t.Errorf("Moves: generic %d, flat %d", want.Moves, got.Moves)
	}
	if want.Rounds != got.Rounds {
		t.Errorf("Rounds: generic %d, flat %d", want.Rounds, got.Rounds)
	}
	if want.Terminal != got.Terminal {
		t.Errorf("Terminal: generic %v, flat %v", want.Terminal, got.Terminal)
	}
	if want.Stopped != got.Stopped {
		t.Errorf("Stopped: generic %v, flat %v", want.Stopped, got.Stopped)
	}
	if !reflect.DeepEqual(want.MovesPerAction, got.MovesPerAction) {
		t.Errorf("MovesPerAction: generic %v, flat %v", want.MovesPerAction, got.MovesPerAction)
	}
}

func compareStates(t *testing.T, want, got *sim.Configuration) {
	t.Helper()
	for p := 0; p < want.N(); p++ {
		ws, gs := core.At(want, p), core.At(got, p)
		if ws != gs {
			t.Errorf("proc %d final state: generic %+v, flat %+v", p, ws, gs)
		}
	}
}

// TestFlatMatchesGeneric is the tentpole's differential grid: every
// topology × daemon × fault × seed cell runs both engines from the same
// start and the same RNG stream, and every observable of the two runs must
// agree exactly.
func TestFlatMatchesGeneric(t *testing.T) {
	const steps = 400
	stop := func(rs *sim.RunState) bool { return rs.Steps >= steps }
	for _, g := range diffTopologies(t) {
		for dname, mkDaemon := range diffDaemons() {
			for _, inj := range diffFaults() {
				for _, seed := range []int64{1, 12345} {
					name := fmt.Sprintf("%s/%s/%s/seed=%d", g.Name(), dname, inj.Name, seed)
					t.Run(name, func(t *testing.T) {
						opts := sim.Options{Seed: seed, StopWhen: stop, MaxSteps: steps + 1}
						wantRes, wantErr, wantCfg := runGeneric(t, g, inj, mkDaemon, opts)
						gotRes, gotErr, gotCfg := runFlat(t, g, inj, mkDaemon, opts)
						if (wantErr == nil) != (gotErr == nil) {
							t.Fatalf("error mismatch: generic %v, flat %v", wantErr, gotErr)
						}
						compareResults(t, wantRes, gotRes)
						compareStates(t, wantCfg, gotCfg)
					})
				}
			}
		}
	}
}

// TestFlatTraceByteIdentical runs both engines with a full-mask obs.Tracer
// and requires the JSONL outputs to be equal byte for byte — the strongest
// form of the bit-identity contract, covering step, round, phase, wave, and
// snapshot events.
func TestFlatTraceByteIdentical(t *testing.T) {
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
				res1, err1 := sim.Run(cfg1, pr1, mkDaemon(), sim.Options{
					Seed: seed, StopWhen: stop, MaxSteps: steps + 1,
					Observers: []sim.Observer{tr1},
				})
				if err1 != nil {
					t.Fatal(err1)
				}
				if err := tr1.Close(); err != nil {
					t.Fatal(err)
				}

				// Flat, traced via the mirror configuration.
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
				res2 := r.Result()
				if err := tr2.Close(); err != nil {
					t.Fatal(err)
				}

				compareResults(t, res1, res2)
				if !bytes.Equal(buf1.Bytes(), buf2.Bytes()) {
					t.Fatalf("obs traces differ:\ngeneric %d bytes, flat %d bytes\nfirst divergence: %s",
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
			return fmt.Sprintf("line %d:\n  generic: %s\n  flat:    %s", i+1, la[i], lb[i])
		}
	}
	return fmt.Sprintf("trace lengths differ: %d vs %d lines", len(la), len(lb))
}

// TestFlatStepLimitError pins the step-limit failure path: the flat engine
// must produce the generic engine's error, byte for byte (the kernel
// reports the source protocol's name, not a flat-specific one).
func TestFlatStepLimitError(t *testing.T) {
	g, err := graph.Ring(9)
	if err != nil {
		t.Fatal(err)
	}
	opts := sim.Options{Seed: 3, MaxSteps: 50}
	mk := func() sim.Daemon { return sim.Synchronous{} }
	_, wantErr, _ := runGeneric(t, g, fault.Clean(), mk, opts)
	_, gotErr, _ := runFlat(t, g, fault.Clean(), mk, opts)
	if wantErr == nil || gotErr == nil {
		t.Fatalf("expected both engines to hit the step limit: generic %v, flat %v", wantErr, gotErr)
	}
	if !errors.Is(gotErr, sim.ErrStepLimit) {
		t.Fatalf("flat error = %v, want ErrStepLimit", gotErr)
	}
	if wantErr.Error() != gotErr.Error() {
		t.Fatalf("step-limit errors differ:\ngeneric: %s\nflat:    %s", wantErr, gotErr)
	}
}

// mutObserver is a MutatingObserver used to check the flat engine refuses
// configurations it cannot keep mirrored.
type mutObserver struct{}

func (mutObserver) OnStep(int, []sim.Choice, *sim.Configuration) {}
func (mutObserver) MutatesConfiguration() bool                   { return true }

// TestFlatRejectsMutatingObserver: mid-run fault injection would desync the
// mirror from the flat state, so NewRunner must reject it loudly instead of
// silently diverging.
func TestFlatRejectsMutatingObserver(t *testing.T) {
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

// TestFlatPrintedGuards covers the kernel's printed-guard variants (the
// transcription-repair reverts): both engines run the as-printed protocol
// and must still agree.
func TestFlatPrintedGuards(t *testing.T) {
	g, err := graph.Grid(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	const steps = 300
	stop := func(rs *sim.RunState) bool { return rs.Steps >= steps }
	opts := sim.Options{Seed: 5, StopWhen: stop, MaxSteps: steps + 1}

	mkDaemon := func() sim.Daemon { return sim.DistributedRandom{P: 0.5} }
	for _, inj := range []fault.Injector{fault.Clean(), fault.UniformRandom()} {
		newProto := func() *core.Protocol {
			pr, err := core.New(g, 0, core.WithPrintedGuards())
			if err != nil {
				t.Fatal(err)
			}
			return pr
		}

		pr1 := newProto()
		cfg1 := sim.NewConfiguration(g, pr1)
		inj.Apply(cfg1, pr1, rand.New(rand.NewSource(opts.Seed)))
		wantRes, wantErr := sim.Run(cfg1, pr1, mkDaemon(), opts)

		pr2 := newProto()
		k, err := flat.FromCore(pr2)
		if err != nil {
			t.Fatal(err)
		}
		cfg2 := sim.NewConfiguration(g, pr2)
		inj.Apply(cfg2, pr2, rand.New(rand.NewSource(opts.Seed)))
		fc, err := flat.FromSim(cfg2)
		if err != nil {
			t.Fatal(err)
		}
		gotRes, gotErr := event.Run(fc, k, mkDaemon(), event.Options{Options: opts})

		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("%s: error mismatch: generic %v, flat %v", inj.Name, wantErr, gotErr)
		}
		compareResults(t, wantRes, gotRes)
		compareStates(t, cfg1, fc.ToSim())
	}
}

// TestFlatAggregation covers the Combine fold (feedback aggregation), whose
// kernel walks feedback children: both engines must agree on Val/Agg too
// (compareStates covers all fields, including the payload registers).
func TestFlatAggregation(t *testing.T) {
	g, err := graph.Ring(9)
	if err != nil {
		t.Fatal(err)
	}
	const steps = 400
	stop := func(rs *sim.RunState) bool { return rs.Steps >= steps }
	opts := sim.Options{Seed: 7, StopWhen: stop, MaxSteps: steps + 1}
	sum := func(a, b int64) int64 { return a + b }
	mkDaemon := func() sim.Daemon { return sim.DistributedRandom{P: 0.5} }

	newProto := func() *core.Protocol {
		pr, err := core.New(g, 0, core.WithCombine(sum))
		if err != nil {
			t.Fatal(err)
		}
		return pr
	}

	pr1 := newProto()
	cfg1 := sim.NewConfiguration(g, pr1)
	for p := 0; p < g.N(); p++ {
		s := core.At(cfg1, p)
		s.Val = int64(10 * (p + 1))
		core.Set(cfg1, p, s)
	}
	wantRes, wantErr := sim.Run(cfg1, pr1, mkDaemon(), opts)

	pr2 := newProto()
	k, err := flat.FromCore(pr2)
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := sim.NewConfiguration(g, pr2)
	for p := 0; p < g.N(); p++ {
		s := core.At(cfg2, p)
		s.Val = int64(10 * (p + 1))
		core.Set(cfg2, p, s)
	}
	fc, err := flat.FromSim(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	gotRes, gotErr := event.Run(fc, k, mkDaemon(), event.Options{Options: opts})

	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("error mismatch: generic %v, flat %v", wantErr, gotErr)
	}
	compareResults(t, wantRes, gotRes)
	compareStates(t, cfg1, fc.ToSim())
}
