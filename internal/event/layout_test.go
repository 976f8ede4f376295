package event_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"snappif/internal/core"
	"snappif/internal/event"
	"snappif/internal/fault"
	"snappif/internal/flat"
	"snappif/internal/graph"
	"snappif/internal/obs"
	"snappif/internal/sim"
	"snappif/internal/telemetry"
)

// This file runs the sim≡event differential on a network whose slot layout
// is not the identity. The grids of diff_test.go sit below the size from
// which flat.Config stores processors in BFS slot order, so every
// translation between processor IDs and slots is the identity there. Here
// the network is a random-label sparse graph above that size, rooted at a
// processor that is not 0 and is not stored at its ID's slot, so the
// kernel's root lookup, Par, the ≺_p tie-break over the slot adjacency, the
// choice lists daemons and observers see, the mirror, the flight recorder
// and the wake queue all cross the translation.

// layoutCase is the network and root of the slot-layout differentials.
type layoutCase struct {
	g    *graph.Graph
	root int
}

func newLayoutCase(tb testing.TB) layoutCase {
	tb.Helper()
	g, err := graph.RandomSparse(20_000, 5_000, rand.New(rand.NewSource(31)))
	if err != nil {
		tb.Fatal(err)
	}
	k, err := flat.FromCore(core.MustNew(g, 0))
	if err != nil {
		tb.Fatal(err)
	}
	c, err := flat.NewConfig(k)
	if err != nil {
		tb.Fatal(err)
	}
	if c.Identity() {
		tb.Fatalf("%s has the identity layout: the differential no longer crosses the translation", g.Name())
	}
	root := g.N() / 2
	for c.Slot(root) == root {
		root++
	}
	return layoutCase{g: g, root: root}
}

// start builds the protocol and its corrupted boxed start.
func (lc layoutCase) start(tb testing.TB, inj fault.Injector, seed int64) (*core.Protocol, *sim.Configuration) {
	tb.Helper()
	pr, err := core.New(lc.g, lc.root)
	if err != nil {
		tb.Fatal(err)
	}
	cfg := sim.NewConfiguration(lc.g, pr)
	inj.Apply(cfg, pr, rand.New(rand.NewSource(seed)))
	return pr, cfg
}

// runner builds an event runner from the same start as start's.
func (lc layoutCase) runner(tb testing.TB, inj fault.Injector, d sim.Daemon, opts event.Options) (*event.Runner, *flat.Protocol, *flat.Config) {
	tb.Helper()
	pr, cfg := lc.start(tb, inj, opts.Seed)
	k, err := flat.FromCore(pr)
	if err != nil {
		tb.Fatal(err)
	}
	fc, err := flat.FromSim(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	r, err := event.NewRunner(fc, k, d, opts)
	if err != nil {
		tb.Fatal(err)
	}
	return r, k, fc
}

func drive(tb testing.TB, r *event.Runner) (sim.Result, error) {
	tb.Helper()
	for {
		if done, err := r.Step(); done {
			return r.Result(), err
		}
	}
}

// TestSlotLayoutMatchesSim runs both engines under every daemon of the
// differential grid, with a fairness bound of 2 steps so forceAged fires,
// from the clean start and a corrupted one, and under two latency
// distributions against InducedDaemon; results and final states must agree
// exactly.
func TestSlotLayoutMatchesSim(t *testing.T) {
	lc := newLayoutCase(t)
	const steps = 120
	stop := func(rs *sim.RunState) bool { return rs.Steps >= steps }
	check := func(name string, inj fault.Injector, mkGen, mkEvt func() sim.Daemon, lat event.Latency, fairness int) {
		t.Run(name, func(t *testing.T) {
			opts := sim.Options{Seed: 7, StopWhen: stop, MaxSteps: steps + 1, FairnessAge: fairness}
			pr, cfg := lc.start(t, inj, opts.Seed)
			genRes, genErr := sim.Run(cfg, pr, mkGen(), opts)
			var d sim.Daemon
			if mkEvt != nil {
				d = mkEvt()
			}
			r, _, fc := lc.runner(t, inj, d, event.Options{Options: opts, Latency: lat})
			evtRes, evtErr := drive(t, r)
			if (genErr == nil) != (evtErr == nil) {
				t.Fatalf("error mismatch: sim %v, event %v", genErr, evtErr)
			}
			compareResults(t, "event", genRes, evtRes)
			compareStates(t, "event", cfg, fc.ToSim())
		})
	}
	for dname, mk := range diffDaemons() {
		for _, inj := range []fault.Injector{fault.Clean(), fault.UniformRandom()} {
			check(fmt.Sprintf("%s/%s", dname, inj.Name), inj, mk, mk, nil, 2)
		}
	}
	for _, lat := range []event.Latency{event.Uniform{Lo: 1, Hi: 5}, event.Pareto{Alpha: 1.5, Cap: 16}} {
		for _, inj := range []fault.Injector{fault.Clean(), fault.UniformRandom()} {
			mk := func() sim.Daemon { return event.NewInducedDaemon(lat) }
			check(fmt.Sprintf("%s/%s", lat.Name(), inj.Name), inj, mk, nil, lat, 0)
		}
	}
}

// TestSlotLayoutTraceByteIdentical traces both engines with a full-mask
// obs.Tracer, which reads the event runner's mirror configuration; the
// JSONL outputs must be equal byte for byte.
func TestSlotLayoutTraceByteIdentical(t *testing.T) {
	traceBothEngines(t, newLayoutCase(t), func() sim.Daemon { return sim.DistributedRandom{P: 0.5} })
}

// TestSlotLayoutSynchronousTraceByteIdentical is the trace differential
// under the synchronous daemon, whose event step moves the enabled set in
// slot order and hands observers the selection re-sorted by processor ID.
func TestSlotLayoutSynchronousTraceByteIdentical(t *testing.T) {
	traceBothEngines(t, newLayoutCase(t), func() sim.Daemon { return sim.Synchronous{} })
}

// traceBothEngines runs sim and the event runner under the daemon mk makes
// from the same corrupted start, each traced by a full-mask obs.Tracer, and
// fails unless the traces are equal byte for byte.
func traceBothEngines(t *testing.T, lc layoutCase, mk func() sim.Daemon) {
	t.Helper()
	const steps, seed = 80, int64(42)
	stop := func(rs *sim.RunState) bool { return rs.Steps >= steps }

	pr1, cfg1 := lc.start(t, fault.UniformRandom(), seed)
	var buf1 bytes.Buffer
	tr1 := obs.New(&buf1, obs.WithProtocol(pr1))
	tr1.BeginRun(lc.g, mk().Name(), seed, cfg1)
	if _, err := sim.Run(cfg1, pr1, mk(), sim.Options{Seed: seed, StopWhen: stop, MaxSteps: steps + 1, Observers: []sim.Observer{tr1}}); err != nil {
		t.Fatal(err)
	}
	if err := tr1.Close(); err != nil {
		t.Fatal(err)
	}

	pr2, _ := lc.start(t, fault.UniformRandom(), seed)
	var buf2 bytes.Buffer
	tr2 := obs.New(&buf2, obs.WithProtocol(pr2))
	r, _, _ := lc.runner(t, fault.UniformRandom(), mk(), event.Options{Options: sim.Options{
		Seed: seed, StopWhen: stop, MaxSteps: steps + 1, Observers: []sim.Observer{tr2},
	}})
	tr2.BeginRun(lc.g, mk().Name(), seed, r.Mirror())
	if _, err := drive(t, r); err != nil {
		t.Fatal(err)
	}
	if err := tr2.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf1.Bytes(), buf2.Bytes()) {
		t.Fatalf("obs traces differ: sim %d bytes, event %d bytes\nfirst divergence: %s",
			buf1.Len(), buf2.Len(), firstDiffLine(buf1.Bytes(), buf2.Bytes()))
	}
}

// stepLog records what a sim run shows its observers and stop predicate
// at every step: the executed choices, the enabled count after the guard
// refresh, and the rounds completed (from the start, before any step).
type stepLog struct {
	executed [][]sim.Choice
	enabled  []int
	rounds   []int
}

func (l *stepLog) OnStep(_ int, executed []sim.Choice, _ *sim.Configuration) {
	l.executed = append(l.executed, slices.Clone(executed))
}

func (l *stepLog) OnEnabled(_, enabled int) { l.enabled = append(l.enabled, enabled) }

// TestSlotLayoutSynchronousTelemetry runs the synchronous daemon with
// telemetry and no observer, so the event runner builds its selection in
// processor-ID order for telemetry alone. Per step, the executed choices
// (from the flight recorder's schedule), the enabled counts (from a
// series row per step) and the rounds completed (from the stop predicate)
// must equal what sim shows an observer, and every step must close a round.
func TestSlotLayoutSynchronousTelemetry(t *testing.T) {
	lc := newLayoutCase(t)
	const steps, seed = 120, int64(5)

	var want stepLog
	pr, cfg := lc.start(t, fault.UniformRandom(), seed)
	simRes, err := sim.Run(cfg, pr, sim.Synchronous{}, sim.Options{
		Seed:      seed,
		MaxSteps:  steps + 1,
		Observers: []sim.Observer{&want},
		StopWhen: func(rs *sim.RunState) bool {
			want.rounds = append(want.rounds, rs.Rounds)
			return rs.Steps >= steps
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	var rounds []int
	tel := telemetry.New(telemetry.Config{SampleEvery: 1, SeriesCap: steps, FlightDepth: 1, FlightEvery: steps + 1})
	r, _, fc := lc.runner(t, fault.UniformRandom(), sim.Synchronous{}, event.Options{
		Options: sim.Options{
			Seed:     seed,
			MaxSteps: steps + 1,
			StopWhen: func(rs *sim.RunState) bool {
				rounds = append(rounds, rs.Rounds)
				return rs.Steps >= steps
			},
		},
		Telemetry: tel,
	})
	res, err := drive(t, r)
	if err != nil {
		t.Fatal(err)
	}
	compareResults(t, "event", simRes, res)
	compareStates(t, "event", cfg, fc.ToSim())
	if res.Rounds != res.Steps {
		t.Fatalf("%d rounds in %d synchronous steps, want one a step", res.Rounds, res.Steps)
	}
	if !slices.Equal(rounds, want.rounds) {
		t.Fatalf("rounds per step %v, sim %v", rounds, want.rounds)
	}

	sc, err := tel.DumpScenario()
	if err != nil {
		t.Fatal(err)
	}
	rows := tel.Series().Rows()
	if len(sc.Schedule) != steps || len(rows) != steps || len(want.executed) != steps {
		t.Fatalf("%d scheduled steps and %d series rows, sim %d steps; want %d", len(sc.Schedule), len(rows), len(want.executed), steps)
	}
	for i, wantSel := range want.executed {
		got := sc.Schedule[i]
		if len(got) != len(wantSel) {
			t.Fatalf("step %d executed %d choices, sim %d", i+1, len(got), len(wantSel))
		}
		for j, ch := range wantSel {
			if got[j] != [2]int{ch.Proc, ch.Action} {
				t.Fatalf("step %d: choice %d is %v, sim %v", i+1, j, got[j], ch)
			}
		}
		if rows[i].Step != int64(i+1) || rows[i].Enabled != int64(want.enabled[i]) {
			t.Fatalf("series row %d is step %d with %d enabled, sim step %d has %d", i, rows[i].Step, rows[i].Enabled, i+1, want.enabled[i])
		}
	}
}

// TestSlotLayoutFlightDump records a latency-mode run with the telemetry
// flight recorder, whose schedule and checkpoints name processors; the
// dumped scenario must replay on the sim engine into the live final state.
func TestSlotLayoutFlightDump(t *testing.T) {
	lc := newLayoutCase(t)
	const seed, steps = 9, 150
	tel := telemetry.New(telemetry.Config{SampleEvery: 16, FlightDepth: 4, FlightEvery: 16})
	r, _, fc := lc.runner(t, fault.UniformRandom(), nil, event.Options{
		Options: sim.Options{
			MaxSteps: steps + 1,
			Seed:     seed,
			StopWhen: func(rs *sim.RunState) bool { return rs.Steps >= steps },
		},
		Latency:       event.Uniform{Lo: 1, Hi: 4},
		Telemetry:     tel,
		TelemetryMeta: telemetry.RunMeta{Seed: seed - 1},
	})
	if _, err := drive(t, r); err != nil {
		t.Fatal(err)
	}
	sc, err := tel.DumpScenario()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := sc.Trace(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(finalCanonical(t, lc.g, buf.Bytes()), fc.AppendCanonical(nil)) {
		t.Fatal("replay of the flight dump missed the live final state")
	}
}

// TestSlotLayoutGateAndWake drives a gated latency-mode runner, the serving
// layer's mode: the gate withholds the root's broadcast until the runner
// parks, then Wake re-arms it. Every processor's cached action
// (EnabledActionOf) must equal a fresh guard evaluation, checked every 100
// committed steps.
func TestSlotLayoutGateAndWake(t *testing.T) {
	lc := newLayoutCase(t)
	const steps = 3000
	open := false
	r, k, fc := lc.runner(t, fault.Clean(), nil, event.Options{
		Options: sim.Options{Seed: 3, MaxSteps: 1 << 20},
		Latency: event.Uniform{Lo: 1, Hi: 3},
		Gate:    func(p int, a int32) bool { return open || p != lc.root || a != core.ActionB },
	})
	admitted := 0
	for step := 1; step <= steps; {
		progressed, err := r.ServeStep(-1)
		if err != nil {
			t.Fatal(err)
		}
		if !progressed {
			if open {
				t.Fatalf("step %d: no progress with the gate open", step)
			}
			open = true
			admitted++
			r.Wake(k.Root, r.VirtualTime()+1)
			continue
		}
		if fc.Phase(k.Root) == core.B {
			open = false
		}
		if step%100 == 0 {
			assertCacheFresh(t, r, k, fc, step)
		}
		step++
	}
	if admitted < 2 {
		t.Fatalf("%d waves admitted in %d steps, want at least 2 park → Wake cycles", admitted, steps)
	}
}
