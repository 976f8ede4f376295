package event_test

import (
	"bytes"
	"math/rand"
	"testing"

	"snappif/internal/core"
	"snappif/internal/event"
	"snappif/internal/flat"
	"snappif/internal/graph"
	"snappif/internal/obs"
	"snappif/internal/sim"
)

// fuzzDaemonList is diffDaemons in a fixed order so a corpus byte names a
// daemon stably across runs.
var fuzzDaemonList = []struct {
	name string
	mk   func() sim.Daemon
}{
	{"synchronous", func() sim.Daemon { return sim.Synchronous{} }},
	{"central", func() sim.Daemon { return sim.Central{Order: sim.CentralRandom} }},
	{"dist-random", func() sim.Daemon { return sim.DistributedRandom{P: 0.5} }},
	{"loc-central", func() sim.Daemon { return sim.LocallyCentral{} }},
	{"round-robin", func() sim.Daemon { return &sim.RoundRobin{} }},
	{"adversarial", func() sim.Daemon {
		return &sim.Adversarial{PreferActions: []int{core.ActionB, core.ActionFok, core.ActionF}}
	}},
}

// fuzzGraph decodes (topoPick, nRaw) into a small topology.
func fuzzGraph(topoPick, nRaw byte) (*graph.Graph, error) {
	n := 3 + int(nRaw)%10
	switch topoPick % 5 {
	case 0:
		return graph.Line(n)
	case 1:
		return graph.Ring(n)
	case 2:
		return graph.Star(n)
	case 3:
		return graph.Grid(2, (n+1)/2)
	default:
		return graph.RandomSparse(n, n/2, rand.New(rand.NewSource(int64(nRaw)+1)))
	}
}

// fuzzLatency decodes a corpus byte into a latency distribution for the
// asynchronous leg of the fuzz oracle.
func fuzzLatency(pick byte) event.Latency {
	switch pick % 4 {
	case 0:
		return event.Constant(0)
	case 1:
		return event.Constant(2)
	case 2:
		return event.Uniform{Lo: 1, Hi: 4}
	default:
		return event.Pareto{Alpha: 1.5, Cap: 8}
	}
}

// FuzzThreeEngines is the differential fuzz oracle (named for the
// generic/flat/event legs it had when flat was a separate runner): any
// (topology, fault, daemon, latency, seed) the fuzzer invents must produce
// byte-identical obs traces — and equal results and final states — from
// (a) the generic and event engines sharing the daemon, and (b) the event
// engine's asynchronous latency mode versus the generic engine driven by
// the induced daemon. The committed corpus under testdata/fuzz seeds one
// entry per injector, daemon, and latency family.
func FuzzThreeEngines(f *testing.F) {
	nFaults := len(diffFaults())
	for i := 0; i < nFaults; i++ {
		f.Add(byte(i%5), byte(i), byte(i), byte(i%len(fuzzDaemonList)), byte(i%4), int64(1000+i))
	}
	for i := range fuzzDaemonList {
		f.Add(byte(4), byte(7), byte(0), byte(i), byte(i%4), int64(7))
	}
	for i := 0; i < 4; i++ {
		f.Add(byte(i), byte(9), byte(2), byte(1), byte(i), int64(300+i))
	}

	f.Fuzz(func(t *testing.T, topoPick, nRaw, faultPick, daemonPick, latPick byte, seed int64) {
		g, err := fuzzGraph(topoPick, nRaw)
		if err != nil {
			t.Skip() // unreachable: every decoded shape is valid
		}
		if seed == 0 {
			seed = 1
		}
		inj := diffFaults()[int(faultPick)%nFaults]
		dm := fuzzDaemonList[int(daemonPick)%len(fuzzDaemonList)]
		lat := fuzzLatency(latPick)

		const steps = 150
		stop := func(rs *sim.RunState) bool { return rs.Steps >= steps }
		opts := sim.Options{Seed: seed, StopWhen: stop, MaxSteps: steps + 1}

		// traced runs one engine with a full-mask tracer and returns the
		// result, final configuration, and trace bytes.
		traced := func(run func(pr *core.Protocol, tr *obs.Tracer, o sim.Options) (sim.Result, error, *sim.Configuration), daemonName string) (sim.Result, *sim.Configuration, []byte) {
			pr, err := core.New(g, 0)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			tr := obs.New(&buf, obs.WithProtocol(pr))
			o := opts
			o.Observers = []sim.Observer{tr}
			res, rerr, final := run(pr, tr, o)
			if rerr != nil {
				t.Fatalf("%s: %v", daemonName, rerr)
			}
			if err := tr.Close(); err != nil {
				t.Fatal(err)
			}
			return res, final, buf.Bytes()
		}

		genRes, genCfg, genTrace := traced(func(pr *core.Protocol, tr *obs.Tracer, o sim.Options) (sim.Result, error, *sim.Configuration) {
			cfg := sim.NewConfiguration(g, pr)
			inj.Apply(cfg, pr, rand.New(rand.NewSource(seed)))
			tr.BeginRun(g, dm.mk().Name(), seed, cfg)
			res, rerr := sim.Run(cfg, pr, dm.mk(), o)
			return res, rerr, cfg
		}, "generic")

		evtRes, evtCfg, evtTrace := traced(func(pr *core.Protocol, tr *obs.Tracer, o sim.Options) (sim.Result, error, *sim.Configuration) {
			k, err := flat.FromCore(pr)
			if err != nil {
				t.Fatal(err)
			}
			cfg := sim.NewConfiguration(g, pr)
			inj.Apply(cfg, pr, rand.New(rand.NewSource(seed)))
			fc, err := flat.FromSim(cfg)
			if err != nil {
				t.Fatal(err)
			}
			r, err := event.NewRunner(fc, k, dm.mk(), event.Options{Options: o})
			if err != nil {
				t.Fatal(err)
			}
			tr.BeginRun(g, dm.mk().Name(), seed, r.Mirror())
			for {
				done, serr := r.Step()
				if done {
					return r.Result(), serr, fc.ToSim()
				}
			}
		}, "event")

		check := func(label string, res sim.Result, cfg *sim.Configuration, trace []byte) {
			if genRes.Steps != res.Steps || genRes.Moves != res.Moves || genRes.Rounds != res.Rounds ||
				genRes.Terminal != res.Terminal || genRes.Stopped != res.Stopped {
				t.Fatalf("%s results diverge on %s/%s/%s/seed=%d:\ngeneric %+v\n%s %+v",
					label, g.Name(), dm.name, inj.Name, seed, genRes, label, res)
			}
			for p := 0; p < g.N(); p++ {
				if ws, gs := core.At(genCfg, p), core.At(cfg, p); ws != gs {
					t.Fatalf("%s proc %d final state diverges on %s/%s/%s/seed=%d: generic %+v, %s %+v",
						label, p, g.Name(), dm.name, inj.Name, seed, ws, label, gs)
				}
			}
			if !bytes.Equal(genTrace, trace) {
				t.Fatalf("%s obs traces diverge on %s/%s/%s/seed=%d:\n%s",
					label, g.Name(), dm.name, inj.Name, seed, firstDiffLine(genTrace, trace))
			}
		}
		check("event", evtRes, evtCfg, evtTrace)

		// Asynchronous leg: event under lat versus generic under the induced
		// daemon — same schedule, same RNG stream, byte-identical traces.
		latRes, latCfg, latTrace := traced(func(pr *core.Protocol, tr *obs.Tracer, o sim.Options) (sim.Result, error, *sim.Configuration) {
			k, err := flat.FromCore(pr)
			if err != nil {
				t.Fatal(err)
			}
			cfg := sim.NewConfiguration(g, pr)
			inj.Apply(cfg, pr, rand.New(rand.NewSource(seed)))
			fc, err := flat.FromSim(cfg)
			if err != nil {
				t.Fatal(err)
			}
			o.Observers = append([]sim.Observer{}, o.Observers...)
			r, err := event.NewRunner(fc, k, nil, event.Options{Options: o, Latency: lat})
			if err != nil {
				t.Fatal(err)
			}
			tr.BeginRun(g, "event:"+lat.Name(), seed, r.Mirror())
			for {
				done, serr := r.Step()
				if done {
					return r.Result(), serr, fc.ToSim()
				}
			}
		}, "event-latency")

		indRes, indCfg, indTrace := traced(func(pr *core.Protocol, tr *obs.Tracer, o sim.Options) (sim.Result, error, *sim.Configuration) {
			cfg := sim.NewConfiguration(g, pr)
			inj.Apply(cfg, pr, rand.New(rand.NewSource(seed)))
			d := event.NewInducedDaemon(lat)
			tr.BeginRun(g, d.Name(), seed, cfg)
			res, rerr := sim.Run(cfg, pr, d, o)
			return res, rerr, cfg
		}, "generic+induced")

		if latRes.Steps != indRes.Steps || latRes.Moves != indRes.Moves || latRes.Rounds != indRes.Rounds ||
			latRes.Terminal != indRes.Terminal || latRes.Stopped != indRes.Stopped {
			t.Fatalf("latency results diverge on %s/%s/%s/seed=%d:\nevent   %+v\ninduced %+v",
				g.Name(), lat.Name(), inj.Name, seed, latRes, indRes)
		}
		for p := 0; p < g.N(); p++ {
			if ws, gs := core.At(latCfg, p), core.At(indCfg, p); ws != gs {
				t.Fatalf("latency proc %d final state diverges on %s/%s/%s/seed=%d: event %+v, induced %+v",
					p, g.Name(), lat.Name(), inj.Name, seed, ws, gs)
			}
		}
		if !bytes.Equal(latTrace, indTrace) {
			t.Fatalf("latency obs traces diverge on %s/%s/%s/seed=%d:\n%s",
				g.Name(), lat.Name(), inj.Name, seed, firstDiffLine(latTrace, indTrace))
		}
	})
}
