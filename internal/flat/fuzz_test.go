package flat_test

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

// FuzzFlatVsGeneric is the differential fuzz oracle: any (topology, fault,
// daemon, seed) the fuzzer invents must produce byte-identical obs traces —
// and equal results — from the generic and flat engines (the flat engine is
// event.Runner under the same daemon). The committed corpus under
// testdata/fuzz seeds one entry per injector and daemon; every entry is
// also a FuzzThreeEngines seed in internal/event (there with a latency
// byte).
func FuzzFlatVsGeneric(f *testing.F) {
	nFaults := len(diffFaults())
	for i := 0; i < nFaults; i++ {
		f.Add(byte(i%5), byte(i), byte(i), byte(i%len(fuzzDaemonList)), int64(1000+i))
	}
	for i := range fuzzDaemonList {
		f.Add(byte(4), byte(7), byte(0), byte(i), int64(7))
	}

	f.Fuzz(func(t *testing.T, topoPick, nRaw, faultPick, daemonPick byte, seed int64) {
		g, err := fuzzGraph(topoPick, nRaw)
		if err != nil {
			t.Skip() // unreachable: every decoded shape is valid
		}
		if seed == 0 {
			seed = 1
		}
		inj := diffFaults()[int(faultPick)%nFaults]
		dm := fuzzDaemonList[int(daemonPick)%len(fuzzDaemonList)]

		const steps = 150
		stop := func(rs *sim.RunState) bool { return rs.Steps >= steps }

		// Generic, traced.
		pr1, err := core.New(g, 0)
		if err != nil {
			t.Fatal(err)
		}
		cfg1 := sim.NewConfiguration(g, pr1)
		inj.Apply(cfg1, pr1, rand.New(rand.NewSource(seed)))
		var buf1 bytes.Buffer
		tr1 := obs.New(&buf1, obs.WithProtocol(pr1))
		tr1.BeginRun(g, dm.mk().Name(), seed, cfg1)
		res1, err1 := sim.Run(cfg1, pr1, dm.mk(), sim.Options{
			Seed: seed, StopWhen: stop, MaxSteps: steps + 1,
			Observers: []sim.Observer{tr1},
		})
		if err1 != nil {
			t.Fatal(err1)
		}
		if err := tr1.Close(); err != nil {
			t.Fatal(err)
		}

		// Flat, traced via the mirror.
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
		r, err := event.NewRunner(fc, k, dm.mk(), event.Options{
			Options: sim.Options{
				Seed: seed, StopWhen: stop, MaxSteps: steps + 1,
				Observers: []sim.Observer{tr2},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		tr2.BeginRun(g, dm.mk().Name(), seed, r.Mirror())
		for {
			done, serr := r.Step()
			if done {
				if serr != nil {
					t.Fatal(serr)
				}
				break
			}
		}
		res2 := r.Result()
		if err := tr2.Close(); err != nil {
			t.Fatal(err)
		}

		if res1.Steps != res2.Steps || res1.Moves != res2.Moves || res1.Rounds != res2.Rounds ||
			res1.Terminal != res2.Terminal || res1.Stopped != res2.Stopped {
			t.Fatalf("results diverge on %s/%s/%s/seed=%d:\ngeneric %+v\nflat    %+v",
				g.Name(), dm.name, inj.Name, seed, res1, res2)
		}
		final2 := fc.ToSim()
		for p := 0; p < g.N(); p++ {
			if ws, gs := core.At(cfg1, p), core.At(final2, p); ws != gs {
				t.Fatalf("proc %d final state diverges on %s/%s/%s/seed=%d: generic %+v, flat %+v",
					p, g.Name(), dm.name, inj.Name, seed, ws, gs)
			}
		}
		if !bytes.Equal(buf1.Bytes(), buf2.Bytes()) {
			t.Fatalf("obs traces diverge on %s/%s/%s/seed=%d:\n%s",
				g.Name(), dm.name, inj.Name, seed, firstDiffLine(buf1.Bytes(), buf2.Bytes()))
		}
	})
}
