package flat_test

import (
	"math/rand"
	"testing"

	"snappif/internal/core"
	"snappif/internal/flat"
	"snappif/internal/graph"
	"snappif/internal/sim"
)

// TestCommitMatchesCoreApply is the kernel oracle for the write set. On a
// line, a ring, a star, a grid and a random sparse network, from the clean
// start and every injector's corruption, each walked by random central
// steps, every enabled action at every processor, root included, is staged
// and committed alone. The processor's committed state must equal
// core.Protocol.Apply's field for field, and every other processor must keep
// its state. The walks must reach a root NewCount that raises Fok_root and
// Broadcasts that change the message, at the root and elsewhere, so a
// commit that drops either write fails the test.
func TestCommitMatchesCoreApply(t *testing.T) {
	const walk = 80
	nets := []func() (*graph.Graph, error){
		func() (*graph.Graph, error) { return graph.Line(7) },
		func() (*graph.Graph, error) { return graph.Ring(8) },
		func() (*graph.Graph, error) { return graph.Star(6) },
		func() (*graph.Graph, error) { return graph.Grid(3, 3) },
		func() (*graph.Graph, error) { return graph.RandomSparse(12, 5, rand.New(rand.NewSource(4))) },
	}
	sum := func(acc, child int64) int64 { return acc + child }
	checked, rootFokRaised, rootNewMsg, childNewMsg := 0, 0, 0, 0
	for _, mk := range nets {
		g, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		for _, inj := range diffFaults() {
			for seed := int64(1); seed <= 4; seed++ {
				pr, err := core.New(g, 0, core.WithCombine(sum))
				if err != nil {
					t.Fatal(err)
				}
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
				next := fc.Clone()
				rng := rand.New(rand.NewSource(seed))
				var enabled []int
				for w := 0; w < walk; w++ {
					enabled = enabled[:0]
					for p := 0; p < g.N(); p++ {
						s := fc.Slot(p)
						a := k.EnabledAction(fc, s)
						if want := pr.Enabled(cfg, p); a == flat.NoAction && len(want) != 0 ||
							a != flat.NoAction && (len(want) != 1 || want[0] != int(a)) {
							t.Fatalf("%s/%s/seed=%d step %d: processor %d: flat enables %d, core %v", g.Name(), inj.Name, seed, w, p, a, want)
						}
						if a == flat.NoAction {
							continue
						}
						enabled = append(enabled, p)
						before := fc.StateAt(p)
						want := *pr.Apply(cfg, p, int(a)).(*core.State)
						next.CopyFrom(fc)
						var ws flat.Write
						k.Stage(next, s, a, &ws)
						k.Commit(next, s, a, &ws)
						if got := next.StateAt(p); got != want {
							t.Fatalf("%s/%s/seed=%d step %d: action %d at %d from %+v committed %+v, core applies %+v", g.Name(), inj.Name, seed, w, a, p, before, got, want)
						}
						for q := 0; q < g.N(); q++ {
							if q != p && next.StateAt(q) != fc.StateAt(q) {
								t.Fatalf("%s/%s/seed=%d step %d: action %d at %d changed processor %d: %+v → %+v", g.Name(), inj.Name, seed, w, a, p, q, fc.StateAt(q), next.StateAt(q))
							}
						}
						checked++
						switch {
						case p == k.Root && a == core.ActionCount && want.Fok && !before.Fok:
							rootFokRaised++
						case a == core.ActionB && want.Msg != before.Msg && p == k.Root:
							rootNewMsg++
						case a == core.ActionB && want.Msg != before.Msg:
							childNewMsg++
						}
					}
					if len(enabled) == 0 {
						break
					}
					p := enabled[rng.Intn(len(enabled))]
					s := fc.Slot(p)
					a := k.EnabledAction(fc, s)
					cfg.States[p] = pr.Apply(cfg, p, int(a))
					var ws flat.Write
					k.Stage(fc, s, a, &ws)
					k.Commit(fc, s, a, &ws)
				}
			}
		}
	}
	t.Logf("%d single moves checked: %d root NewCounts raised Fok, %d root and %d non-root Broadcasts changed the message", checked, rootFokRaised, rootNewMsg, childNewMsg)
	if rootFokRaised == 0 || rootNewMsg == 0 || childNewMsg == 0 {
		t.Fatal("the walks missed a root NewCount raising Fok or a Broadcast changing the message; those writes are untested")
	}
}
