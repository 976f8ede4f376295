package flat_test

import (
	"bytes"
	"math/rand"
	"testing"

	"snappif/internal/core"
	"snappif/internal/fault"
	"snappif/internal/flat"
	"snappif/internal/graph"
	"snappif/internal/sim"
)

// layoutNetwork is a random-label sparse network large enough that
// flat.Config stores it in BFS slot order, with a protocol rooted at a
// processor other than 0 whose slot is not its ID.
func layoutNetwork(tb testing.TB) (*graph.Graph, *core.Protocol, *flat.Protocol) {
	tb.Helper()
	g, err := graph.RandomSparse(20_000, 5_000, rand.New(rand.NewSource(31)))
	if err != nil {
		tb.Fatal(err)
	}
	k0, err := flat.FromCore(core.MustNew(g, 0))
	if err != nil {
		tb.Fatal(err)
	}
	c0, err := flat.NewConfig(k0)
	if err != nil {
		tb.Fatal(err)
	}
	root := g.N() / 2
	for c0.Slot(root) == root {
		root++
	}
	pr, err := core.New(g, root)
	if err != nil {
		tb.Fatal(err)
	}
	k, err := flat.FromCore(pr)
	if err != nil {
		tb.Fatal(err)
	}
	return g, pr, k
}

// TestSlotLayout pins the slot layout of a network above the size from
// which flat.Config stops storing processors by ID: the slots are a
// bijection onto the processors in breadth-first order from processor 0
// with each processor's neighbours taken in ≺_p order, and each slot's CSR
// adjacency lists its processor's neighbours in ≺_p order. A network below
// that size keeps the identity layout, and so does one whose IDs already
// keep neighbours as close as the BFS order would: a line, a ring, a
// row-major grid.
func TestSlotLayout(t *testing.T) {
	g, _, k := layoutNetwork(t)
	c, err := flat.NewConfig(k)
	if err != nil {
		t.Fatal(err)
	}
	if c.Identity() {
		t.Fatalf("%s has the identity layout: the test no longer crosses the translation", g.Name())
	}
	n := g.N()
	order := []int{0}
	seen := make([]bool, n)
	seen[0] = true
	for i := 0; i < len(order); i++ {
		for _, q := range g.Neighbors(order[i]) {
			if !seen[q] {
				seen[q] = true
				order = append(order, q)
			}
		}
	}
	if len(order) != n {
		t.Fatalf("BFS reached %d of %d processors", len(order), n)
	}
	moved := 0
	for s, p := range order {
		if got := c.Proc(s); got != p {
			t.Fatalf("slot %d holds processor %d, BFS order has %d", s, got, p)
		}
		if got := c.Slot(p); got != s {
			t.Fatalf("processor %d is at slot %d, BFS order has %d", p, got, s)
		}
		if s != p {
			moved++
		}
	}
	t.Logf("%d of %d processors stored away from their ID", moved, n)
	for p := 0; p < n; p++ {
		nb := c.Neighbors(c.Slot(p))
		want := g.Neighbors(p)
		if len(nb) != len(want) {
			t.Fatalf("processor %d: %d slot neighbours, %d in the graph", p, len(nb), len(want))
		}
		for i, s := range nb {
			if c.Proc(int(s)) != want[i] {
				t.Fatalf("processor %d: neighbour %d is processor %d, ≺_p order has %d", p, i, c.Proc(int(s)), want[i])
			}
		}
	}

	// Small networks keep their IDs, and so do large ones whose IDs already
	// keep neighbours as close as the BFS order would.
	for _, mk := range []func() (*graph.Graph, error){
		func() (*graph.Graph, error) { return graph.Grid(8, 8) },
		func() (*graph.Graph, error) { return graph.RandomSparse(1000, 250, rand.New(rand.NewSource(1))) },
		func() (*graph.Graph, error) { return graph.Line(20_000) },
		func() (*graph.Graph, error) { return graph.Ring(20_000) },
		func() (*graph.Graph, error) { return graph.Grid(150, 150) },
	} {
		h, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		kh, err := flat.FromCore(core.MustNew(h, 0))
		if err != nil {
			t.Fatal(err)
		}
		ch, err := flat.NewConfig(kh)
		if err != nil {
			t.Fatal(err)
		}
		if !ch.Identity() {
			t.Fatalf("%s left the identity layout", h.Name())
		}
		for p := 0; p < h.N(); p++ {
			if ch.Slot(p) != p || ch.Proc(p) != p {
				t.Fatalf("%s: identity layout maps processor %d to slot %d", h.Name(), p, ch.Slot(p))
			}
		}
	}
}

// TestSlotLayoutAccessorsRoundTrip checks every processor-ID entry point of
// Config against the boxed configuration on a network whose layout is not
// the identity: NewConfig, FromSim, ReadSim, StateAt, SetState, Phase, Msg,
// Agg, AppendCanonical, Fingerprint, ToSim, WriteSim, Clone and CopyFrom.
// Par is the field the translation rewrites, and the corrupted start points
// every non-root processor at a random neighbour.
func TestSlotLayoutAccessorsRoundTrip(t *testing.T) {
	g, pr, k := layoutNetwork(t)
	n := g.N()
	same := func(what string, c *flat.Config, sc *sim.Configuration) {
		t.Helper()
		for p := 0; p < n; p++ {
			want := core.At(sc, p)
			if got := c.StateAt(p); got != want {
				t.Fatalf("%s: processor %d is %+v, want %+v", what, p, got, want)
			}
			if c.Phase(p) != want.Pif || c.Msg(p) != want.Msg || c.Agg(p) != want.Agg {
				t.Fatalf("%s: processor %d reads Pif %v Msg %d Agg %d, want %+v", what, p, c.Phase(p), c.Msg(p), c.Agg(p), want)
			}
		}
	}

	fresh, err := flat.NewConfig(k)
	if err != nil {
		t.Fatal(err)
	}
	same("NewConfig", fresh, sim.NewConfiguration(g, pr))

	corrupt := func(seed int64) *sim.Configuration {
		sc := sim.NewConfiguration(g, pr)
		rng := rand.New(rand.NewSource(seed))
		fault.UniformRandom().Apply(sc, pr, rng)
		for p := 0; p < n; p++ {
			s := core.At(sc, p)
			s.Val, s.Agg = rng.Int63(), rng.Int63()
			core.Set(sc, p, s)
		}
		return sc
	}
	sc := corrupt(5)
	c, err := flat.FromSim(sc)
	if err != nil {
		t.Fatal(err)
	}
	same("FromSim", c, sc)
	if err := fresh.ReadSim(sc); err != nil {
		t.Fatal(err)
	}
	same("ReadSim", fresh, sc)

	want, err := sc.AppendCanonical(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.AppendCanonical([]byte("prefix")); !bytes.Equal(got[len("prefix"):], want) {
		t.Fatal("AppendCanonical differs from the boxed configuration's encoding")
	}
	wantFP, err := sc.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Fingerprint(); got != wantFP {
		t.Fatalf("Fingerprint %x, boxed configuration %x", got, wantFP)
	}
	same("ToSim", c, c.ToSim())
	dst := sim.NewConfiguration(g, pr)
	if err := c.WriteSim(dst); err != nil {
		t.Fatal(err)
	}
	same("WriteSim", c, dst)

	snap := c.Clone()
	other := corrupt(6)
	for p := 0; p < n; p++ {
		c.SetState(p, core.At(other, p))
	}
	same("SetState", c, other)
	same("Clone", snap, sc)
	c.CopyFrom(snap)
	same("CopyFrom", c, sc)
}
