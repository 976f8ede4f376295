// Package flat is the large-N state and kernels for the paper's PIF
// protocol: the same algorithm as internal/sim, specialized to
// struct-of-arrays state so that simulating 10⁵–10⁶-processor networks is
// bounded by memory bandwidth instead of pointer chasing.
//
// The sim engine stores a configuration as []sim.State — one
// heap-allocated, interface-boxed *core.State per processor — and evaluates
// guards through two dynamic dispatches per processor (Protocol.Enabled,
// then the type assertion inside every state read). Config instead holds
// each core.State field as a plain slice (phase, parent, level, count, Fok,
// payload registers) over a CSR-flattened adjacency, and Protocol
// re-implements the guard and action kernels of Algorithms 1 and 2 directly
// on processor indices: no interface values, no per-state allocation, and
// neighbor scans walk one contiguous int32 slice.
//
// The package holds the state and the single-step semantics only: Config,
// the guard and action kernels, and CensusDeltas. Stepping lives in
// internal/event, whose Runner drives these kernels either under an
// external sim.Daemon (reproducing sim.Runner bit for bit) or from its own
// virtual-time wake queue; the engine name "event" selects that runner in
// either mode.
//
// See DESIGN.md §9 for the memory layout.
package flat

import (
	"encoding/binary"
	"fmt"
	"math"

	"snappif/internal/core"
	"snappif/internal/graph"
	"snappif/internal/sim"
)

// Config is a global configuration in struct-of-arrays form: the CSR
// adjacency of the network plus one slice per core.State field, indexed by
// processor ID. It is the event engine's counterpart of sim.Configuration.
type Config struct {
	// G is the network; kept so daemons (which read topology, never states)
	// and conversions can reach it.
	G *graph.Graph

	// CSR adjacency: processor p's neighbors are adj[off[p]:off[p+1]], in
	// p's local order ≺_p (ascending ID, as in graph.Graph). Shared between
	// configurations of the same graph — the slices are immutable.
	off []int32
	adj []int32

	// Struct-of-arrays state: element p of every slice is processor p's
	// value of the corresponding core.State field.
	pif   []uint8
	par   []int32
	level []int32
	count []int32
	fok   []bool
	msg   []uint64
	val   []int64
	agg   []int64
}

// buildCSR flattens g's adjacency lists into one offsets + neighbors pair.
func buildCSR(g *graph.Graph) (off, adj []int32) {
	n := g.N()
	off = make([]int32, n+1)
	total := 0
	for p := 0; p < n; p++ {
		total += g.Degree(p)
		off[p+1] = int32(total)
	}
	adj = make([]int32, total)
	i := 0
	for p := 0; p < n; p++ {
		for _, q := range g.Neighbors(p) {
			adj[i] = int32(q)
			i++
		}
	}
	return off, adj
}

// newEmptyConfig allocates the SoA slices for g without initializing state.
func newEmptyConfig(g *graph.Graph) (*Config, error) {
	if int64(g.N()) > math.MaxInt32 {
		return nil, fmt.Errorf("flat: %d processors exceed the int32 index domain", g.N())
	}
	n := g.N()
	off, adj := buildCSR(g)
	return &Config{
		G:   g,
		off: off,
		adj: adj,

		pif:   make([]uint8, n),
		par:   make([]int32, n),
		level: make([]int32, n),
		count: make([]int32, n),
		fok:   make([]bool, n),
		msg:   make([]uint64, n),
		val:   make([]int64, n),
		agg:   make([]int64, n),
	}, nil
}

// NewConfig builds the protocol's normal starting configuration (Pif_p = C
// everywhere) on k's network, the flat counterpart of
// sim.NewConfiguration.
func NewConfig(k *Protocol) (*Config, error) {
	c, err := newEmptyConfig(k.g)
	if err != nil {
		return nil, err
	}
	for p := 0; p < c.N(); p++ {
		c.SetState(p, k.initialState(p))
	}
	return c, nil
}

// FromSim converts a boxed configuration (holding *core.State, e.g. one
// corrupted by a fault.Injector) into flat form. The graph is shared; the
// states are copied.
func FromSim(sc *sim.Configuration) (*Config, error) {
	c, err := newEmptyConfig(sc.G)
	if err != nil {
		return nil, err
	}
	for p := 0; p < c.N(); p++ {
		c.SetState(p, core.At(sc, p))
	}
	return c, nil
}

// N returns the number of processors.
func (c *Config) N() int { return len(c.pif) }

// neighbors returns p's CSR adjacency slice.
//
//snapvet:hotpath
func (c *Config) neighbors(p int) []int32 { return c.adj[c.off[p]:c.off[p+1]] }

// StateAt gathers processor p's state from the field slices.
func (c *Config) StateAt(p int) core.State {
	return core.State{
		Pif:   core.Phase(c.pif[p]),
		Par:   int(c.par[p]),
		L:     int(c.level[p]),
		Count: int(c.count[p]),
		Fok:   c.fok[p],
		Msg:   c.msg[p],
		Val:   c.val[p],
		Agg:   c.agg[p],
	}
}

// SetState scatters s into processor p's slots.
func (c *Config) SetState(p int, s core.State) {
	c.pif[p] = uint8(s.Pif)
	c.par[p] = int32(s.Par)
	c.level[p] = int32(s.L)
	c.count[p] = int32(s.Count)
	c.fok[p] = s.Fok
	c.msg[p] = s.Msg
	c.val[p] = s.Val
	c.agg[p] = s.Agg
}

// setStateHot is SetState without the exported-API surface, annotated for
// the hot-path allocation analyzer (the commit loop calls it per selected
// processor).
//
//snapvet:hotpath
func (c *Config) setStateHot(p int32, s *core.State) {
	c.pif[p] = uint8(s.Pif)
	c.par[p] = int32(s.Par)
	c.level[p] = int32(s.L)
	c.count[p] = int32(s.Count)
	c.fok[p] = s.Fok
	c.msg[p] = s.Msg
	c.val[p] = s.Val
	c.agg[p] = s.Agg
}

// WriteSim scatters the flat states back into a boxed configuration holding
// *core.State boxes of the same length (overwriting the boxes in place).
func (c *Config) WriteSim(sc *sim.Configuration) error {
	if len(sc.States) != c.N() {
		return fmt.Errorf("flat: WriteSim length mismatch: %d vs %d", len(sc.States), c.N())
	}
	for p := 0; p < c.N(); p++ {
		core.Set(sc, p, c.StateAt(p))
	}
	return nil
}

// ToSim materializes a boxed sim.Configuration holding fresh *core.State
// boxes with the flat states' values.
func (c *Config) ToSim() *sim.Configuration {
	states := make([]sim.State, c.N())
	for p := 0; p < c.N(); p++ {
		s := c.StateAt(p)
		states[p] = &s
	}
	return &sim.Configuration{G: c.G, States: states}
}

// CopyFrom overwrites c's states with src's. Both configurations must be on
// the same graph; the CSR slices are shared, the state slices are copied —
// no allocation, mirroring sim.Configuration.CopyFrom's restore contract.
//
//snapvet:hotpath
func (c *Config) CopyFrom(src *Config) {
	c.G = src.G
	c.off, c.adj = src.off, src.adj
	copy(c.pif, src.pif)
	copy(c.par, src.par)
	copy(c.level, src.level)
	copy(c.count, src.count)
	copy(c.fok, src.fok)
	copy(c.msg, src.msg)
	copy(c.val, src.val)
	copy(c.agg, src.agg)
}

// Clone returns a deep copy of the configuration (sharing the immutable
// graph and CSR).
func (c *Config) Clone() *Config {
	cp := &Config{
		G:   c.G,
		off: c.off,
		adj: c.adj,

		pif:   append([]uint8(nil), c.pif...),
		par:   append([]int32(nil), c.par...),
		level: append([]int32(nil), c.level...),
		count: append([]int32(nil), c.count...),
		fok:   append([]bool(nil), c.fok...),
		msg:   append([]uint64(nil), c.msg...),
		val:   append([]int64(nil), c.val...),
		agg:   append([]int64(nil), c.agg...),
	}
	return cp
}

// AppendCanonical appends the canonical encoding of every processor state in
// ascending processor order — byte-identical to the boxed path
// (sim.Configuration.AppendCanonical over *core.State boxes), which the
// cross-engine differential tests rely on to compare configurations across
// layouts. The buffer is grown once and the fields encoded straight from the
// columns: the telemetry flight recorder calls this on every checkpoint, so
// at large N the gather-into-core.State path would dominate the recorder's
// overhead budget.
func (c *Config) AppendCanonical(b []byte) []byte {
	n := c.N()
	off := len(b)
	need := n * core.CanonicalSize
	if cap(b)-off < need {
		nb := make([]byte, off, off+need)
		copy(nb, b)
		b = nb
	}
	b = b[:off+need]
	for p := 0; p < n; p++ {
		e := b[off+p*core.CanonicalSize : off+(p+1)*core.CanonicalSize : off+(p+1)*core.CanonicalSize]
		e[0] = c.pif[p]
		binary.LittleEndian.PutUint64(e[1:], uint64(int64(c.par[p])))
		binary.LittleEndian.PutUint64(e[9:], uint64(int64(c.level[p])))
		binary.LittleEndian.PutUint64(e[17:], uint64(int64(c.count[p])))
		if c.fok[p] {
			e[25] = 1
		} else {
			e[25] = 0
		}
		binary.LittleEndian.PutUint64(e[26:], c.msg[p])
		binary.LittleEndian.PutUint64(e[34:], uint64(c.val[p]))
		binary.LittleEndian.PutUint64(e[42:], uint64(c.agg[p]))
	}
	return b
}

// Census counts processors by phase in one pass over the phase column,
// allocation-free. The telemetry layer reads it once per run to seed its
// incremental phase census (per-step upkeep then rides on commit deltas).
func (c *Config) Census() (b, f, cl int) {
	for _, ph := range c.pif {
		switch core.Phase(ph) {
		case core.B:
			b++
		case core.F:
			f++
		default:
			cl++
		}
	}
	return b, f, cl
}

// Fingerprint returns the FNV-1a 64-bit hash of the configuration's
// canonical encoding, equal to the boxed configuration's
// sim.Configuration.Fingerprint for equal states.
func (c *Config) Fingerprint() uint64 {
	var buf [64]byte
	h := sim.FNVOffset
	for p := 0; p < c.N(); p++ {
		s := c.StateAt(p)
		h = sim.FNV1a(h, s.AppendCanonical(buf[:0]))
	}
	return h
}
