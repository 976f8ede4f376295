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
// on indices: no interface values, no per-state allocation, and neighbor
// scans walk one contiguous int32 slice.
//
// The indices are slots, not processor IDs. On a large network whose IDs
// scatter neighbours across the state (a randomly labelled one), Config
// stores processors in breadth-first order from processor 0, so the few BFS
// layers a synchronous PIF step moves are a few contiguous runs of every
// column; elsewhere a processor's slot is its ID (see layout). The kernel
// surface of export.go takes slots. Every other entry point — the state
// accessors, the conversions, the canonical encoding — takes and reports
// processor IDs, so callers outside the kernels never see a slot.
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

// slotLayoutMinN is the network size from which a Config may store
// processors in BFS slot order. Below it the state of every processor, with
// its CSR adjacency and the event runner's per-processor columns (70 bytes
// each, measured on a 16,000-processor sparse network), fits in a 1–2 MB L2
// cache, so the order of the columns buys nothing and the identity layout
// saves the translation at the boundary.
const slotLayoutMinN = 1 << 14

// layout is a network's slot layout: the order in which a Config stores its
// processors, and the CSR adjacency over that order. Slot s holds processor
// proc[s], and processor p lives at slot slot[p]. The order is breadth-first
// from processor 0 with each processor's neighbours taken in its local order
// ≺_p, so the few BFS layers a synchronous PIF step moves are a few
// contiguous runs of slots. The layout has to pay for the translation
// between slots and processor IDs, so it is the identity — both maps nil —
// below slotLayoutMinN, and wherever the processor IDs already keep
// neighbours at least as close as the BFS order does, measured as the sum
// of |a − b| over the adjacency: a line, a ring or a row-major grid keeps
// its IDs, a randomly labelled network takes the BFS order. A layout is
// immutable and shared by every configuration of its network and by the
// kernel.
type layout struct {
	// CSR adjacency over slots: slot s's neighbours are adj[off[s]:off[s+1]],
	// in the local order ≺_p of the processor at s (ascending processor ID,
	// as in graph.Graph).
	off []int32
	adj []int32

	slot []int32 // processor ID → slot; nil for the identity layout
	proc []int32 // slot → processor ID; nil for the identity layout
}

// newLayout computes g's layout: the CSR adjacency over processor IDs in one
// sequential pass over g, then one breadth-first pass over it from
// processor 0 that assigns the slots and writes the slot adjacency as it
// dequeues them.
func newLayout(g *graph.Graph) layout {
	n := g.N()
	off := make([]int32, n+1)
	for p := 0; p < n; p++ {
		off[p+1] = off[p] + int32(g.Degree(p))
	}
	adj := make([]int32, off[n])
	var idSpan int64
	for p := 0; p < n; p++ {
		for i, q := range g.Neighbors(p) {
			adj[int(off[p])+i] = int32(q)
			idSpan += int64(abs(p - q))
		}
	}
	ids := layout{off: off, adj: adj}
	if n < slotLayoutMinN {
		return ids
	}
	l := layout{off: make([]int32, n+1), adj: make([]int32, len(adj)), slot: make([]int32, n), proc: make([]int32, 1, n)}
	seen := make([]uint64, (n+63)/64)
	seen[0] = 1
	var slotSpan int64
	// Slot s is dequeued at step s, so its adjacency is written in slot
	// order; a neighbour seen for the first time takes the next free slot.
	for s := 0; s < len(l.proc); s++ {
		p := l.proc[s]
		nb := adj[off[p]:off[p+1]]
		base := l.off[s]
		l.off[s+1] = base + int32(len(nb))
		for i, q := range nb {
			if seen[q>>6]&(1<<(q&63)) == 0 {
				seen[q>>6] |= 1 << (q & 63)
				l.slot[q] = int32(len(l.proc))
				l.proc = append(l.proc, q)
			}
			l.adj[int(base)+i] = l.slot[q]
			slotSpan += int64(abs(s - int(l.slot[q])))
		}
	}
	if slotSpan >= idSpan {
		return ids
	}
	return l
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// slotOf returns processor p's slot.
//
//snapvet:hotpath
func (l *layout) slotOf(p int) int {
	if l.slot == nil {
		return p
	}
	return int(l.slot[p])
}

// procOf returns the processor stored at slot s.
//
//snapvet:hotpath
func (l *layout) procOf(s int) int {
	if l.proc == nil {
		return s
	}
	return int(l.proc[s])
}

// parSlot translates a Par value from processor IDs to slots. ParNone, and
// any value that names no processor, is kept as it is, so the accessors
// round-trip every state.
func (l *layout) parSlot(par int) int32 {
	if l.slot != nil && uint(par) < uint(len(l.slot)) {
		return l.slot[par]
	}
	return int32(par)
}

// parProc is parSlot's inverse.
//
//snapvet:hotpath
func (l *layout) parProc(par int32) int {
	if l.proc != nil && uint(par) < uint(len(l.proc)) {
		return int(l.proc[par])
	}
	return int(par)
}

// Config is a global configuration in struct-of-arrays form: one slice per
// core.State field over the network's slot layout, plus the layout itself.
// It is the event engine's counterpart of sim.Configuration. Element s of
// every state slice is the state of the processor at slot s, and Par holds
// slots too. Every method that names a processor takes its processor ID
// (StateAt, SetState, Phase, Msg, Agg), and every encoding (AppendCanonical,
// Fingerprint, ToSim, WriteSim) lists processors in ascending ID, exactly as
// the boxed configuration does; only the kernel surface of export.go speaks
// slots.
type Config struct {
	// G is the network; kept so daemons (which read topology, never states)
	// and conversions can reach it.
	G *graph.Graph

	layout

	// Struct-of-arrays state: element s of every slice is the value of the
	// corresponding core.State field at slot s.
	pif   []uint8
	par   []int32
	level []int32
	count []int32
	fok   []bool
	msg   []uint64
	val   []int64
	agg   []int64
}

// newEmptyConfig allocates the SoA slices for g over layout l without
// initializing state.
func newEmptyConfig(g *graph.Graph, l layout) *Config {
	n := g.N()
	return &Config{
		G:      g,
		layout: l,

		pif:   make([]uint8, n),
		par:   make([]int32, n),
		level: make([]int32, n),
		count: make([]int32, n),
		fok:   make([]bool, n),
		msg:   make([]uint64, n),
		val:   make([]int64, n),
		agg:   make([]int64, n),
	}
}

// checkSize rejects networks beyond the int32 slot domain.
func checkSize(g *graph.Graph) error {
	if int64(g.N()) > math.MaxInt32 {
		return fmt.Errorf("flat: %d processors exceed the int32 index domain", g.N())
	}
	return nil
}

// NewConfig builds the protocol's normal starting configuration (Pif_p = C
// everywhere) on k's network and layout, the flat counterpart of
// sim.NewConfiguration.
func NewConfig(k *Protocol) (*Config, error) {
	c := newEmptyConfig(k.g, k.layout)
	// core.Protocol.InitialState in slot space: clean, counting itself, and
	// pointing at the first neighbour in ≺_p (the first of its slot
	// adjacency) one level below the root.
	for s := range c.pif {
		c.pif[s] = phC
		c.count[s] = 1
		if s == k.root {
			c.par[s] = core.ParNone
		} else {
			c.par[s] = c.adj[c.off[s]]
			c.level[s] = 1
		}
	}
	return c, nil
}

// FromSim converts a boxed configuration (holding *core.State, e.g. one
// corrupted by a fault.Injector) into flat form. The graph is shared; the
// states are copied. The layout is computed from the graph, so it equals
// that of any kernel FromCore builds on the same network.
func FromSim(sc *sim.Configuration) (*Config, error) {
	if err := checkSize(sc.G); err != nil {
		return nil, err
	}
	c := newEmptyConfig(sc.G, newLayout(sc.G))
	return c, c.ReadSim(sc)
}

// ReadSim overwrites c's states with those of a boxed configuration of the
// same length, the inverse of WriteSim. With NewConfig it converts a boxed
// configuration over the layout a kernel already holds, where FromSim
// would compute the layout again.
func (c *Config) ReadSim(sc *sim.Configuration) error {
	if len(sc.States) != c.N() {
		return fmt.Errorf("flat: ReadSim length mismatch: %d vs %d", len(sc.States), c.N())
	}
	for s := 0; s < c.N(); s++ {
		st := core.At(sc, c.procOf(s))
		c.setSlot(s, &st)
	}
	return nil
}

// N returns the number of processors.
func (c *Config) N() int { return len(c.pif) }

// neighbors returns slot s's CSR adjacency slice.
//
//snapvet:hotpath
func (c *Config) neighbors(s int) []int32 { return c.adj[c.off[s]:c.off[s+1]] }

// stateAtSlot gathers the state at slot s, Par translated to a processor ID.
func (c *Config) stateAtSlot(s int) core.State {
	return core.State{
		Pif:   core.Phase(c.pif[s]),
		Par:   c.parProc(c.par[s]),
		L:     int(c.level[s]),
		Count: int(c.count[s]),
		Fok:   c.fok[s],
		Msg:   c.msg[s],
		Val:   c.val[s],
		Agg:   c.agg[s],
	}
}

// setSlot scatters st, whose Par is a processor ID, into slot s.
func (c *Config) setSlot(s int, st *core.State) {
	c.pif[s] = uint8(st.Pif)
	c.par[s] = c.parSlot(st.Par)
	c.level[s] = int32(st.L)
	c.count[s] = int32(st.Count)
	c.fok[s] = st.Fok
	c.msg[s] = st.Msg
	c.val[s] = st.Val
	c.agg[s] = st.Agg
}

// StateAt gathers processor p's state from the field slices.
func (c *Config) StateAt(p int) core.State { return c.stateAtSlot(c.slotOf(p)) }

// SetState scatters s into processor p's slots.
func (c *Config) SetState(p int, s core.State) { c.setSlot(c.slotOf(p), &s) }

// WriteSim scatters the flat states back into a boxed configuration holding
// *core.State boxes of the same length (overwriting the boxes in place).
func (c *Config) WriteSim(sc *sim.Configuration) error {
	if len(sc.States) != c.N() {
		return fmt.Errorf("flat: WriteSim length mismatch: %d vs %d", len(sc.States), c.N())
	}
	for s := 0; s < c.N(); s++ {
		core.Set(sc, c.procOf(s), c.stateAtSlot(s))
	}
	return nil
}

// ToSim materializes a boxed sim.Configuration holding fresh *core.State
// boxes with the flat states' values.
func (c *Config) ToSim() *sim.Configuration {
	states := make([]sim.State, c.N())
	for s := 0; s < c.N(); s++ {
		st := c.stateAtSlot(s)
		states[c.procOf(s)] = &st
	}
	return &sim.Configuration{G: c.G, States: states}
}

// CopyFrom overwrites c's states with src's. Both configurations must be on
// the same graph; the layout is shared, the state slices are copied —
// no allocation, mirroring sim.Configuration.CopyFrom's restore contract.
//
//snapvet:hotpath
func (c *Config) CopyFrom(src *Config) {
	c.G = src.G
	c.layout = src.layout
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
// graph and layout).
func (c *Config) Clone() *Config {
	cp := &Config{
		G:      c.G,
		layout: c.layout,

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
	// Read the columns in slot order and write each processor's entry at
	// its ID's position: the reads stream, only the writes scatter.
	for s := 0; s < n; s++ {
		p := c.procOf(s)
		e := b[off+p*core.CanonicalSize : off+(p+1)*core.CanonicalSize : off+(p+1)*core.CanonicalSize]
		e[0] = c.pif[s]
		binary.LittleEndian.PutUint64(e[1:], uint64(int64(c.parProc(c.par[s]))))
		binary.LittleEndian.PutUint64(e[9:], uint64(int64(c.level[s])))
		binary.LittleEndian.PutUint64(e[17:], uint64(int64(c.count[s])))
		if c.fok[s] {
			e[25] = 1
		} else {
			e[25] = 0
		}
		binary.LittleEndian.PutUint64(e[26:], c.msg[s])
		binary.LittleEndian.PutUint64(e[34:], uint64(c.val[s]))
		binary.LittleEndian.PutUint64(e[42:], uint64(c.agg[s]))
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
