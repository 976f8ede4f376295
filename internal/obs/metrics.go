package obs

import (
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"snappif/internal/check"
	"snappif/internal/core"
	"snappif/internal/sim"
)

// Counter is a monotonically increasing metric.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// String implements expvar.Var.
func (c *Counter) String() string { return strconv.FormatInt(c.v.Load(), 10) }

// Gauge is a metric that can go up and down.
type Gauge struct{ v atomic.Int64 }

// Set replaces the gauge value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// String implements expvar.Var.
func (g *Gauge) String() string { return strconv.FormatInt(g.v.Load(), 10) }

// Text is a string-valued metric: run metadata (engine name, topology,
// build info) stamped onto an expvar page so scripted scrapes can tell
// runs apart. Safe for concurrent use.
type Text struct {
	mu sync.Mutex
	s  string
}

// Set replaces the value.
func (t *Text) Set(s string) {
	t.mu.Lock()
	t.s = s
	t.mu.Unlock()
}

// Value returns the current value.
func (t *Text) Value() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.s
}

// String implements expvar.Var: the JSON-quoted value.
func (t *Text) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(t.s)
	if err != nil {
		// Marshal cannot fail on a string.
		panic(fmt.Sprintf("obs: text marshal: %v", err))
	}
	return string(b)
}

// Histogram counts observations into fixed upper-bound buckets (the last
// bucket is unbounded). All methods are safe for concurrent use.
type Histogram struct {
	bounds []int64

	mu      sync.Mutex
	buckets []int64
	count   int64
	sum     int64
	max     int64
}

// NewHistogram builds a histogram with the given ascending inclusive upper
// bounds; an implicit +Inf bucket is appended.
func NewHistogram(bounds ...int64) *Histogram {
	return &Histogram{bounds: bounds, buckets: make([]int64, len(bounds)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	i := sort.Search(len(h.bounds), func(i int) bool { return v <= h.bounds[i] })
	h.buckets[i]++
	h.count++
	h.sum += v
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Mean returns the mean observation (0 when empty).
func (h *Histogram) Mean() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Max returns the largest observation.
func (h *Histogram) Max() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.max
}

// String implements expvar.Var: a JSON object with count/sum/max and the
// per-bucket counts keyed by upper bound.
func (h *Histogram) String() string {
	h.mu.Lock()
	defer h.mu.Unlock()
	var b strings.Builder
	fmt.Fprintf(&b, `{"count":%d,"sum":%d,"max":%d,"buckets":{`, h.count, h.sum, h.max)
	for i, n := range h.buckets {
		if i > 0 {
			b.WriteByte(',')
		}
		if i < len(h.bounds) {
			fmt.Fprintf(&b, `"le_%d":%d`, h.bounds[i], n)
		} else {
			fmt.Fprintf(&b, `"inf":%d`, n)
		}
	}
	b.WriteString("}}")
	return b.String()
}

// Registry is a named collection of metrics, exportable as one expvar
// variable and as a JSON document. The zero value is not usable; call
// NewRegistry.
type Registry struct {
	mu    sync.Mutex
	names []string
	vars  map[string]expvar.Var
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{vars: make(map[string]expvar.Var)}
}

// lookup returns the named var, creating it with mk on first use. A name
// collision across metric types panics — it is a programming error.
func (r *Registry) lookup(name string, mk func() expvar.Var) expvar.Var {
	r.mu.Lock()
	defer r.mu.Unlock()
	if v, ok := r.vars[name]; ok {
		return v
	}
	v := mk()
	r.vars[name] = v
	r.names = append(r.names, name)
	sort.Strings(r.names)
	return v
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	v := r.lookup(name, func() expvar.Var { return new(Counter) })
	c, ok := v.(*Counter)
	if !ok {
		panic(fmt.Sprintf("obs: metric %q already registered as %T", name, v))
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	v := r.lookup(name, func() expvar.Var { return new(Gauge) })
	g, ok := v.(*Gauge)
	if !ok {
		panic(fmt.Sprintf("obs: metric %q already registered as %T", name, v))
	}
	return g
}

// Histogram returns the named histogram, creating it with the given bounds
// on first use (later calls ignore bounds).
func (r *Registry) Histogram(name string, bounds ...int64) *Histogram {
	v := r.lookup(name, func() expvar.Var { return NewHistogram(bounds...) })
	h, ok := v.(*Histogram)
	if !ok {
		panic(fmt.Sprintf("obs: metric %q already registered as %T", name, v))
	}
	return h
}

// Text returns the named text metric, creating it on first use.
func (r *Registry) Text(name string) *Text {
	v := r.lookup(name, func() expvar.Var { return new(Text) })
	t, ok := v.(*Text)
	if !ok {
		panic(fmt.Sprintf("obs: metric %q already registered as %T", name, v))
	}
	return t
}

// Register installs v under name, replacing any existing metric of that
// name. It is the bridge for externally owned expvar vars — the telemetry
// package's counters, log-bucketed histograms, and series rings —
// into a registry's sorted JSON export and Publish surface.
func (r *Registry) Register(name string, v expvar.Var) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.vars[name]; !ok {
		r.names = append(r.names, name)
		sort.Strings(r.names)
	}
	r.vars[name] = v
}

// WriteJSON renders every metric as one JSON object, keys sorted.
func (r *Registry) WriteJSON(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	var b strings.Builder
	b.WriteByte('{')
	for i, name := range r.names {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%q:%s", name, r.vars[name].String())
	}
	b.WriteString("}\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// published maps expvar names to re-pointable registry holders: expvar
// forbids re-publishing a name, but tests and repeated runs build fresh
// registries, so the expvar.Func indirects through a swappable pointer.
var published sync.Map // string -> *atomic.Pointer[Registry]

// Publish exposes the registry under the given expvar name (visible on
// /debug/vars of any HTTP server with expvar wired). Publishing another
// registry under the same name re-points the export to it.
func (r *Registry) Publish(name string) {
	holder, loaded := published.LoadOrStore(name, new(atomic.Pointer[Registry]))
	ptr := holder.(*atomic.Pointer[Registry])
	ptr.Store(r)
	if !loaded {
		expvar.Publish(name, expvar.Func(func() any {
			reg := ptr.Load()
			if reg == nil {
				return nil
			}
			reg.mu.Lock()
			defer reg.mu.Unlock()
			out := make(map[string]string, len(reg.names))
			for _, n := range reg.names {
				out[n] = reg.vars[n].String()
			}
			return out
		}))
	}
}

// SimMetrics is a sim.Observer that feeds a Registry from a simulation run:
//
//	sim.steps                counter  committed computation steps
//	sim.moves                counter  action executions
//	sim.moves.<action>       counter  executions per action label
//	sim.step_selected        histogram selected-set size per step
//	sim.step_enabled         histogram enabled-set size per step
//	sim.rounds               counter  completed rounds
//	sim.abnormal_procs       gauge    abnormal processors (sampled per round)
//	sim.rounds_per_cycle     histogram full root-to-root cycle lengths
//
// The protocol-aware metrics (abnormal count, cycle lengths) need the
// optional protocol; without it they stay silent.
type SimMetrics struct {
	proto *core.Protocol

	steps    *Counter
	moves    *Counter
	perAct   []*Counter
	names    []string
	selected *Histogram
	enabled  *Histogram
	rounds   *Counter
	abnormal *Gauge
	cycleLen *Histogram

	cycleStartRound int
	inCycle         bool
	prevRootPhase   core.Phase
	lastRound       int
}

var (
	_ sim.Observer        = (*SimMetrics)(nil)
	_ sim.RoundObserver   = (*SimMetrics)(nil)
	_ sim.EnabledObserver = (*SimMetrics)(nil)
)

// NewSimMetrics builds a SimMetrics feeding reg. pr may be nil.
func NewSimMetrics(reg *Registry, pr *core.Protocol) *SimMetrics {
	m := &SimMetrics{
		proto:    pr,
		steps:    reg.Counter("sim.steps"),
		moves:    reg.Counter("sim.moves"),
		selected: reg.Histogram("sim.step_selected", 1, 2, 4, 8, 16, 32, 64, 128),
		enabled:  reg.Histogram("sim.step_enabled", 1, 2, 4, 8, 16, 32, 64, 128),
		rounds:   reg.Counter("sim.rounds"),
	}
	if pr != nil {
		m.names = pr.ActionNames()
		m.perAct = make([]*Counter, len(m.names))
		for i, name := range m.names {
			m.perAct[i] = reg.Counter("sim.moves." + name)
		}
		m.abnormal = reg.Gauge("sim.abnormal_procs")
		m.cycleLen = reg.Histogram("sim.rounds_per_cycle", 5, 10, 25, 50, 100, 250)
		m.prevRootPhase = core.C
	}
	return m
}

// OnStep implements sim.Observer.
func (m *SimMetrics) OnStep(step int, executed []sim.Choice, c *sim.Configuration) {
	m.steps.Add(1)
	m.moves.Add(int64(len(executed)))
	m.selected.Observe(int64(len(executed)))
	if m.proto == nil {
		return
	}
	for _, ch := range executed {
		m.perAct[ch.Action].Add(1)
	}
	root := m.proto.Root
	phase := core.At(c, root).Pif
	if phase != m.prevRootPhase {
		switch {
		case phase == core.B && m.prevRootPhase == core.C:
			m.inCycle = true
			m.cycleStartRound = m.lastRound + 1
		case phase == core.C && m.inCycle:
			m.inCycle = false
			m.cycleLen.Observe(int64(m.lastRound + 1 - m.cycleStartRound + 1))
		}
		m.prevRootPhase = phase
	}
}

// OnRound implements sim.RoundObserver.
func (m *SimMetrics) OnRound(round int, c *sim.Configuration) {
	m.rounds.Add(1)
	m.lastRound = round
	if m.abnormal != nil {
		m.abnormal.Set(int64(len(check.Abnormal(c, m.proto))))
	}
}

// OnEnabled implements sim.EnabledObserver.
func (m *SimMetrics) OnEnabled(step, enabled int) {
	m.enabled.Observe(int64(enabled))
}
