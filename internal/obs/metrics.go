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

// Add moves the gauge by n (negative n lowers it).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

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

// Histogram returns the named log₂-bucketed histogram, creating it on
// first use.
func (r *Registry) Histogram(name string) *LogHist {
	v := r.lookup(name, func() expvar.Var { return new(LogHist) })
	h, ok := v.(*LogHist)
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
// name. It is the bridge for metrics another package owns — the telemetry
// package's embedded counters, gauges and histograms, and its series ring
// — into a registry's sorted JSON export and Publish surface.
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
