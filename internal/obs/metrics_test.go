package obs_test

import (
	"encoding/json"
	"maps"
	"strings"
	"testing"

	"snappif/internal/core"
	"snappif/internal/graph"
	"snappif/internal/obs"
	"snappif/internal/sim"
	"snappif/internal/telemetry"
)

func TestRegistryBasics(t *testing.T) {
	reg := obs.NewRegistry()
	c := reg.Counter("a.count")
	c.Add(3)
	c.Add(4)
	if c.Value() != 7 {
		t.Fatalf("counter = %d, want 7", c.Value())
	}
	if again := reg.Counter("a.count"); again != c {
		t.Fatal("counter not shared by name")
	}
	g := reg.Gauge("a.gauge")
	g.Set(-2)
	if g.Value() != -2 {
		t.Fatalf("gauge = %d, want -2", g.Value())
	}
	h := reg.Histogram("a.hist")
	for _, v := range []int64{0, 1, 5, 50} {
		h.Observe(v)
	}
	if h.Count() != 4 || h.Max() != 50 || h.Mean() != 14 {
		t.Fatalf("histogram count=%d max=%d mean=%v", h.Count(), h.Max(), h.Mean())
	}

	var b strings.Builder
	if err := reg.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var decoded map[string]json.RawMessage
	if err := json.Unmarshal([]byte(b.String()), &decoded); err != nil {
		t.Fatalf("registry JSON invalid: %v\n%s", err, b.String())
	}
	if len(decoded) != 3 {
		t.Fatalf("registry exports %d vars, want 3", len(decoded))
	}
	var hist struct {
		Count   int64            `json:"count"`
		Buckets map[string]int64 `json:"buckets"`
	}
	if err := json.Unmarshal(decoded["a.hist"], &hist); err != nil {
		t.Fatal(err)
	}
	// Log₂ buckets keyed by inclusive upper edge: 0 → le_0, 1 → le_1,
	// 5 ∈ [4,7] → le_7, 50 ∈ [32,63] → le_63; empty buckets are omitted.
	want := map[string]int64{"le_0": 1, "le_1": 1, "le_7": 1, "le_63": 1}
	if hist.Count != 4 || !maps.Equal(hist.Buckets, want) {
		t.Fatalf("histogram export wrong: %+v, want buckets %v", hist, want)
	}
}

// TestRegistryPublishRepoints asserts that publishing a second registry
// under the same expvar name re-points the export instead of panicking
// (expvar forbids duplicate Publish calls).
func TestRegistryPublishRepoints(t *testing.T) {
	r1 := obs.NewRegistry()
	r1.Counter("x").Add(1)
	r1.Publish("test.obs.repoint")
	r2 := obs.NewRegistry()
	r2.Counter("x").Add(42)
	r2.Publish("test.obs.repoint") // must not panic
}

func TestTypeCollisionPanics(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("dual")
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on metric type collision")
		}
	}()
	reg.Gauge("dual")
}

// TestSimMetricsMatchesRun feeds a run through the sim engine's metrics
// adapter, telemetry.Observer, into a registry via PublishTo and
// cross-checks the registry's counters against the run result, its census
// gauges against the final configuration, and its wave histogram against
// the wave counter.
func TestSimMetricsMatchesRun(t *testing.T) {
	g, err := graph.Ring(12)
	if err != nil {
		t.Fatal(err)
	}
	pr := core.MustNew(g, 0)
	cfg := sim.NewConfiguration(g, pr)
	reg := obs.NewRegistry()
	tel := telemetry.New(telemetry.Config{})
	tel.PublishTo(reg)
	o := &telemetry.Observer{T: tel, Proto: pr}
	o.Begin(telemetry.RunMeta{G: g}, cfg)
	res, err := sim.Run(cfg, pr, sim.Synchronous{}, sim.Options{
		Seed:      1,
		Observers: []sim.Observer{o},
		StopWhen:  func(rs *sim.RunState) bool { return rs.Rounds >= 60 },
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("telemetry.steps").Value(); got != int64(res.Steps) {
		t.Fatalf("telemetry.steps = %d, run steps %d", got, res.Steps)
	}
	if got := reg.Counter("telemetry.moves").Value(); got != int64(res.Moves) {
		t.Fatalf("telemetry.moves = %d, run moves %d", got, res.Moves)
	}
	census := make(map[core.Phase]int64)
	for p := 0; p < g.N(); p++ {
		census[core.At(cfg, p).Pif]++
	}
	for _, c := range []struct {
		name string
		ph   core.Phase
	}{{"telemetry.census_b", core.B}, {"telemetry.census_f", core.F}, {"telemetry.census_c", core.C}} {
		if got := reg.Gauge(c.name).Value(); got != census[c.ph] {
			t.Fatalf("%s = %d, final configuration has %d", c.name, got, census[c.ph])
		}
	}
	// 60 rounds of a synchronous ring-12 span multiple full cycles.
	waves := reg.Counter("telemetry.waves").Value()
	if got := reg.Histogram("telemetry.wave_rounds").Count(); got != waves || waves < 2 {
		t.Fatalf("telemetry.wave_rounds has %d observations for %d waves, want ≥ 2", got, waves)
	}
}

// TestRegistryWriteJSONByteStable pins the export's byte-level
// determinism: WriteJSON output depends only on the metrics' names and
// values, never on registration order.
func TestRegistryWriteJSONByteStable(t *testing.T) {
	render := func(order []string) string {
		reg := obs.NewRegistry()
		for _, name := range order {
			reg.Counter(name).Add(int64(len(name)))
		}
		reg.Histogram("h").Observe(5)
		var b strings.Builder
		if err := reg.WriteJSON(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	a := render([]string{"sim.steps", "exp.cells", "sim.moves.B-action"})
	b := render([]string{"sim.moves.B-action", "sim.steps", "exp.cells"})
	if a != b {
		t.Fatalf("registration order leaked into the export:\n%s\nvs\n%s", a, b)
	}
	if !strings.Contains(a, `"exp.cells":9`) {
		t.Fatalf("unexpected export: %s", a)
	}
}
