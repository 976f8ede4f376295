package service

import (
	"encoding/json"
	"testing"

	"snappif/internal/graph"
	"snappif/internal/telemetry"
)

// TestPlanCapacity runs the binary search on a small ring and checks the
// answer is a real operating point: meets the SLO, beats the bracket floor,
// and is reproducible.
func TestPlanCapacity(t *testing.T) {
	g, err := graph.Parse("ring:16")
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Graph: g, Engine: "flat", Initiators: []int{0, 8}, Seed: 3}
	w := Workload{Process: "poisson", Requests: 40, Lanes: 2, Seed: 3}
	slo := SLO{P99Ticks: 400}

	res, err := PlanCapacity(opts, w, slo, 0.5, 200, 8)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sustainable <= 0.5 {
		t.Fatalf("sustainable rate %g did not move off the bracket floor", res.Sustainable)
	}
	if res.P99Ticks <= 0 || res.P99Ticks > slo.P99Ticks {
		t.Fatalf("reported p99 %d violates the SLO %d", res.P99Ticks, slo.P99Ticks)
	}
	if res.WavesPerKTick <= 0 {
		t.Fatalf("throughput %g at the sustainable rate", res.WavesPerKTick)
	}
	if len(res.Probes) != 9 { // anchor + iters
		t.Fatalf("%d probes, want 9", len(res.Probes))
	}

	res2, err := PlanCapacity(opts, w, slo, 0.5, 200, 8)
	if err != nil {
		t.Fatal(err)
	}
	b1, _ := json.Marshal(res)
	b2, _ := json.Marshal(res2)
	if string(b1) != string(b2) {
		t.Fatal("capacity search not deterministic")
	}
}

// TestPlanCapacityInfeasible: an SLO tighter than a single unloaded wave's
// latency is unsustainable at any rate — the search answers 0.
func TestPlanCapacityInfeasible(t *testing.T) {
	g, err := graph.Parse("ring:16")
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Graph: g, Engine: "flat", Seed: 1}
	w := Workload{Requests: 10, Seed: 1}
	res, err := PlanCapacity(opts, w, SLO{P99Ticks: 2}, 1, 100, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sustainable != 0 {
		t.Fatalf("sustainable %g under an impossible SLO", res.Sustainable)
	}
	if len(res.Probes) != 1 {
		t.Fatalf("%d probes after a failed anchor, want 1", len(res.Probes))
	}
}

// TestPlanCapacityValidation pins the argument checks.
func TestPlanCapacityValidation(t *testing.T) {
	g, _ := graph.Parse("line:4")
	opts := Options{Graph: g, Engine: "sim"}
	w := Workload{Requests: 5}
	if _, err := PlanCapacity(opts, w, SLO{}, 1, 10, 4); err == nil {
		t.Error("zero SLO accepted")
	}
	if _, err := PlanCapacity(opts, w, SLO{P99Ticks: 100}, 10, 1, 4); err == nil {
		t.Error("inverted bracket accepted")
	}
	if _, err := PlanCapacity(opts, w, SLO{P99Ticks: 100}, 0, 10, 4); err == nil {
		t.Error("zero floor accepted")
	}
	bad := Options{Graph: g, Engine: "warp"}
	if _, err := PlanCapacity(bad, w, SLO{P99Ticks: 100}, 1, 10, 4); err == nil {
		t.Error("invalid server options accepted")
	}
}

// TestReportJSONSummary covers the CLI summary path, including wall-clock
// percentiles under an injected clock: they are exact over the waves'
// wall latencies, like the tick percentiles beside them. The clock's
// growing increments spread the latencies over several log₂ buckets, so a
// bucket estimate of the median would miss the exact value.
func TestReportJSONSummary(t *testing.T) {
	g, err := graph.Parse("line:6")
	if err != nil {
		t.Fatal(err)
	}
	var fake, reads int64
	clock := func() int64 { reads++; fake += 100 * reads * reads; return fake }
	srv, err := New(Options{Graph: g, Engine: "sim", Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := srv.Run([]Arrival{
		{T: 1, Lane: 0, Kind: "snapshot"},
		{T: 2, Lane: 0, Kind: "barrier"},
		{T: 3, Lane: 0, Kind: "snapshot"},
		{T: 9, Lane: 0, Kind: "barrier"},
		{T: 40, Lane: 0, Kind: "snapshot"},
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err := rep.MarshalJSONSummary()
	if err != nil {
		t.Fatal(err)
	}
	var s struct {
		Engine    string          `json:"engine"`
		Waves     int             `json:"waves"`
		P50       int64           `json:"p50_ticks"`
		P50Wall   int64           `json:"p50_wall_ns"`
		P99Wall   int64           `json:"p99_wall_ns"`
		MeanWall  float64         `json:"mean_wall_ns"`
		Hist      json.RawMessage `json:"latency_hist"`
		LastDoneT int64           `json:"last_done_t"`
	}
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatalf("summary is not valid JSON: %v\n%s", err, data)
	}
	if s.Engine != "sim" || s.Waves != 5 || s.P50 <= 0 || s.LastDoneT <= 0 {
		t.Fatalf("summary %+v", s)
	}
	if len(s.Hist) == 0 {
		t.Fatal("latency_hist missing")
	}
	var walls []int64
	var sum int64
	for _, w := range rep.Waves {
		if w.WallNS <= 0 {
			t.Fatalf("wave wall latency %d under an injected clock", w.WallNS)
		}
		walls = append(walls, w.WallNS)
		sum += w.WallNS
	}
	p50, p99 := telemetry.ExactQuantile(walls, 0.50), telemetry.ExactQuantile(walls, 0.99)
	if s.P50Wall != p50 || s.P99Wall != p99 || s.MeanWall != float64(sum)/float64(len(walls)) {
		t.Fatalf("wall summary p50=%d p99=%d mean=%g, want exact p50=%d p99=%d mean=%g over %v",
			s.P50Wall, s.P99Wall, s.MeanWall, p50, p99, float64(sum)/float64(len(walls)), walls)
	}
}

// TestGateDaemonName pins the daemon's diagnostic name.
func TestGateDaemonName(t *testing.T) {
	d := &gateDaemon{}
	if got := d.Name(); got != "service-gate(synchronous)" {
		t.Fatalf("Name() = %q", got)
	}
}
