package telemetry_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"snappif/internal/core"
	"snappif/internal/graph"
	"snappif/internal/obs"
	"snappif/internal/sim"
	"snappif/internal/telemetry"
)

// TestLogHist pins obs.LogHist — the registry's histogram, which the
// telemetry aggregates embed — on a hand-checked sample: exact count, sum,
// max and mean, and quantiles against the telemetry.ExactQuantile oracle.
func TestLogHist(t *testing.T) {
	var h obs.LogHist
	samples := []int64{1, 2, 3, 4, 5, 6, 7, 8, 100, 1000}
	for _, v := range samples {
		h.Observe(v)
	}
	if got := h.Count(); got != 10 {
		t.Fatalf("Count = %d, want 10", got)
	}
	if got := h.Sum(); got != 1136 {
		t.Fatalf("Sum = %d, want 1136", got)
	}
	if got := h.Max(); got != 1000 {
		t.Fatalf("Max = %d, want 1000", got)
	}
	if got := h.Mean(); got != 113.6 {
		t.Fatalf("Mean = %g, want 113.6", got)
	}
	// Quantiles interpolate inside the covering log bucket: the rank-5
	// observation lands in bucket [4,7] at fraction 2/4, giving exactly the
	// true p50 of 5 here.
	if got, exact := h.Quantile(0.5), telemetry.ExactQuantile(samples, 0.5); got != 5 || exact != 5 {
		t.Fatalf("Quantile(0.5) = %d, exact %d, want 5", got, exact)
	}
	// Quantile(1) clamps to the true observed maximum.
	if got := h.Quantile(1.0); got != telemetry.ExactQuantile(samples, 1) {
		t.Fatalf("Quantile(1.0) = %d, want the exact max %d", got, telemetry.ExactQuantile(samples, 1))
	}
	var parsed map[string]any
	if err := json.Unmarshal([]byte(h.String()), &parsed); err != nil {
		t.Fatalf("String() is not JSON: %v\n%s", err, h.String())
	}
	for _, key := range []string{"count", "sum", "max", "p50", "p95", "p99", "buckets"} {
		if _, ok := parsed[key]; !ok {
			t.Errorf("String() missing %q: %s", key, h.String())
		}
	}

	var empty obs.LogHist
	if empty.Quantile(0.5) != 0 || empty.Mean() != 0 {
		t.Fatalf("empty hist: Quantile=%d Mean=%g, want 0 0", empty.Quantile(0.5), empty.Mean())
	}
	empty.Observe(0) // non-positive values land in bucket 0
	if empty.Count() != 1 || empty.Quantile(1) != 0 {
		t.Fatalf("zero observation: count=%d q100=%d", empty.Count(), empty.Quantile(1))
	}
}

func TestSeriesRing(t *testing.T) {
	tel := telemetry.New(telemetry.Config{SampleEvery: 1, SeriesCap: 4})
	tel.BeginRun(telemetry.RunMeta{}, nil)
	for i := 1; i <= 10; i++ {
		tel.Step(telemetry.StepInfo{Step: i, Enabled: i}, nil)
	}
	sr := tel.Series()
	rows := sr.Rows()
	if len(rows) != 4 {
		t.Fatalf("ring holds %d rows, want 4", len(rows))
	}
	for i, r := range rows {
		if want := int64(7 + i); r.Step != want {
			t.Fatalf("row %d: step %d, want %d (oldest-first order)", i, r.Step, want)
		}
	}
	if sr.Dropped() != 6 {
		t.Fatalf("Dropped = %d, want 6", sr.Dropped())
	}
	var parsed map[string]any
	if err := json.Unmarshal([]byte(sr.String()), &parsed); err != nil {
		t.Fatalf("Series String() is not JSON: %v", err)
	}
}

func TestDisabledNilSafe(t *testing.T) {
	tel := telemetry.Disabled()
	if tel.Enabled() {
		t.Fatal("Disabled().Enabled() = true")
	}
	tel.BeginRun(telemetry.RunMeta{}, nil)
	tel.Step(telemetry.StepInfo{Step: 1}, nil)
	tel.Freeze()
	if tel.Now() != 0 {
		t.Fatal("disabled timing must be off")
	}
	if _, err := tel.DumpScenario(); err == nil {
		t.Fatal("disabled DumpScenario must fail")
	}
	if tel.Spans() != nil || tel.Series() != nil || tel.Hist("wave_rounds") != nil {
		t.Fatal("disabled accessors must return nil")
	}
	if s, m := tel.Totals(); s != 0 || m != 0 {
		t.Fatal("disabled Totals must be zero")
	}
	if w, a := tel.Waves(); w != 0 || a != 0 {
		t.Fatal("disabled Waves must be zero")
	}
	if b, f, c := tel.Census(); b+f+c != 0 {
		t.Fatal("disabled Census must be zero")
	}
	if tel.SpansDropped() != 0 {
		t.Fatal("disabled SpansDropped must be zero")
	}
	if err := tel.WriteSpans(&bytes.Buffer{}); err != nil {
		t.Fatalf("disabled WriteSpans: %v", err)
	}
	tel.PublishTo(obs.NewRegistry())
}

// TestDisabledAllocs is the CI gate for the nil-receiver fast path: the
// hooks every engine step calls unconditionally must not allocate when
// telemetry is off.
func TestDisabledAllocs(t *testing.T) {
	tel := telemetry.Disabled()
	info := telemetry.StepInfo{Step: 7, Enabled: 3, DB: 1, DC: -1}
	if n := testing.AllocsPerRun(200, func() {
		tel.Step(info, nil)
		_ = tel.Now()
	}); n != 0 {
		t.Fatalf("disabled telemetry hooks allocate %.1f/step, want 0", n)
	}
}

// TestEnabledSteadyStateAllocs pins the enabled fast path: off the
// sampling/checkpoint cadences, Step is atomics plus one mutex and must not
// allocate once the rings are warm.
func TestEnabledSteadyStateAllocs(t *testing.T) {
	tel := telemetry.New(telemetry.Config{SampleEvery: 1 << 20, FlightDepth: 2, FlightEvery: 1 << 20})
	tel.BeginRun(telemetry.RunMeta{}, nil)
	executed := []sim.Choice{{Proc: 1, Action: 0}}
	info := telemetry.StepInfo{Step: 3, Executed: executed, Enabled: 2, DB: 1, DC: -1}
	tel.Step(info, nil) // warm the schedule-ring slot
	if n := testing.AllocsPerRun(200, func() {
		tel.Step(info, nil)
	}); n != 0 {
		t.Fatalf("enabled steady-state Step allocates %.1f/step, want 0", n)
	}
}

// fakeSource is a StateSource with a fixed census and no real states.
type fakeSource struct{ b, f, c int }

func (s fakeSource) N() int                                   { return s.b + s.f + s.c }
func (s fakeSource) AppendCanonical(b []byte) ([]byte, error) { return b, nil }
func (s fakeSource) Census() (b, f, c int)                    { return s.b, s.f, s.c }

// TestWaveSpanLifecycle drives the root through C→B→F→C by hand and checks
// the span, histogram, and census bookkeeping — including the abnormal
// flag, which must capture B/F leftovers present at broadcast start.
func TestWaveSpanLifecycle(t *testing.T) {
	tel := telemetry.New(telemetry.Config{SampleEvery: 1 << 20})
	// 2 leftover processors in B, 1 in F, root among the 5 clean ones.
	tel.BeginRun(telemetry.RunMeta{Engine: "test"}, fakeSource{b: 2, f: 1, c: 5})

	step := func(i, rounds int, before, after core.Phase, db, df, dc int, msg uint64) {
		tel.Step(telemetry.StepInfo{
			Step: i, Rounds: rounds, RootBefore: before, RootAfter: after,
			RootMsg: msg, DB: db, DF: df, DC: dc,
		}, nil)
	}
	step(1, 0, core.C, core.B, 1, 0, -1, 9) // root opens over 2+1 leftovers
	if got := tel.Spans(); len(got) != 1 || !got[0].Open {
		t.Fatalf("open wave not visible in Spans(): %+v", got)
	}
	step(2, 1, core.B, core.F, -1, 1, 0, 9) // feedback complete
	step(3, 2, core.F, core.C, 0, -1, 1, 9) // cleaning done

	waves, abn := tel.Waves()
	if waves != 1 || abn != 1 {
		t.Fatalf("Waves() = (%d, %d), want (1, 1)", waves, abn)
	}
	spans := tel.Spans()
	if len(spans) != 1 {
		t.Fatalf("got %d spans, want 1", len(spans))
	}
	sp := spans[0]
	if sp.Open || sp.Wave != 1 || sp.StartStep != 1 || sp.FeedbackStep != 2 || sp.EndStep != 3 {
		t.Fatalf("span steps wrong: %+v", sp)
	}
	if sp.StartRound != 1 || sp.EndRound != 3 || sp.Rounds() != 3 || sp.Steps() != 3 {
		t.Fatalf("span rounds wrong: %+v", sp)
	}
	if !sp.Abnormal || sp.AbnProcs != 3 {
		t.Fatalf("abnormal leftovers not detected: %+v", sp)
	}
	if sp.Msg != 9 {
		t.Fatalf("span msg = %d, want 9", sp.Msg)
	}
	if got := tel.Hist("wave_rounds").Count(); got != 1 {
		t.Fatalf("wave_rounds count = %d, want 1", got)
	}
	if b, f, c := tel.Census(); b != 2 || f != 1 || c != 5 {
		t.Fatalf("census after closed wave = (%d,%d,%d), want (2,1,5)", b, f, c)
	}

	// A run boundary while a wave is open keeps it as an Open span with
	// its payload; only completed waves count in Waves().
	step(4, 2, core.C, core.B, 1, 0, -1, 9)
	step(5, 3, core.B, core.F, -1, 1, 0, 9)
	wavesBefore, abnBefore := tel.Waves()
	tel.BeginRun(telemetry.RunMeta{Engine: "test"}, fakeSource{c: 8})
	spans = tel.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans after BeginRun, want 2: %+v", len(spans), spans)
	}
	want := telemetry.Span{Run: 1, Wave: 2, Msg: 9, StartStep: 4, FeedbackStep: 5, StartRound: 3,
		Abnormal: true, AbnProcs: 3, Open: true}
	if spans[1] != want {
		t.Fatalf("wave open at BeginRun:\ngot  %+v\nwant %+v", spans[1], want)
	}
	if waves, abn := tel.Waves(); waves != wavesBefore || abn != abnBefore || waves != 1 {
		t.Fatalf("Waves() across BeginRun = (%d, %d) → (%d, %d), want it unchanged with 1 completed",
			wavesBefore, abnBefore, waves, abn)
	}
	if got := tel.Hist("wave_rounds").Count(); got != 1 {
		t.Fatalf("wave_rounds count after BeginRun = %d, want 1", got)
	}
}

func TestSpanCapDrops(t *testing.T) {
	tel := telemetry.New(telemetry.Config{MaxSpans: 2, SampleEvery: 1 << 20})
	tel.BeginRun(telemetry.RunMeta{}, fakeSource{c: 3})
	for w := 0; w < 5; w++ {
		base := 3 * w
		tel.Step(telemetry.StepInfo{Step: base + 1, RootBefore: core.C, RootAfter: core.B}, nil)
		tel.Step(telemetry.StepInfo{Step: base + 2, RootBefore: core.B, RootAfter: core.F}, nil)
		tel.Step(telemetry.StepInfo{Step: base + 3, RootBefore: core.F, RootAfter: core.C}, nil)
	}
	if waves, _ := tel.Waves(); waves != 5 {
		t.Fatalf("waves = %d, want 5 (aggregates must not be capped)", waves)
	}
	if got := len(tel.Spans()); got != 2 {
		t.Fatalf("retained %d spans, want 2 (MaxSpans)", got)
	}
	if got := tel.SpansDropped(); got != 3 {
		t.Fatalf("SpansDropped = %d, want 3", got)
	}
}

func TestPublishTo(t *testing.T) {
	tel := telemetry.New(telemetry.Config{})
	reg := obs.NewRegistry()
	tel.PublishTo(reg)
	tel.BeginRun(telemetry.RunMeta{}, fakeSource{c: 2})
	tel.Step(telemetry.StepInfo{Step: 1, Executed: []sim.Choice{{Proc: 0}}, GuardHits: 3, GuardMisses: 1}, nil)
	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var parsed map[string]any
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("registry JSON invalid: %v\n%s", err, buf.String())
	}
	for _, name := range []string{
		"telemetry.steps", "telemetry.moves", "telemetry.waves",
		"telemetry.census_c", "telemetry.wave_rounds", "telemetry.series",
		"flat.guard.hits",
	} {
		if _, ok := parsed[name]; !ok {
			t.Errorf("registry missing %q", name)
		}
	}
	if got := parsed["telemetry.steps"]; got != float64(1) {
		t.Errorf("telemetry.steps = %v, want 1", got)
	}
	if got := parsed["flat.guard.hits"]; got != float64(3) {
		t.Errorf("flat.guard.hits = %v, want 3", got)
	}
	if got := parsed["telemetry.census_c"]; got != float64(2) {
		t.Errorf("telemetry.census_c = %v, want 2", got)
	}
}

// runBothEngines runs k clean waves on both engines with fresh telemetry
// and returns the two instances.
func runBothEngines(t *testing.T, g *graph.Graph, seed int64, k int) (gen, flt *telemetry.Telemetry) {
	t.Helper()
	gen = runGenericTelemetry(t, g, seed, k)
	flt = runFlatTelemetry(t, g, seed, k)
	return gen, flt
}

// TestEnginesAgree pins the cross-engine telemetry contract: the generic
// observer adapter and event.Runner's built-in hooks must report the
// same logical facts for the bit-identical run — step/move totals, wave
// spans, census, and the logical histograms.
func TestEnginesAgree(t *testing.T) {
	g, err := graph.RandomConnected(16, 0.2, newRand(3))
	if err != nil {
		t.Fatal(err)
	}
	gen, flt := runBothEngines(t, g, 11, 4)

	gs, gm := gen.Totals()
	fs, fm := flt.Totals()
	if gs != fs || gm != fm {
		t.Fatalf("totals diverge: generic %d/%d, flat %d/%d", gs, gm, fs, fm)
	}
	gw, ga := gen.Waves()
	fw, fa := flt.Waves()
	if gw != fw || ga != fa || gw < 4 {
		t.Fatalf("waves diverge: generic (%d,%d), flat (%d,%d)", gw, ga, fw, fa)
	}
	gb, gf, gc := gen.Census()
	fb, ff, fc := flt.Census()
	if gb != fb || gf != ff || gc != fc {
		t.Fatalf("census diverges: generic (%d,%d,%d), flat (%d,%d,%d)", gb, gf, gc, fb, ff, fc)
	}
	for _, h := range []string{"wave_rounds", "wave_steps"} {
		if gv, fv := gen.Hist(h).String(), flt.Hist(h).String(); gv != fv {
			t.Fatalf("%s diverges:\ngeneric: %s\nflat:    %s", h, gv, fv)
		}
	}
	gSpans, fSpans := gen.Spans(), flt.Spans()
	if len(gSpans) != len(fSpans) {
		t.Fatalf("span counts diverge: %d vs %d", len(gSpans), len(fSpans))
	}
	for i := range gSpans {
		a, b := gSpans[i], fSpans[i]
		a.StartNS, a.FeedbackNS, a.EndNS = 0, 0, 0
		b.StartNS, b.FeedbackNS, b.EndNS = 0, 0, 0
		if a != b {
			t.Fatalf("span %d diverges:\ngeneric: %+v\nflat:    %+v", i, a, b)
		}
	}
	gRows, fRows := gen.Series().Rows(), flt.Series().Rows()
	if len(gRows) != len(fRows) {
		t.Fatalf("series lengths diverge: %d vs %d", len(gRows), len(fRows))
	}
	for i := range gRows {
		gr, fr := gRows[i], fRows[i]
		fr.GuardHitPct = gr.GuardHitPct // the guard cache exists only in event.Runner
		if gr != fr {
			t.Fatalf("series row %d diverges:\ngeneric: %+v\nflat:    %+v", i, gr, fr)
		}
	}
}

func TestWriteSpansNamesEngine(t *testing.T) {
	g, err := graph.Line(6)
	if err != nil {
		t.Fatal(err)
	}
	tel := runGenericTelemetry(t, g, 5, 2)
	var buf bytes.Buffer
	if err := tel.WriteSpans(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"snappif/sim"`) {
		t.Fatalf("spans export missing engine process name:\n%.400s", buf.String())
	}
}
