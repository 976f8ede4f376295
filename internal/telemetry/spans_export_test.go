package telemetry_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"snappif/internal/check"
	"snappif/internal/core"
	"snappif/internal/fault"
	"snappif/internal/graph"
	"snappif/internal/obs"
	"snappif/internal/sim"
	"snappif/internal/telemetry"
)

// TestWriteTraceEventsGolden pins the Perfetto export byte for byte
// (struct-field order and sorted map keys make encoding/json output
// deterministic). Regenerate with UPDATE_GOLDEN=1 after a deliberate
// format change, then re-load the file in ui.perfetto.dev to confirm it
// still renders.
func TestWriteTraceEventsGolden(t *testing.T) {
	spans := []telemetry.Span{
		{Wave: 1, Msg: 1, StartStep: 1, FeedbackStep: 4, EndStep: 9, StartRound: 1, EndRound: 5},
		{Wave: 2, Msg: 2, StartStep: 10, FeedbackStep: 13, EndStep: 17, StartRound: 6, EndRound: 9,
			Abnormal: true, AbnProcs: 3},
		{Wave: 3, Msg: 3, StartStep: 18, StartRound: 10, Open: true},
		{Wave: 4, Msg: 4, StartStep: 20, FeedbackStep: 22, EndStep: 30, StartRound: 11, EndRound: 15,
			StartNS: 1_000_000, FeedbackNS: 1_500_000, EndNS: 2_000_000},
	}
	var buf bytes.Buffer
	if err := telemetry.WriteTraceEvents(&buf, "golden", spans); err != nil {
		t.Fatal(err)
	}

	golden := filepath.Join("testdata", "trace_events_golden.json")
	if os.Getenv("UPDATE_GOLDEN") == "1" {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with UPDATE_GOLDEN=1)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("trace_event export drifted from golden (UPDATE_GOLDEN=1 to accept):\ngot:\n%s", buf.String())
	}

	// Structural sanity independent of the golden: valid JSON in the
	// trace_event object format, every event carrying the required keys.
	var tf struct {
		TraceEvents     []map[string]any `json:"traceEvents"`
		DisplayTimeUnit string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if tf.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q, want ms", tf.DisplayTimeUnit)
	}
	var haveX, haveI, haveM int
	for _, ev := range tf.TraceEvents {
		for _, key := range []string{"name", "ph", "ts", "pid", "tid"} {
			if _, ok := ev[key]; !ok {
				t.Fatalf("event missing %q: %v", key, ev)
			}
		}
		switch ev["ph"] {
		case "X":
			haveX++
			if _, ok := ev["dur"]; !ok {
				t.Fatalf("complete event without dur: %v", ev)
			}
		case "i":
			haveI++
		case "M":
			haveM++
		}
	}
	if haveM != 3 || haveX == 0 || haveI != 1 {
		t.Fatalf("event mix M=%d X=%d i=%d, want 3 metadata, ≥1 complete, 1 instant", haveM, haveX, haveI)
	}
}

// recordSpans drives one configuration through the given run segments with
// one tracer and one telemetry.Observer attached across all of them, and
// returns the spans SpansFromTrace rebuilds from the trace and the spans
// the live telemetry recorded.
func recordSpans(t *testing.T, g *graph.Graph, pr *core.Protocol, cfg *sim.Configuration, d sim.Daemon, segs []sim.Options) (offline, live []telemetry.Span) {
	t.Helper()
	tel := telemetry.New(testConfig())
	to := &telemetry.Observer{T: tel, Proto: pr}
	var traceBuf bytes.Buffer
	tracer := obs.New(&traceBuf, obs.WithProtocol(pr))
	for _, opts := range segs {
		tracer.BeginRun(g, d.Name(), opts.Seed, cfg)
		to.Begin(telemetry.RunMeta{
			G: g, Root: pr.Root, Seed: opts.Seed - 1, Engine: "sim", Daemon: d.Name(), NextMsg: pr.NextMsg,
		}, cfg)
		opts.Observers = append(opts.Observers, tracer, to)
		if _, err := sim.Run(cfg, pr, d, opts); err != nil {
			t.Fatal(err)
		}
	}
	if err := tracer.Close(); err != nil {
		t.Fatal(err)
	}
	tr, err := obs.ReadTrace(bytes.NewReader(traceBuf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	offline, err = telemetry.SpansFromTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	return offline, tel.Spans()
}

// sameSpans fails unless the offline and live spans agree field for field.
func sameSpans(t *testing.T, name string, offline, live []telemetry.Span) {
	t.Helper()
	if len(offline) != len(live) {
		t.Fatalf("%s: span counts diverge: offline %d, live %d\noffline: %+v\nlive:    %+v",
			name, len(offline), len(live), offline, live)
	}
	for i := range live {
		if offline[i] != live[i] {
			t.Fatalf("%s: span %d diverges:\noffline: %+v\nlive:    %+v", name, i, offline[i], live[i])
		}
	}
}

// stepsAtLeast stops a segment after n steps.
func stepsAtLeast(n int) func(*sim.RunState) bool {
	return func(rs *sim.RunState) bool { return rs.Steps >= n }
}

// TestSpansFromTraceMatchesLive round-trips the span pipeline: the spans
// reconstructed offline from a JSONL trace must agree field for field with
// the spans the live telemetry recorded for the same runs, the run each
// wave started in included — on one clean run, across run boundaries that
// cut open waves, and from every corrupted start, each stopped mid-wave.
func TestSpansFromTraceMatchesLive(t *testing.T) {
	t.Run("single-run", func(t *testing.T) {
		g, err := graph.RandomConnected(12, 0.25, newRand(4))
		if err != nil {
			t.Fatal(err)
		}
		pr, err := core.New(g, 0)
		if err != nil {
			t.Fatal(err)
		}
		cy := check.NewCycleObserver(pr)
		offline, live := recordSpans(t, g, pr, sim.NewConfiguration(g, pr), sim.DistributedRandom{P: 0.5},
			[]sim.Options{{MaxSteps: 500_000, Seed: 6, Observers: []sim.Observer{cy}, StopWhen: cy.StopAfterCycles(3)}})
		if len(live) < 3 {
			t.Fatalf("recorded %d spans, want ≥ 3", len(live))
		}
		sameSpans(t, "single-run", offline, live)
	})

	t.Run("three-segments", func(t *testing.T) {
		g, err := graph.Ring(12)
		if err != nil {
			t.Fatal(err)
		}
		pr, err := core.New(g, 0)
		if err != nil {
			t.Fatal(err)
		}
		var segs []sim.Options
		for seed := int64(1); seed <= 3; seed++ {
			segs = append(segs, sim.Options{MaxSteps: 1000, Seed: seed, StopWhen: stepsAtLeast(70)})
		}
		offline, live := recordSpans(t, g, pr, sim.NewConfiguration(g, pr), sim.Synchronous{}, segs)
		sameSpans(t, "three-segments", offline, live)
		cut := 0
		for _, s := range live[:len(live)-1] {
			if s.Open {
				cut++
			}
		}
		if cut == 0 {
			t.Fatalf("no wave was open at a run boundary: %+v", live)
		}
		for i, s := range live {
			if s.Run < 1 || s.Run > 3 || i > 0 && s.Run < live[i-1].Run {
				t.Fatalf("span %d has run %d, want runs 1..3 in order: %+v", i, s.Run, live)
			}
		}
		if first, last := live[0].Run, live[len(live)-1].Run; first != 1 || last != 3 {
			t.Fatalf("spans run from run %d to %d, want 1 to 3: %+v", first, last, live)
		}
	})

	t.Run("corrupted-starts", func(t *testing.T) {
		g, err := graph.Ring(12)
		if err != nil {
			t.Fatal(err)
		}
		abnormal := 0
		for i, inj := range fault.All() {
			pr, err := core.New(g, 0)
			if err != nil {
				t.Fatal(err)
			}
			cfg := sim.NewConfiguration(g, pr)
			inj.Apply(cfg, pr, newRand(int64(i)))
			// Stop mid-wave: past the stabilization horizon, with the root
			// broadcasting.
			midWave := func(rs *sim.RunState) bool {
				return rs.Steps >= 300 && core.At(rs.Config, pr.Root).Pif == core.B
			}
			offline, live := recordSpans(t, g, pr, cfg, sim.DistributedRandom{P: 0.5},
				[]sim.Options{{MaxSteps: 100_000, Seed: int64(10 + i), StopWhen: midWave}})
			sameSpans(t, inj.Name, offline, live)
			if len(live) == 0 || !live[len(live)-1].Open {
				t.Fatalf("%s: run did not end mid-wave: %+v", inj.Name, live)
			}
			for _, s := range live {
				if s.Abnormal {
					abnormal++
				}
			}
		}
		if abnormal == 0 {
			t.Fatal("no corrupted start produced an abnormal wave")
		}
	})
}

func TestSpansFromTraceNeedsMeta(t *testing.T) {
	if _, err := telemetry.SpansFromTrace(&obs.Trace{}); err == nil {
		t.Fatal("SpansFromTrace without a meta header must fail")
	}
}
