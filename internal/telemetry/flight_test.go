package telemetry_test

import (
	"bytes"
	"testing"

	"snappif/internal/check"
	"snappif/internal/core"
	"snappif/internal/event"
	"snappif/internal/flat"
	"snappif/internal/graph"
	"snappif/internal/hunt"
	"snappif/internal/obs"
	"snappif/internal/sim"
	"snappif/internal/telemetry"
)

// finalCanonical extracts the final-state snapshot from a JSONL trace and
// returns its canonical encoding.
func finalCanonical(t *testing.T, g *graph.Graph, traceBytes []byte) []byte {
	t.Helper()
	tr, err := obs.ReadTrace(bytes.NewReader(traceBytes))
	if err != nil {
		t.Fatal(err)
	}
	var final *obs.Event
	for _, ev := range tr.Events {
		if ev.T == "final" {
			final = ev
		}
	}
	if final == nil {
		t.Fatal("trace has no final snapshot")
	}
	pr, err := core.New(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.NewConfiguration(g, pr)
	if err := final.Restore(cfg); err != nil {
		t.Fatal(err)
	}
	buf, err := cfg.AppendCanonical(nil)
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// TestFlightDumpReplaysPlantedViolation is the flight recorder's
// end-to-end contract: run a protocol with a planted bug under full
// invariant monitoring, let the monitor freeze the recorder at the
// violation, dump, and replay — the dumped scenario must reproduce the
// same violation at its final step, bit for bit across repeated replays,
// and land in exactly the live run's final state.
func TestFlightDumpReplaysPlantedViolation(t *testing.T) {
	g, err := graph.BinaryTree(15)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := core.New(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	pl, ok := hunt.PlantByName("level-overflow")
	if !ok {
		t.Fatal("level-overflow plant missing")
	}
	proto := pl.Wrap(pr)
	mon := check.NewMonitor(pr, check.StandardChecks())
	tel := telemetry.New(telemetry.Config{SampleEvery: 4, FlightDepth: 4, FlightEvery: 8})
	to := &telemetry.Observer{T: tel, Proto: pr, Mon: mon}
	cfg := sim.NewConfiguration(g, proto)
	d := sim.DistributedRandom{P: 0.5}
	const seed = 42
	to.Begin(telemetry.RunMeta{
		G: g, Root: 0, Seed: seed - 1, Engine: "sim", Daemon: d.Name(),
		Plant: pl.Name, NextMsg: pr.NextMsg,
	}, cfg)
	res, err := sim.Run(cfg, proto, d, sim.Options{
		MaxSteps:  5000,
		Seed:      seed,
		Observers: []sim.Observer{mon, to},
		StopWhen:  mon.Stop(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(mon.Records) == 0 {
		t.Fatalf("planted bug did not fire in %d steps", res.Steps)
	}
	live := mon.Records[0]

	sc, err := tel.DumpScenario()
	if err != nil {
		t.Fatal(err)
	}
	if sc.Plant != pl.Name {
		t.Fatalf("dump lost the plant: %q", sc.Plant)
	}

	rep, err := sc.Run(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) == 0 {
		t.Fatal("replay did not reproduce the violation")
	}
	got := rep.Violations[0]
	if got.Check != live.Check || got.Msg != live.Msg {
		t.Fatalf("replayed violation diverges: %+v vs live %+v", got, live)
	}
	// The freeze pinned the recorder at the violating step, so the replayed
	// violation must land exactly on the schedule's last step.
	if got.Step != len(sc.Schedule) {
		t.Fatalf("violation at replay step %d, want schedule end %d", got.Step, len(sc.Schedule))
	}
	if len(sc.Schedule) == res.Steps && got.Step != live.Step {
		t.Fatalf("full-coverage replay shifted the violation: step %d vs live %d", got.Step, live.Step)
	}

	// Bit-for-bit: two traced replays emit identical bytes, and their final
	// state is the live run's final state.
	var t1, t2 bytes.Buffer
	if _, err := sc.Trace(&t1, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := sc.Trace(&t2, nil); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(t1.Bytes(), t2.Bytes()) {
		t.Fatal("two replays of the same flight dump emitted different traces")
	}
	liveCanon, err := cfg.AppendCanonical(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(finalCanonical(t, g, t1.Bytes()), liveCanon) {
		t.Fatal("replayed final state differs from the live configuration")
	}
}

// TestFlightDumpMidRunWindow forces the schedule ring to wrap, so the dump
// must re-base on a mid-run checkpoint: the scenario's Init is not the
// clean start, its MsgBase resumes the payload counter, and the replayed
// tail still lands in the live final state.
func TestFlightDumpMidRunWindow(t *testing.T) {
	g, err := graph.Ring(12)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := core.New(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	tel := telemetry.New(telemetry.Config{SampleEvery: 16, FlightDepth: 2, FlightEvery: 16})
	to := &telemetry.Observer{T: tel, Proto: pr}
	cfg := sim.NewConfiguration(g, pr)
	d := sim.DistributedRandom{P: 0.5}
	const seed, steps = 7, 200
	to.Begin(telemetry.RunMeta{
		G: g, Root: 0, Seed: seed - 1, Engine: "sim", Daemon: d.Name(), NextMsg: pr.NextMsg,
	}, cfg)
	if _, err := sim.Run(cfg, pr, d, sim.Options{
		MaxSteps:  steps + 1,
		Seed:      seed,
		Observers: []sim.Observer{to},
		StopWhen:  func(rs *sim.RunState) bool { return rs.Steps >= steps },
	}); err != nil {
		t.Fatal(err)
	}

	sc, err := tel.DumpScenario()
	if err != nil {
		t.Fatal(err)
	}
	// Ring capacity is depth·every = 32 steps, so the window cannot reach
	// back to step 0: the dump must re-base on a later checkpoint.
	if len(sc.Schedule) >= steps {
		t.Fatalf("dump claims %d steps of coverage, ring holds 32", len(sc.Schedule))
	}
	if len(sc.Schedule) == 0 {
		t.Fatal("dump has an empty schedule")
	}
	if sc.MsgBase <= 1 {
		t.Fatalf("MsgBase = %d, want the advanced payload counter of a mid-run checkpoint", sc.MsgBase)
	}
	if sc.Init == nil {
		t.Fatal("dump has no Init snapshot")
	}

	var buf bytes.Buffer
	if rep, err := sc.Trace(&buf, nil); err != nil {
		t.Fatal(err)
	} else if len(rep.Violations) != 0 {
		t.Fatalf("clean replay violated invariants: %+v", rep.Violations[0])
	}
	liveCanon, err := cfg.AppendCanonical(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(finalCanonical(t, g, buf.Bytes()), liveCanon) {
		t.Fatal("mid-run window replay missed the live final state")
	}
}

// TestFlightDumpFlatEngine dumps from the flat engine's built-in hooks
// (event.Runner under an external daemon) and replays on the generic engine
// — the cross-engine half of the bit-identity claim, via the recorder.
func TestFlightDumpFlatEngine(t *testing.T) {
	g, err := graph.Ring(16)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := core.New(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	kern, err := flat.FromCore(pr)
	if err != nil {
		t.Fatal(err)
	}
	fc, err := flat.NewConfig(kern)
	if err != nil {
		t.Fatal(err)
	}
	tel := telemetry.New(telemetry.Config{SampleEvery: 16, FlightDepth: 2, FlightEvery: 16})
	d := sim.DistributedRandom{P: 0.5}
	const seed, steps = 9, 150
	if _, err := event.Run(fc, kern, d, event.Options{
		Options: sim.Options{
			MaxSteps: steps + 1,
			Seed:     seed,
			StopWhen: func(rs *sim.RunState) bool { return rs.Steps >= steps },
		},
		Telemetry:     tel,
		TelemetryMeta: telemetry.RunMeta{Seed: seed - 1, Engine: "event"},
	}); err != nil {
		t.Fatal(err)
	}

	sc, err := tel.DumpScenario()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if rep, err := sc.Trace(&buf, nil); err != nil {
		t.Fatal(err)
	} else if len(rep.Violations) != 0 {
		t.Fatalf("clean replay violated invariants: %+v", rep.Violations[0])
	}
	if !bytes.Equal(finalCanonical(t, g, buf.Bytes()), fc.AppendCanonical(nil)) {
		t.Fatal("generic replay of a flat-engine flight dump missed the live final state")
	}
}

func TestFlightDumpErrors(t *testing.T) {
	if _, err := telemetry.New(telemetry.Config{}).DumpScenario(); err == nil {
		t.Fatal("DumpScenario without FlightDepth must fail")
	}
	tel := telemetry.New(telemetry.Config{FlightDepth: 2})
	if _, err := tel.DumpScenario(); err == nil {
		t.Fatal("DumpScenario before any checkpoint must fail")
	}
}
