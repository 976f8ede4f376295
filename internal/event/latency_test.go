package event_test

import (
	"testing"

	"snappif/internal/core"
	"snappif/internal/event"
	"snappif/internal/flat"
	"snappif/internal/graph"
	"snappif/internal/sim"
)

// TestParseLatency pins the -latency spec syntax end to end: every family,
// the empty spec (external-daemon mode), and the rejection diagnostics.
func TestParseLatency(t *testing.T) {
	for _, tc := range []struct {
		spec string
		want event.Latency
	}{
		{"", nil},
		{"const:0", event.Constant(0)},
		{"const:7", event.Constant(7)},
		{"uniform:1-4", event.Uniform{Lo: 1, Hi: 4}},
		{"uniform:3-3", event.Uniform{Lo: 3, Hi: 3}},
		{"pareto:a=1.5,cap=16", event.Pareto{Alpha: 1.5, Cap: 16}},
		{"pareto:cap=8,a=2", event.Pareto{Alpha: 2, Cap: 8}},
	} {
		got, err := event.ParseLatency(tc.spec)
		if err != nil {
			t.Errorf("ParseLatency(%q): %v", tc.spec, err)
			continue
		}
		if got != tc.want {
			t.Errorf("ParseLatency(%q) = %#v, want %#v", tc.spec, got, tc.want)
		}
	}
	for _, bad := range []string{
		"const:", "const:-1", "const:x",
		"uniform:4", "uniform:4-1", "uniform:-1-4", "uniform:a-b",
		"pareto:a=0,cap=4", "pareto:a=1.5", "pareto:cap=4", "pareto:a=x,cap=y",
		"bogus:1",
	} {
		if _, err := event.ParseLatency(bad); err == nil {
			t.Errorf("ParseLatency(%q) accepted", bad)
		}
	}
}

// TestVirtualClockPublishesTicks: wiring Options.VClock exposes the
// runner's virtual time through the atomic clock — it must end at the
// runner's own VirtualTime and be safe to read concurrently (the race
// detector covers the concurrent half under -race).
func TestVirtualClockPublishesTicks(t *testing.T) {
	g, err := graph.Ring(8)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := core.New(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	k, err := flat.FromCore(pr)
	if err != nil {
		t.Fatal(err)
	}
	fc, err := flat.NewConfig(k)
	if err != nil {
		t.Fatal(err)
	}
	vc := new(event.VirtualClock)
	if vc.Now() != 0 {
		t.Fatalf("fresh clock reads %d", vc.Now())
	}
	const steps = 100
	r, err := event.NewRunner(fc, k, nil, event.Options{
		Options: sim.Options{
			Seed: 2, MaxSteps: steps + 1,
			StopWhen: func(rs *sim.RunState) bool { return rs.Steps >= steps },
		},
		Latency: event.Uniform{Lo: 1, Hi: 3},
		VClock:  vc,
	})
	if err != nil {
		t.Fatal(err)
	}
	last := int64(0)
	for {
		done, serr := r.Step()
		if done {
			if serr != nil {
				t.Fatal(serr)
			}
			break
		}
		now := vc.Now()
		if now < last {
			t.Fatalf("published clock went backwards: %d after %d", now, last)
		}
		last = now
	}
	if vc.Now() != r.VirtualTime() {
		t.Fatalf("clock %d != runner virtual time %d", vc.Now(), r.VirtualTime())
	}
	if vc.Now() == 0 {
		t.Fatal("clock never advanced")
	}
}

// TestInducedDaemonVirtualTime: the induced daemon publishes the virtual
// time of its last batch, matching the event runner's clock under the same
// seed and latency.
func TestInducedDaemonVirtualTime(t *testing.T) {
	g, err := graph.Line(6)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := core.New(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	lat := event.Uniform{Lo: 1, Hi: 3}
	d := event.NewInducedDaemon(lat)
	cfg := sim.NewConfiguration(g, pr)
	const steps = 60
	if _, err := sim.Run(cfg, pr, d, sim.Options{
		Seed: 5, MaxSteps: steps + 1,
		StopWhen: func(rs *sim.RunState) bool { return rs.Steps >= steps },
	}); err != nil {
		t.Fatal(err)
	}
	induced := d.VirtualTime()
	if induced <= 0 {
		t.Fatalf("induced daemon virtual time %d after %d steps", induced, steps)
	}

	k, err := flat.FromCore(pr)
	if err != nil {
		t.Fatal(err)
	}
	fc, err := flat.NewConfig(k)
	if err != nil {
		t.Fatal(err)
	}
	r, err := event.NewRunner(fc, k, nil, event.Options{
		Options: sim.Options{
			Seed: 5, MaxSteps: steps + 1,
			StopWhen: func(rs *sim.RunState) bool { return rs.Steps >= steps },
		},
		Latency: lat,
	})
	if err != nil {
		t.Fatal(err)
	}
	for {
		done, serr := r.Step()
		if done {
			if serr != nil {
				t.Fatal(serr)
			}
			break
		}
	}
	if r.VirtualTime() != induced {
		t.Fatalf("event runner clock %d != induced daemon clock %d", r.VirtualTime(), induced)
	}
}
