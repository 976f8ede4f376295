package telemetry_test

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"testing"
	"time"

	"snappif/internal/core"
	"snappif/internal/event"
	"snappif/internal/flat"
	"snappif/internal/graph"
	"snappif/internal/sim"
	"snappif/internal/telemetry"
)

// fullConfig is the everything-on telemetry shape the overhead gate and the
// EXPERIMENTS.md table measure: a clock (wall-clock timestamps, per-step
// timing histograms with the eval/commit split), and the flight recorder at
// its default cadence.
func fullConfig() telemetry.Config {
	base := time.Now()
	return telemetry.Config{
		Clock:       func() int64 { return int64(time.Since(base)) },
		FlightDepth: 8,
	}
}

// newEventStepper builds an event.Runner over a ring of size n under the
// synchronous daemon, optionally with telemetry attached.
func newEventStepper(n int, tel *telemetry.Telemetry, maxSteps int) (*event.Runner, error) {
	g, err := graph.Ring(n)
	if err != nil {
		return nil, err
	}
	pr, err := core.New(g, 0)
	if err != nil {
		return nil, err
	}
	kern, err := flat.FromCore(pr)
	if err != nil {
		return nil, err
	}
	fc, err := flat.NewConfig(kern)
	if err != nil {
		return nil, err
	}
	return event.NewRunner(fc, kern, sim.Synchronous{}, event.Options{
		Options:       sim.Options{Seed: 1, MaxSteps: maxSteps},
		Telemetry:     tel,
		TelemetryMeta: telemetry.RunMeta{Seed: 0},
	})
}

// warm advances a runner k steps without timing.
func warm(r *event.Runner, k int) error {
	for i := 0; i < k; i++ {
		if done, err := r.Step(); done {
			return fmt.Errorf("run ended during warm-up: %v", err)
		}
	}
	return nil
}

// timeWindow times steps consecutive steps, returning ns/step and
// allocs/step. It never runs the collector: a forced GC would mark the on
// arm's sizable flight ring right before its window — and not the off
// arm's small heap before its — leaving an arm-correlated thermal and
// cache footprint. Callers quiesce the heap once, before the first window.
func timeWindow(r *event.Runner, steps int) (ns, aps float64, err error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for i := 0; i < steps; i++ {
		if done, err := r.Step(); done {
			return 0, 0, fmt.Errorf("run ended during measurement: %v", err)
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)
	fs := float64(steps)
	return float64(elapsed.Nanoseconds()) / fs, float64(m1.Mallocs-m0.Mallocs) / fs, nil
}

func median(xs []float64) float64 {
	sort.Float64s(xs)
	return xs[len(xs)/2]
}

// measureOffOn compares ns/step with telemetry off and fully on at size n.
// Telemetry never feeds back into scheduling, so an off and an on runner
// over the same seed walk identical trajectories; both are warmed in
// lockstep, then timed over paired micro-windows at identical step ranges,
// alternating which arm goes first. The reported ratio is the median of
// the per-pair on/off ratios: each pair sees the same wavefront size and
// (nearly) the same machine conditions, which cancels the minutes-scale
// CPU noise that independent long windows cannot — observed swings on one
// box exceeded ±10% between back-to-back long-window runs, far above the
// effect being measured. After warm-up the heap is collected once and the
// GC pacer is disabled for the rest of the measurement: both steady-state
// paths run at zero allocs/step, so no collection is needed, and any GC
// inside the measured region would bill the on arm's sizable flight ring
// (its mark work, its cache and turbo footprint) to whichever window it
// happened to land in.
func measureOffOn(n, warmup, window, pairs int) (off, on, ratio, apsOff, apsOn float64, err error) {
	maxSteps := warmup + pairs*window + 1
	rOff, err := newEventStepper(n, nil, maxSteps)
	if err != nil {
		return 0, 0, 0, 0, 0, err
	}
	rOn, err := newEventStepper(n, telemetry.New(fullConfig()), maxSteps)
	if err != nil {
		return 0, 0, 0, 0, 0, err
	}
	if err := warm(rOff, warmup); err != nil {
		return 0, 0, 0, 0, 0, err
	}
	if err := warm(rOn, warmup); err != nil {
		return 0, 0, 0, 0, 0, err
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runtime.GC()
	offNS := make([]float64, 0, pairs)
	onNS := make([]float64, 0, pairs)
	ratios := make([]float64, 0, pairs)
	for i := 0; i < pairs; i++ {
		var nsOff, nsOn, aOff, aOn float64
		if i%2 == 0 {
			nsOff, aOff, err = timeWindow(rOff, window)
			if err == nil {
				nsOn, aOn, err = timeWindow(rOn, window)
			}
		} else {
			nsOn, aOn, err = timeWindow(rOn, window)
			if err == nil {
				nsOff, aOff, err = timeWindow(rOff, window)
			}
		}
		if err != nil {
			return 0, 0, 0, 0, 0, err
		}
		offNS = append(offNS, nsOff)
		onNS = append(onNS, nsOn)
		ratios = append(ratios, nsOn/nsOff)
		apsOff += aOff / float64(pairs)
		apsOn += aOn / float64(pairs)
	}
	return median(offNS), median(onNS), median(ratios), apsOff, apsOn, nil
}

// TestTelemetryOverheadGate is the CI gate for the "≤5% at N=100k" claim:
// fully-enabled telemetry (timing + series + spans + flight recorder) must
// cost at most 5% ns/step over the disabled path on a 100k-node ring.
// Gated behind TELEMETRY_OVERHEAD=1 — it is a timing measurement, useless
// under -race or on a loaded box.
func TestTelemetryOverheadGate(t *testing.T) {
	if os.Getenv("TELEMETRY_OVERHEAD") != "1" {
		t.Skip("set TELEMETRY_OVERHEAD=1 to run the overhead gate")
	}
	// Warm past two full flight-ring rotations (depth 8 × every 1024) so the
	// measurement sees the steady state: recycled schedule slots (first-pass
	// fill and first-revisit regrowth both behind us) and recycled
	// checkpoint buffers.
	off, on, ratio, _, _, err := measureOffOn(100_000, 17_000, 125, 48)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("N=100k ring: off %.0f ns/step, on %.0f ns/step, median paired ratio %.4f", off, on, ratio)
	if ratio > 1.05 {
		t.Fatalf("telemetry overhead %.2f%% exceeds the 5%% budget", (ratio-1)*100)
	}
}

// TestTelemetryOverheadTable emits the EXPERIMENTS.md overhead table rows
// (markdown, off/on ns/step and allocs/step at N ∈ {10k, 100k, 1M}).
// Every size uses the gate's protocol — warm past two full flight-ring
// rotations, then paired micro-windows — so the rows compare steady-state
// cost, not the one-time ring fill. Gated behind TELEMETRY_TABLE=1; run on
// a quiet box and paste the output.
func TestTelemetryOverheadTable(t *testing.T) {
	if os.Getenv("TELEMETRY_TABLE") != "1" {
		t.Skip("set TELEMETRY_TABLE=1 to emit the overhead table")
	}
	fmt.Println("| N (ring) | off ns/step | on ns/step | overhead | off allocs/step | on allocs/step |")
	fmt.Println("|---:|---:|---:|---:|---:|---:|")
	for _, n := range []int{10_000, 100_000, 1_000_000} {
		off, on, ratio, apsOff, apsOn, err := measureOffOn(n, 17_000, 125, 48)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Printf("| %d | %.0f | %.0f | %+.1f%% | %.2f | %.2f |\n",
			n, off, on, (ratio-1)*100, apsOff, apsOn)
	}
}
