package telemetry_test

import (
	"fmt"
	"math/rand"
	"testing"

	"snappif/internal/check"
	"snappif/internal/core"
	"snappif/internal/event"
	"snappif/internal/flat"
	"snappif/internal/graph"
	"snappif/internal/sim"
	"snappif/internal/telemetry"
)

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// testConfig is the telemetry shape the cross-engine tests share: tight
// cadences so short runs still exercise sampling and the flight recorder.
func testConfig() telemetry.Config {
	return telemetry.Config{SampleEvery: 4, SeriesCap: 64, FlightDepth: 2, FlightEvery: 8}
}

// runGenericTelemetry runs k clean waves on the generic engine with a fresh
// telemetry attached through the observer adapter.
func runGenericTelemetry(t *testing.T, g *graph.Graph, seed int64, k int) *telemetry.Telemetry {
	t.Helper()
	tel := telemetry.New(testConfig())
	if err := runGenericInto(tel, g, seed, k); err != nil {
		t.Fatal(err)
	}
	return tel
}

func runGenericInto(tel *telemetry.Telemetry, g *graph.Graph, seed int64, k int) error {
	pr, err := core.New(g, 0)
	if err != nil {
		return err
	}
	cy := check.NewCycleObserver(pr)
	d := sim.DistributedRandom{P: 0.5}
	cfg := sim.NewConfiguration(g, pr)
	to := &telemetry.Observer{T: tel, Proto: pr}
	to.Begin(telemetry.RunMeta{
		G: g, Root: 0, Seed: seed - 1, Engine: "sim", Daemon: d.Name(), NextMsg: pr.NextMsg,
	}, cfg)
	if _, err := sim.Run(cfg, pr, d, sim.Options{
		MaxSteps:  500_000,
		Seed:      seed,
		Observers: []sim.Observer{cy, to},
		StopWhen:  cy.StopAfterCycles(k),
	}); err != nil {
		return err
	}
	if cy.CompletedCycles() < k {
		return fmt.Errorf("generic run completed %d/%d cycles", cy.CompletedCycles(), k)
	}
	return nil
}

// runFlatTelemetry is runGenericTelemetry on the flat engine — event.Runner
// under the same daemon, reporting through its built-in hooks; the engines
// are bit-identical, so both report the same logical telemetry.
func runFlatTelemetry(t *testing.T, g *graph.Graph, seed int64, k int) *telemetry.Telemetry {
	t.Helper()
	tel := telemetry.New(testConfig())
	if err := runFlatInto(tel, g, seed, k); err != nil {
		t.Fatal(err)
	}
	return tel
}

func runFlatInto(tel *telemetry.Telemetry, g *graph.Graph, seed int64, k int) error {
	pr, err := core.New(g, 0)
	if err != nil {
		return err
	}
	kern, err := flat.FromCore(pr)
	if err != nil {
		return err
	}
	fc, err := flat.NewConfig(kern)
	if err != nil {
		return err
	}
	cy := check.NewCycleObserver(pr)
	d := sim.DistributedRandom{P: 0.5}
	opts := event.Options{
		Options: sim.Options{
			MaxSteps:  500_000,
			Seed:      seed,
			Observers: []sim.Observer{cy},
			StopWhen:  cy.StopAfterCycles(k),
		},
		Telemetry:     tel,
		TelemetryMeta: telemetry.RunMeta{Seed: seed - 1, Engine: "event"},
	}
	if _, err := event.Run(fc, kern, d, opts); err != nil {
		return err
	}
	if cy.CompletedCycles() < k {
		return fmt.Errorf("flat run completed %d/%d cycles", cy.CompletedCycles(), k)
	}
	return nil
}
