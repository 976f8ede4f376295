package service

import (
	"fmt"

	"snappif/internal/event"
	"snappif/internal/hunt"
)

// DumpScenario captures a serving run as a hunt scenario: the topology, the
// lane setup, and the exact arrival schedule, serializable with
// Scenario.Marshal and replayable bit-identically with ReplayScenario. It
// refuses the options New refuses, so every dumped scenario replays. The
// wall Clock is deliberately not captured — replays are always deterministic.
func DumpScenario(name string, opts Options, arrivals []Arrival, serial bool) (*hunt.Scenario, error) {
	if _, err := New(opts); err != nil {
		return nil, err
	}
	initiators := opts.Initiators
	if len(initiators) == 0 {
		initiators = []int{0}
	}
	latency := ""
	if opts.Latency != nil {
		latency = opts.Latency.Name()
	}
	spec := &hunt.ServiceSpec{
		Engine:     opts.Engine,
		Latency:    latency,
		Initiators: append([]int(nil), initiators...),
		Faults:     append([]string(nil), opts.Faults...),
		MaxTicks:   opts.MaxTicks,
		Serial:     serial,
		Arrivals:   make([]hunt.ServiceArrival, len(arrivals)),
	}
	for i, a := range arrivals {
		spec.Arrivals[i] = hunt.ServiceArrival{T: a.T, Lane: a.Lane, Kind: a.Kind}
	}
	return &hunt.Scenario{
		V:        hunt.SchemaVersion,
		Name:     name,
		Topology: hunt.TopologyOf(opts.Graph),
		Root:     initiators[0],
		Seed:     opts.Seed,
		Service:  spec,
	}, nil
}

// ReplayScenario re-runs a serving scenario and returns its report. Replays
// of the same scenario bytes are bit-identical (Report.Canonical) to each
// other and to the original run.
func ReplayScenario(sc *hunt.Scenario) (*Report, error) {
	if sc.Service == nil {
		return nil, fmt.Errorf("service: scenario %q has no service spec; run it with hunt", sc.Name)
	}
	g, err := sc.Graph()
	if err != nil {
		return nil, err
	}
	var lat event.Latency
	if sc.Service.Latency != "" {
		lat, err = event.ParseLatency(sc.Service.Latency)
		if err != nil {
			return nil, fmt.Errorf("service: scenario %q: %w", sc.Name, err)
		}
	}
	srv, err := New(Options{
		Graph:      g,
		Engine:     sc.Service.Engine,
		Latency:    lat,
		Initiators: sc.Service.Initiators,
		Faults:     sc.Service.Faults,
		Seed:       sc.Seed,
		MaxTicks:   sc.Service.MaxTicks,
	})
	if err != nil {
		return nil, err
	}
	arrivals := make([]Arrival, len(sc.Service.Arrivals))
	for i, a := range sc.Service.Arrivals {
		arrivals[i] = Arrival{T: a.T, Lane: a.Lane, Kind: a.Kind}
	}
	if sc.Service.Serial {
		return srv.RunSerial(arrivals)
	}
	return srv.Run(arrivals)
}
