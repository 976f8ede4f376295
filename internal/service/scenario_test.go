package service

import (
	"bytes"
	"encoding/json"
	"testing"

	"snappif/internal/graph"
	"snappif/internal/hunt"
)

// TestScenarioDumpReplayBitIdentical proves the replay chain: serve a
// workload, dump the scenario, marshal → unmarshal, replay — the replayed
// report's canonical bytes equal the original's, on every engine, pipelined
// and serial, clean and faulted. The reference lane has no engine name of
// its own: its runs are dumped as the sim runs they equal, and a scenario
// that also carries the retired "sweep_workers" field must still decode and
// replay byte-identically.
func TestScenarioDumpReplayBitIdentical(t *testing.T) {
	g, err := graph.Parse("grid:3x4")
	if err != nil {
		t.Fatal(err)
	}
	w := Workload{Rate: 60, Requests: 20, Lanes: 2, Seed: 23}
	arrivals, err := w.Generate()
	if err != nil {
		t.Fatal(err)
	}
	for _, eng := range engines {
		for _, serial := range []bool{false, true} {
			for _, faults := range [][]string{nil, {"uniform-random", "stale-region"}} {
				name := eng
				if serial {
					name += "/serial"
				}
				if faults != nil {
					name += "/faulted"
				}
				t.Run(name, func(t *testing.T) {
					opts := Options{
						Graph: g, Engine: eng, Initiators: []int{0, 11},
						Faults: faults, Seed: 29,
					}
					orig := mustServe(t, opts, arrivals, serial)

					dumped := opts
					if eng == refEngine {
						dumped.Engine = "sim"
					}
					sc, err := DumpScenario("replay-test", dumped, arrivals, serial)
					if err != nil {
						t.Fatalf("DumpScenario: %v", err)
					}
					data, err := sc.Marshal()
					if err != nil {
						t.Fatalf("Marshal: %v", err)
					}
					sc2, err := hunt.Unmarshal(data)
					if err != nil {
						t.Fatalf("Unmarshal: %v", err)
					}
					rep, err := ReplayScenario(sc2)
					if err != nil {
						t.Fatalf("ReplayScenario: %v", err)
					}
					if !bytes.Equal(orig.Canonical(), rep.Canonical()) {
						t.Errorf("replay diverged from original:\n--- original\n%s--- replay\n%s",
							orig.Canonical(), rep.Canonical())
					}
					if eng != refEngine {
						return
					}
					var raw map[string]any
					if err := json.Unmarshal(data, &raw); err != nil {
						t.Fatal(err)
					}
					raw["service"].(map[string]any)["sweep_workers"] = 4
					old, err := json.Marshal(raw)
					if err != nil {
						t.Fatal(err)
					}
					sc3, err := hunt.Unmarshal(old)
					if err != nil {
						t.Fatalf("Unmarshal with sweep_workers: %v", err)
					}
					rep3, err := ReplayScenario(sc3)
					if err != nil {
						t.Fatalf("ReplayScenario with sweep_workers: %v", err)
					}
					if !bytes.Equal(orig.Canonical(), rep3.Canonical()) {
						t.Errorf("sweep_workers scenario replay diverged from original:\n--- original\n%s--- replay\n%s",
							orig.Canonical(), rep3.Canonical())
					}
				})
			}
		}
	}
}

// TestServiceScenarioGuards pins the routing contract: hunt refuses to Run a
// service scenario, and service refuses to replay a plain one.
func TestServiceScenarioGuards(t *testing.T) {
	g, _ := graph.Parse("line:4")
	sc, err := DumpScenario("guard", Options{Graph: g, Engine: "sim"}, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sc.Run(nil, nil); err == nil {
		t.Error("hunt.Scenario.Run accepted a service scenario")
	}
	plain := &hunt.Scenario{V: hunt.SchemaVersion, Topology: hunt.TopologyOf(g)}
	if _, err := ReplayScenario(plain); err == nil {
		t.Error("ReplayScenario accepted a plain scenario")
	}
}

// TestServiceScenarioClone checks the deep copy covers the service spec.
func TestServiceScenarioClone(t *testing.T) {
	g, _ := graph.Parse("line:4")
	sc, err := DumpScenario("clone", Options{Graph: g, Engine: "event", Initiators: []int{0, 2}},
		[]Arrival{{T: 1, Lane: 0, Kind: "snapshot"}}, false)
	if err != nil {
		t.Fatal(err)
	}
	cl := sc.Clone()
	cl.Service.Arrivals[0].Kind = "barrier"
	cl.Service.Initiators[1] = 3
	if sc.Service.Arrivals[0].Kind != "snapshot" || sc.Service.Initiators[1] != 2 {
		t.Error("Clone shares service spec slices with the original")
	}
}
