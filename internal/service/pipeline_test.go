package service

import (
	"fmt"
	"testing"

	"snappif/internal/graph"
)

// payloadSeq flattens lane l's delivered (kind, msg, resp) sequence — the
// schedule-independent part of a serving run. Timing fields are excluded by
// design: pipelining changes when waves run, never what they compute.
func payloadSeq(rep *Report, l int) string {
	var s string
	for _, w := range rep.PerLane(l) {
		s += fmt.Sprintf("%s/%d/%d;", w.Kind, w.Msg, w.Resp)
	}
	return s
}

// burst builds K back-to-back requests per lane, cycling the kind mix, all
// arriving in the first few ticks so lanes stay saturated.
func burst(k, lanes int) []Arrival {
	kinds := Kinds()
	var arrivals []Arrival
	for j := 0; j < k; j++ {
		for l := 0; l < lanes; l++ {
			arrivals = append(arrivals, Arrival{
				T:    int64(1 + j),
				Lane: l,
				Kind: kinds[(j+l)%len(kinds)],
			})
		}
	}
	SortArrivals(arrivals)
	return arrivals
}

// TestPipelinedMatchesSerial is the tentpole differential: K pipelined waves
// deliver byte-identical per-lane payload sequences to K serial waves, on
// every engine, for clean and fault-injected starts. Snap-stabilization is
// exactly the property under test — the root re-broadcasting into a network
// still cleaning wave i must not change wave i+1's feedback.
func TestPipelinedMatchesSerial(t *testing.T) {
	topos := []struct {
		spec       string
		initiators []int
	}{
		{"line:12", []int{0, 11}},
		{"ring:16", []int{0, 8}},
		{"grid:4x5", []int{0, 19}},
	}
	for _, k := range []int{2, 4, 8} {
		for _, tp := range topos {
			for _, eng := range engines {
				for _, faults := range [][]string{nil, {"uniform-random", "stale-feedback"}} {
					name := fmt.Sprintf("K%d/%s/%s/fault=%v", k, tp.spec, eng, faults != nil)
					t.Run(name, func(t *testing.T) {
						g, err := graph.Parse(tp.spec)
						if err != nil {
							t.Fatal(err)
						}
						opts := Options{
							Graph: g, Engine: eng, Initiators: tp.initiators,
							Faults: faults, Seed: 3,
						}
						arrivals := burst(k, len(tp.initiators))
						pipe := mustServe(t, opts, arrivals, false)
						serial := mustServe(t, opts, arrivals, true)
						if len(pipe.Waves) != len(arrivals) {
							t.Fatalf("pipelined delivered %d/%d waves", len(pipe.Waves), len(arrivals))
						}
						if len(serial.Waves) != len(arrivals) {
							t.Fatalf("serial delivered %d/%d waves", len(serial.Waves), len(arrivals))
						}
						for l := range tp.initiators {
							p, s := payloadSeq(pipe, l), payloadSeq(serial, l)
							if p != s {
								t.Errorf("lane %d payload sequences diverge:\npipelined %s\nserial    %s", l, p, s)
							}
						}
					})
				}
			}
		}
	}
}

// TestPipelineSpeedupGate is the perf acceptance gate: at pipeline depth 2
// (two saturated initiators), pipelined serving achieves ≥ 1.5× the serial
// closed-loop virtual throughput on large rings and grids.
func TestPipelineSpeedupGate(t *testing.T) {
	if testing.Short() {
		t.Skip("N ≥ 1k speedup gate skipped in -short")
	}
	for _, spec := range []string{"ring:1000", "grid:32x32"} {
		t.Run(spec, func(t *testing.T) {
			g, err := graph.Parse(spec)
			if err != nil {
				t.Fatal(err)
			}
			opts := Options{
				Graph: g, Engine: "sim",
				Initiators: []int{0, g.N() / 2},
				Seed:       9,
				MaxTicks:   1 << 24,
			}
			arrivals := burst(4, 2)
			pipe := mustServe(t, opts, arrivals, false)
			serial := mustServe(t, opts, arrivals, true)
			sp := pipe.WavesPerKTick() / serial.WavesPerKTick()
			t.Logf("%s: pipelined %.3f vs serial %.3f waves/ktick (%.2fx)",
				spec, pipe.WavesPerKTick(), serial.WavesPerKTick(), sp)
			if sp < 1.5 {
				t.Errorf("speedup %.2fx < 1.5x gate", sp)
			}
		})
	}
}

// TestFaultedLaneStillServes: a lane started from every injector's corrupted
// state must still deliver all its requests with correct responses — the
// snap-stabilizing guarantee carried up to the serving layer.
func TestFaultedLaneStillServes(t *testing.T) {
	g, err := graph.Parse("ring:9")
	if err != nil {
		t.Fatal(err)
	}
	for _, eng := range engines {
		for _, f := range []string{"uniform-random", "phantom-tree", "stale-feedback", "stale-region"} {
			t.Run(eng+"/"+f, func(t *testing.T) {
				arrivals := []Arrival{
					{T: 1, Lane: 0, Kind: "snapshot"},
					{T: 2, Lane: 0, Kind: "infimum"},
					{T: 3, Lane: 0, Kind: "barrier"},
				}
				rep := mustServe(t, Options{
					Graph: g, Engine: eng, Faults: []string{f}, Seed: 17,
				}, arrivals, false)
				if len(rep.Waves) != 3 {
					t.Fatalf("delivered %d/3 waves (residue=%d aborts=%d)",
						len(rep.Waves), rep.Residue, rep.Aborts)
				}
				for _, w := range rep.Waves {
					k, _ := ParseKind(w.Kind)
					if want := expectResp(g, 0, k); w.Resp != want {
						t.Errorf("%s resp %d, want %d", w.Kind, w.Resp, want)
					}
				}
			})
		}
	}
}
