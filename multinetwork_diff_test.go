package snappif_test

import (
	"fmt"
	"testing"

	"snappif"
	"snappif/internal/graph"
	"snappif/internal/service"
)

// corruptions is the facade corruption list in a fixed order, so a fuzz
// corpus byte names one stably.
var corruptions = []snappif.Corruption{
	snappif.CorruptUniform,
	snappif.CorruptPartial,
	snappif.CorruptPhantomTree,
	snappif.CorruptPrematureFok,
	snappif.CorruptInflatedCounts,
	snappif.CorruptStaleFeedback,
	snappif.CorruptMaxLevels,
	snappif.CorruptStaleRegion,
}

// TestMultiNetworkCorruptMidWave corrupts an instance between serving bursts
// — when the composed system is mid-flight, not at a clean start — and
// checks every subsequent wave still satisfies [PIF1]/[PIF2]. RunWavesEach
// stops the moment the slowest initiator finishes its k-th wave, so the
// other instances are generally mid-wave at that point; corrupting there is
// the snap-stabilization claim under live load.
func TestMultiNetworkCorruptMidWave(t *testing.T) {
	topo, err := snappif.Grid(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	net, err := snappif.NewMultiNetwork(topo, []int{0, 11}, snappif.WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.RunWavesEach(1); err != nil {
		t.Fatal(err)
	}
	for _, kind := range corruptions {
		if err := net.CorruptInstance(0, kind); err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		waves, err := net.RunWavesEach(1)
		if err != nil {
			t.Fatalf("after mid-wave %v: %v", kind, err)
		}
		for _, w := range waves {
			if !w.OK(topo.N()) {
				t.Fatalf("after mid-wave %v: violated wave %+v", kind, w)
			}
		}
	}
}

// lanePayloads serves a saturated burst of k snapshot requests per lane and
// returns the per-lane (kind, msg, resp) sequences.
func lanePayloads(t *testing.T, g *graph.Graph, engine string, initiators []int, faults []string, seed int64, k int) []string {
	t.Helper()
	srv, err := service.New(service.Options{
		Graph: g, Engine: engine, Initiators: initiators, Faults: faults, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	var arrivals []service.Arrival
	kinds := service.Kinds()
	for j := 0; j < k; j++ {
		for l := range initiators {
			arrivals = append(arrivals, service.Arrival{
				T: int64(1 + j), Lane: l, Kind: kinds[(j+l)%len(kinds)],
			})
		}
	}
	service.SortArrivals(arrivals)
	rep, err := srv.Run(arrivals)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Waves) != len(arrivals) {
		t.Fatalf("%s delivered %d/%d waves", engine, len(rep.Waves), len(arrivals))
	}
	out := make([]string, len(initiators))
	for l := range initiators {
		for _, w := range rep.PerLane(l) {
			out[l] += fmt.Sprintf("%s/%d/%d;", w.Kind, w.Msg, w.Resp)
		}
	}
	return out
}

// TestMultiInitiatorCrossEngine is the sim/event differential over
// multi-initiator concurrent waves: the same initiator set serving the same
// burst must deliver identical per-initiator payload sequences on the sim
// engine and on the event engine's per-link latencies, from clean and
// corrupted starts. The MultiNetwork facade leg checks the composed product
// delivers [PIF1]/[PIF2]-correct waves for the same initiator sets.
func TestMultiInitiatorCrossEngine(t *testing.T) {
	cases := []struct {
		spec       string
		initiators []int
		faults     []string
	}{
		{"ring:10", []int{0, 5}, nil},
		{"grid:3x4", []int{0, 11}, nil},
		{"line:9", []int{0, 4, 8}, nil},
		{"grid:3x4", []int{0, 11}, []string{"uniform-random", "stale-feedback"}},
		{"ring:10", []int{0, 5}, []string{"phantom-tree", "stale-region"}},
	}
	for _, tc := range cases {
		name := tc.spec
		if tc.faults != nil {
			name += "/faulted"
		}
		t.Run(name, func(t *testing.T) {
			g, err := graph.Parse(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			sim := lanePayloads(t, g, "sim", tc.initiators, tc.faults, 13, 3)
			evt := lanePayloads(t, g, "event", tc.initiators, tc.faults, 13, 3)
			for l := range tc.initiators {
				if sim[l] != evt[l] {
					t.Errorf("lane %d sim vs event diverge:\nsim   %s\nevent %s", l, sim[l], evt[l])
				}
			}
		})
	}
}

// FuzzMultiNetworkWaves is the multi-initiator fuzz oracle, the concurrent
// analog of FuzzThreeEngines: for any (topology, two corrupted instances,
// seed) the fuzzer invents, (a) the composed MultiNetwork must complete
// [PIF1]/[PIF2]-correct waves for every initiator, and (b) the sim and
// event engines must agree on the per-initiator payload sequences when
// serving the same multi-initiator start.
func FuzzMultiNetworkWaves(f *testing.F) {
	for i := range corruptions {
		f.Add(byte(i%4), byte(i), byte(i), byte((i+3)%len(corruptions)), int64(100+i))
	}
	f.Add(byte(1), byte(9), byte(0), byte(5), int64(7))
	f.Add(byte(2), byte(5), byte(2), byte(2), int64(-3))

	f.Fuzz(func(t *testing.T, topoPick, nRaw, c1, c2 byte, seed int64) {
		n := 4 + int(nRaw)%8
		if seed == 0 {
			seed = 1
		}
		var (
			topo snappif.Topology
			spec string
			err  error
		)
		switch topoPick % 4 {
		case 0:
			topo, err = snappif.Line(n)
			spec = fmt.Sprintf("line:%d", n)
		case 1:
			topo, err = snappif.Ring(n)
			spec = fmt.Sprintf("ring:%d", n)
		case 2:
			topo, err = snappif.Star(n)
			spec = fmt.Sprintf("star:%d", n)
		default:
			topo, err = snappif.Grid(2, (n+1)/2)
			spec = fmt.Sprintf("grid:2x%d", (n+1)/2)
			n = 2 * ((n + 1) / 2)
		}
		if err != nil {
			t.Fatal(err)
		}
		initiators := []int{0, n - 1}

		net, err := snappif.NewMultiNetwork(topo, initiators, snappif.WithSeed(seed))
		if err != nil {
			t.Fatal(err)
		}
		if err := net.CorruptInstance(0, corruptions[int(c1)%len(corruptions)]); err != nil {
			t.Fatal(err)
		}
		if err := net.CorruptInstance(1, corruptions[int(c2)%len(corruptions)]); err != nil {
			t.Fatal(err)
		}
		waves, err := net.RunWavesEach(2)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range waves {
			if !w.OK(topo.N()) {
				t.Fatalf("violated wave %+v", w)
			}
		}

		g, err := graph.Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		faultName := []string{"uniform-random", "partial-random", "phantom-tree", "premature-fok",
			"inflated-counts", "stale-feedback", "max-levels", "stale-region"}
		faults := []string{faultName[int(c1)%len(faultName)], faultName[int(c2)%len(faultName)]}
		sim := lanePayloads(t, g, "sim", initiators, faults, seed, 2)
		evt := lanePayloads(t, g, "event", initiators, faults, seed, 2)
		for l := range initiators {
			if sim[l] != evt[l] {
				t.Errorf("lane %d sim vs event diverge:\nsim   %s\nevent %s", l, sim[l], evt[l])
			}
		}
	})
}
