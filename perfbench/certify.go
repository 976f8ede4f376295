package main

import (
	"fmt"
	"runtime"
	"time"

	"snappif/internal/core"
	"snappif/internal/explore"
	"snappif/internal/graph"
)

// The certify workload answers two certification questions on the sim
// engine: exhaustive safety exploration of grid:2x3 from every faults:2
// start under the central daemon (POR and symmetry on), and the Theorem 1
// liveness bound (reach a normal configuration) on ring:5 from faults:2.
// Both are exhaustive and therefore seed-free: the seed changes nothing.
const (
	certifySafetyTopo   = "grid:2x3"
	certifyLivenessTopo = "ring:5"
	certifyInits        = "faults:2"
	certifyWorkers      = 2
)

var certifyWorkload = &workload{
	name:    "certify",
	threads: min(certifyWorkers, runtime.NumCPU()),
	params: map[string]any{
		"safety":          fmt.Sprintf("explore %s from %s, sim engine, central daemon, POR, symmetry", certifySafetyTopo, certifyInits),
		"liveness":        fmt.Sprintf("CertifyLiveness %s from %s, sim engine, target normal, theorem bound", certifyLivenessTopo, certifyInits),
		"workers":         fmt.Sprintf("min(%d, NumCPU)", certifyWorkers),
		"min_repetitions": minReps,
		"set_ups":         fmt.Sprintf("before every repetition, at least %d and %gs of set-up work", setupSamples, setupSlice),
		"seeded":          "nothing: both questions are exhaustive",
	},
	run: runCertify,
}

// certifySetup is one set-up of the certify workload: both questions' start
// vectors and the safety explorer, with the durations of their construction.
type certifySetup struct {
	gLiveness                  *graph.Graph
	initsSafety, initsLiveness [][]core.State
	ex                         *explore.Explorer
	graphD, exploreD           time.Duration
}

func buildCertify(r *runCtx, parent int32, workers int) (*certifySetup, error) {
	s := &certifySetup{}
	t0 := time.Now()
	sp := r.tr.start("graph.Parse", parent)
	gs, err := graph.Parse(certifySafetyTopo)
	if err == nil {
		s.gLiveness, err = graph.Parse(certifyLivenessTopo)
	}
	r.tr.finish(sp)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	sp = r.tr.start("explore.Inits+New", parent)
	defer r.tr.finish(sp)
	if s.initsSafety, err = explore.Inits(certifyInits, gs, 0, nil); err != nil {
		return nil, err
	}
	if s.initsLiveness, err = explore.Inits(certifyInits, s.gLiveness, 0, nil); err != nil {
		return nil, err
	}
	s.ex, err = explore.New(gs, 0, explore.Options{
		Engine: "sim", Power: explore.PowerCentral, Workers: workers, POR: true, Symmetry: true,
	})
	if err != nil {
		return nil, err
	}
	s.graphD, s.exploreD = t1.Sub(t0), time.Since(t1)
	return s, nil
}

func runCertify(r *runCtx) error {
	root := r.tr.start("certify", -1)
	defer r.tr.finish(root)
	workers := runtime.GOMAXPROCS(0)

	var (
		setupS, graphS, exploreSetupS, runS, liveS, certifyS []float64
		peakMB                                               float64
		last                                                 *explore.Result
		lastLive                                             *explore.LivenessResult
		spent                                                time.Duration
	)
	build := func() (*certifySetup, error) {
		runtime.GC() // see setupSlice
		s, err := buildCertify(r, root, workers)
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, (s.graphD + s.exploreD).Seconds())
		graphS = append(graphS, s.graphD.Seconds())
		exploreSetupS = append(exploreSetupS, s.exploreD.Seconds())
		return s, nil
	}
	for rep := 0; rep < minReps || spent.Seconds() < r.seconds; rep++ {
		for first := len(setupS); moreSetups(setupS[first:]); {
			if _, err := build(); err != nil {
				return err
			}
		}
		base := liveHeapMB()
		s, err := build()
		if err != nil {
			return err
		}
		runtime.GC() // every repetition's timed calls start from a collected heap

		sp := r.tr.start("explore.Explorer.Run", root)
		t3 := time.Now()
		res, err := s.ex.Run(s.initsSafety)
		runD := time.Since(t3)
		r.tr.finish(sp)
		if err != nil {
			return err
		}
		sp = r.tr.start("explore.CertifyLiveness", root)
		t4 := time.Now()
		live, err := explore.CertifyLiveness(s.gLiveness, 0, s.initsLiveness, explore.LivenessOptions{Engine: "sim", Target: explore.TargetNormal})
		liveD := time.Since(t4)
		r.tr.finish(sp)
		if err != nil {
			return err
		}
		spent += runD + liveD
		peakMB = max(peakMB, liveHeapMB()-base)
		runtime.KeepAlive(s.ex)
		runS = append(runS, runD.Seconds())
		liveS = append(liveS, liveD.Seconds())
		certifyS = append(certifyS, (runD + liveD).Seconds())

		r.ops += 2
		if res.Verdict != "certified" || !res.Complete {
			r.failedOps++
			r.fail("certify: safety on %s: verdict %q complete=%v %s", certifySafetyTopo, res.Verdict, res.Complete, res.Violation)
		}
		if live.Verdict != "certified" || !live.Complete || live.WorstRounds > live.Bound {
			r.failedOps++
			r.fail("certify: liveness on %s: verdict %q complete=%v worst %d rounds, bound %d %s",
				certifyLivenessTopo, live.Verdict, live.Complete, live.WorstRounds, live.Bound, live.Violation)
		}
		r.gateExact(rep, map[string]string{
			"states":               fmt.Sprint(res.States),
			"transitions":          fmt.Sprint(res.Transitions),
			"slept":                fmt.Sprint(res.Slept),
			"fingerprint":          res.Fingerprint,
			"liveness_states":      fmt.Sprint(live.ProductStates),
			"liveness_transitions": fmt.Sprint(live.Transitions),
			"liveness_worst":       fmt.Sprint(live.WorstRounds),
		})
		last, lastLive = res, live
	}

	certify := median(certifyS)
	run := median(runS)
	r.unitCost = certify / 2
	r.e2e = map[string]float64{"setup_s": median(setupS), "mem_peak_mb": peakMB, "ops_per_s": 2 / certify}
	r.info = map[string]float64{
		"certify_s":            certify,
		"repetitions":          float64(len(certifyS)),
		"workers":              float64(workers),
		"liveness_worst_round": float64(lastLive.WorstRounds),
		"liveness_bound":       float64(lastLive.Bound),
	}
	r.layer = map[string]float64{
		"graph.build_s":           median(graphS),
		"explore.setup_s":         median(exploreSetupS),
		"explore.run_s":           run,
		"explore.liveness_s":      median(liveS),
		"explore.states":          float64(last.States),
		"explore.transitions":     float64(last.Transitions),
		"explore.liveness_states": float64(lastLive.ProductStates),
		"explore.states_per_s":    float64(last.States) / run,
		"explore.por_saved_frac":  float64(last.Slept) / float64(last.Transitions+last.Slept),
	}
	return nil
}
