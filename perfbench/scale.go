package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"snappif/internal/core"
	"snappif/internal/event"
	"snappif/internal/flat"
	"snappif/internal/graph"
	"snappif/internal/sim"
	"snappif/internal/telemetry"
)

// The scale workload: consecutive PIF waves from the clean start on a
// 100,000-processor sparse random graph, the event runner in external-daemon
// mode under the synchronous daemon, every processor feeding a seeded value
// back into a summing fold. No wake queue, no service layer.
const (
	scaleN      = 100_000
	scaleExtra  = 25_000
	scaleRoot   = 0
	scaleValMax = 1 << 20 // processor values are drawn from [0, scaleValMax)
	minWaves    = 3       // the first wave plus two full cycles to compare
)

var scaleWorkload = &workload{
	name:    "scale",
	threads: 1,
	params: map[string]any{
		"topology":   fmt.Sprintf("graph.RandomSparse(%d, %d, seeded rng)", scaleN, scaleExtra),
		"root":       scaleRoot,
		"engine":     "event (external-daemon mode, nil latency)",
		"daemon":     "synchronous",
		"combine":    "sum of seeded processor values",
		"start":      "clean",
		"set_ups":    fmt.Sprintf("before the waves, at least %d and %gs of set-up work", setupSamples, setupSlice),
		"stop":       "first completed wave after the time budget",
		"seeded":     "graph and processor values",
		"wave_times": "median over the complete cycles after the first wave",
	},
	run: runScale,
}

// scaleInstance is one set-up: the runner, its configuration and the sum
// every completed wave must deliver at the root.
type scaleInstance struct {
	c   *flat.Config
	run *event.Runner
	sum int64
}

// buildScale makes one instance and returns the durations of its graph,
// kernel/config and runner construction.
func buildScale(r *runCtx, parent int32) (inst scaleInstance, graphD, kernelD, runnerD time.Duration, err error) {
	rng := rand.New(rand.NewSource(derive(r.seed, 1)))
	t0 := time.Now()
	sp := r.tr.start("graph.RandomSparse", parent)
	g, err := graph.RandomSparse(scaleN, scaleExtra, rng)
	r.tr.finish(sp)
	if err != nil {
		return inst, 0, 0, 0, err
	}
	t1 := time.Now()
	sp = r.tr.start("flat.kernel", parent)
	pr, err := core.New(g, scaleRoot, core.WithCombine(func(acc, child int64) int64 { return acc + child }))
	if err != nil {
		return inst, 0, 0, 0, err
	}
	k, err := flat.FromCore(pr)
	if err != nil {
		return inst, 0, 0, 0, err
	}
	c, err := flat.NewConfig(k)
	if err != nil {
		return inst, 0, 0, 0, err
	}
	for p := 0; p < c.N(); p++ {
		s := c.StateAt(p)
		s.Val = rng.Int63n(scaleValMax)
		c.SetState(p, s)
		inst.sum += s.Val
	}
	r.tr.finish(sp)
	t2 := time.Now()
	sp = r.tr.start("event.NewRunner", parent)
	run, err := event.NewRunner(c, k, sim.Synchronous{}, event.Options{
		Options: sim.Options{Seed: derive(r.seed, 2), MaxSteps: math.MaxInt32},
	})
	r.tr.finish(sp)
	if err != nil {
		return inst, 0, 0, 0, err
	}
	inst.c, inst.run = c, run
	return inst, t1.Sub(t0), t2.Sub(t1), time.Since(t2), nil
}

// scaleWave is one completed wave: root broadcast-feedback to the next.
type scaleWave struct {
	steps, moves int
	wall         time.Duration
}

func runScale(r *runCtx) error {
	root := r.tr.start("scale", -1)
	defer r.tr.finish(root)

	base := liveHeapMB()
	var (
		inst                          scaleInstance
		setupS, graphS, kernelS, newS []float64
	)
	for moreSetups(setupS) {
		inst = scaleInstance{}
		runtime.GC() // see setupSlice
		t0 := time.Now()
		var gd, kd, rd time.Duration
		var err error
		if inst, gd, kd, rd, err = buildScale(r, root); err != nil {
			return err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		graphS = append(graphS, gd.Seconds())
		kernelS = append(kernelS, kd.Seconds())
		newS = append(newS, rd.Seconds())
	}
	peakMB := liveHeapMB() - base
	runtime.KeepAlive(inst)

	// Step until the first completed wave after the budget, and at least
	// minWaves waves. A wave completes when the root turns from broadcast
	// to feedback; its aggregate must then be the sum of every processor's
	// value.
	var (
		waves     []scaleWave
		stepNS    []int64 // traced phase only
		steps     int
		waveSteps int
		waveMoves int
		prev            = inst.c.Phase(scaleRoot)
		budget          = time.Duration(r.seconds * float64(time.Second))
		hardStop        = budget + time.Minute
		waveSpan  int32 = -1
	)
	start := time.Now()
	waveStart := start
	for {
		if waveSpan < 0 {
			waveSpan = r.tr.start("pif.wave", root)
		}
		var t0 time.Time
		stepSpan := r.tr.start("event.Runner.Step", waveSpan)
		if r.tr != nil {
			t0 = time.Now()
		}
		done, err := inst.run.Step()
		if r.tr != nil {
			stepNS = append(stepNS, time.Since(t0).Nanoseconds())
		}
		r.tr.finish(stepSpan)
		if err != nil {
			return err
		}
		if done {
			r.fail("scale: the run terminated after %d steps; a PIF root re-broadcasts forever", steps)
			break
		}
		steps++
		cur := inst.c.Phase(scaleRoot)
		if prev == core.B && cur == core.F {
			now := time.Now()
			total := inst.run.Result().Moves
			waves = append(waves, scaleWave{steps: steps - waveSteps, moves: total - waveMoves, wall: now.Sub(waveStart)})
			waveSteps, waveMoves, waveStart = steps, total, now
			r.ops++
			if got := inst.c.Agg(scaleRoot); got != inst.sum {
				r.failedOps++
				r.fail("scale: wave %d delivered aggregate %d, want the value sum %d", len(waves), got, inst.sum)
			}
			r.tr.attr(waveSpan, "steps", int64(waves[len(waves)-1].steps))
			r.tr.finish(waveSpan)
			waveSpan = -1
			if now.Sub(start) >= budget && len(waves) >= minWaves {
				break
			}
		}
		prev = cur
		if time.Since(start) > hardStop {
			r.fail("scale: stopped mid-wave after %v", hardStop)
			break
		}
	}
	r.tr.finish(waveSpan)
	peakMB = max(peakMB, liveHeapMB()-base)
	runtime.KeepAlive(inst)

	// The first wave starts from the clean configuration with no cleaning
	// before it; every later wave is a full cycle and must repeat exactly.
	if len(waves) < minWaves {
		return fmt.Errorf("only %d waves completed in %v; %d are needed", len(waves), hardStop, minWaves)
	}
	cycles := waves[1:]
	var cycleWall []float64
	var cycleMoves int
	for i, w := range cycles {
		if w.steps != cycles[0].steps || w.moves != cycles[0].moves {
			r.fail("determinism: cycle %d took %d steps/%d moves, cycle 1 %d/%d", i+1, w.steps, w.moves, cycles[0].steps, cycles[0].moves)
		}
		cycleWall = append(cycleWall, w.wall.Seconds())
		cycleMoves += w.moves
	}
	wave := median(cycleWall)
	r.unitCost = wave
	r.e2e = map[string]float64{"setup_s": median(setupS), "mem_peak_mb": peakMB, "ops_per_s": 1 / wave}
	r.info = map[string]float64{
		"waves_per_s":      1 / wave,
		"waves_completed":  float64(len(waves)),
		"first_wave_steps": float64(waves[0].steps),
		"steps_per_wave":   float64(cycles[0].steps),
		"moves_per_wave":   float64(cycles[0].moves),
	}
	r.exact = map[string]string{
		"steps_per_wave":   fmt.Sprint(cycles[0].steps),
		"moves_per_step":   fmt.Sprintf("%.6f", float64(cycles[0].moves)/float64(cycles[0].steps)),
		"first_wave_steps": fmt.Sprint(waves[0].steps),
		"first_wave_moves": fmt.Sprint(waves[0].moves),
		"value_sum":        fmt.Sprint(inst.sum),
	}
	r.layer = map[string]float64{
		"graph.build_s":        median(graphS),
		"flat.kernel_s":        median(kernelS),
		"event.new_runner_s":   median(newS),
		"event.moves_per_step": float64(cycles[0].moves) / float64(cycles[0].steps),
		"event.steps_per_wave": float64(cycles[0].steps),
	}
	if len(stepNS) > 0 {
		cyc := stepNS[waves[0].steps:waveSteps] // the steps of complete cycles
		var busy int64
		for _, ns := range cyc {
			busy += ns
		}
		r.layer["event.step_ns_p50"] = float64(telemetry.ExactQuantile(cyc, 0.50))
		r.layer["event.step_ns_p99"] = float64(telemetry.ExactQuantile(cyc, 0.99))
		r.layer["event.moves_per_s"] = float64(cycleMoves) / (float64(busy) / 1e9)
	}
	return nil
}
