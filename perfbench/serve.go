package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"time"

	"snappif/internal/event"
	"snappif/internal/graph"
	"snappif/internal/service"
	"snappif/internal/telemetry"
)

// The serve workload: Poisson open-loop PIF requests, a uniform mix of the
// five request kinds, on four lanes of a 32x32 grid served by the event
// engine. Lane 0 starts clean, lanes 1-3 from corrupted configurations. At
// 3 requests per 1000 ticks the lanes run at about half their capacity:
// queueing bursts set p99, but the backlog does not grow.
const (
	serveTopology = "grid:32x32"
	serveLatency  = "uniform:1-4"
	serveLanes    = 4
	serveRate     = 3.0 // requests per 1000 virtual ticks
	serveRequests = 1000
)

var serveFaults = []string{"", "uniform-random", "phantom-tree", "stale-region"}

var serveWorkload = &workload{
	name:    "serve",
	threads: 1,
	params: map[string]any{
		"topology":        serveTopology,
		"engine":          "event",
		"latency":         serveLatency,
		"initiators":      "i*N/4 for lanes i = 0..3",
		"lane_faults":     serveFaults,
		"process":         "poisson (open loop)",
		"rate_per_ktick":  serveRate,
		"requests":        serveRequests,
		"mix":             "uniform over the five request kinds",
		"min_repetitions": minReps,
		"set_ups":         fmt.Sprintf("before every repetition, at least %d and %gs of set-up work", setupSamples, setupSlice),
		"seeded":          "arrivals, lane seeds and fault draws",
	},
	run: runServe,
}

func serveInitiators(g *graph.Graph) []int {
	out := make([]int, serveLanes)
	for i := range out {
		out[i] = i * g.N() / serveLanes
	}
	return out
}

// laneKind keys the reference responses: a reset wave answers with its
// lane root's own value, so responses depend on the lane as well as the kind.
type laneKind struct {
	lane int
	kind string
}

// serveReference answers one request of every kind on every lane with
// RunSerial on a clean server over the same graph: the responses every
// served request must match.
func serveReference(lat event.Latency) (map[laneKind]int64, error) {
	g, err := graph.Parse(serveTopology)
	if err != nil {
		return nil, err
	}
	srv, err := service.New(service.Options{Graph: g, Engine: "event", Latency: lat, Initiators: serveInitiators(g)})
	if err != nil {
		return nil, err
	}
	var arrivals []service.Arrival
	for l := 0; l < serveLanes; l++ {
		for _, k := range service.Kinds() {
			arrivals = append(arrivals, service.Arrival{T: int64(len(arrivals) + 1), Lane: l, Kind: k})
		}
	}
	rep, err := srv.RunSerial(arrivals)
	if err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	if len(rep.Waves) != len(arrivals) {
		return nil, fmt.Errorf("reference run delivered %d of %d requests", len(rep.Waves), len(arrivals))
	}
	ref := map[laneKind]int64{}
	for _, w := range rep.Waves {
		ref[laneKind{w.Lane, w.Kind}] = w.Resp
	}
	return ref, nil
}

// clockLog is the Options.Clock hook of a traced phase: it keeps every
// reading, in call order, on the tracer's clock.
type clockLog struct {
	tr       *tracer
	readings []int64
}

func (c *clockLog) read() int64 {
	v := c.tr.now()
	c.readings = append(c.readings, v)
	return v
}

// serveSetup is one set-up of the serve workload: the generated arrivals and
// a server ready to run them, with the durations of each construction step.
type serveSetup struct {
	arrivals           []service.Arrival
	srv                *service.Server
	clock              *clockLog // traced phases only
	graphD, genD, newD time.Duration
}

func buildServe(r *runCtx, parent int32, lat event.Latency) (*serveSetup, error) {
	s := &serveSetup{}
	t0 := time.Now()
	sp := r.tr.start("graph.Parse", parent)
	g, err := graph.Parse(serveTopology)
	r.tr.finish(sp)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	wl := service.Workload{Process: "poisson", Rate: serveRate, Requests: serveRequests, Lanes: serveLanes, Seed: derive(r.seed, 1)}
	sp = r.tr.start("service.Workload.Generate", parent)
	s.arrivals, err = wl.Generate()
	r.tr.finish(sp)
	if err != nil {
		return nil, err
	}
	t2 := time.Now()
	opts := service.Options{
		Graph: g, Engine: "event", Latency: lat, Initiators: serveInitiators(g),
		Faults: serveFaults, Seed: derive(r.seed, 2),
	}
	if r.tr != nil {
		s.clock = &clockLog{tr: r.tr}
		opts.Clock = s.clock.read
	}
	sp = r.tr.start("service.New", parent)
	s.srv, err = service.New(opts)
	r.tr.finish(sp)
	if err != nil {
		return nil, err
	}
	s.graphD, s.genD, s.newD = t1.Sub(t0), t2.Sub(t1), time.Since(t2)
	return s, nil
}

func runServe(r *runCtx) error {
	lat, err := event.ParseLatency(serveLatency)
	if err != nil {
		return err
	}
	root := r.tr.start("serve", -1)
	defer r.tr.finish(root)
	sp := r.tr.start("service.RunSerial(reference)", root)
	ref, err := serveReference(lat)
	r.tr.finish(sp)
	if err != nil {
		return err
	}

	var (
		setupS, graphS, genS, newS, runS []float64
		peakMB                           float64
		lateness                         int64 // largest enqueue tick minus due tick
		last                             *service.Report
		spent                            time.Duration
	)
	build := func() (*serveSetup, error) {
		runtime.GC() // see setupSlice
		s, err := buildServe(r, root, lat)
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, (s.graphD + s.genD + s.newD).Seconds())
		graphS = append(graphS, s.graphD.Seconds())
		genS = append(genS, s.genD.Seconds())
		newS = append(newS, s.newD.Seconds())
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
		arrivals := s.arrivals
		runtime.GC() // every repetition's timed call starts from a collected heap

		runSpan := r.tr.start("service.Server.Run", root)
		t0 := time.Now()
		report, err := s.srv.Run(arrivals)
		d := time.Since(t0)
		r.tr.finish(runSpan)
		if err != nil {
			return err
		}
		spent += d
		peakMB = max(peakMB, liveHeapMB()-base)
		runtime.KeepAlive(s.srv)
		runS = append(runS, d.Seconds())
		r.ops += int64(len(arrivals))
		failed, late := checkServe(r, arrivals, report, ref)
		r.failedOps += failed
		lateness = max(lateness, late)
		if s.clock != nil {
			if err := requestSpans(r.tr, runSpan, arrivals, report, s.clock.readings); err != nil {
				r.fail("trace: %v", err)
			}
		}
		sum := sha256.Sum256(report.Canonical())
		r.gateExact(rep, map[string]string{
			"p50_ticks":         fmt.Sprint(report.QuantileTicks(0.50)),
			"p99_ticks":         fmt.Sprint(report.QuantileTicks(0.99)),
			"ticks_per_req":     fmt.Sprintf("%.6f", float64(report.Ticks)/float64(len(arrivals))),
			"canonical_report":  hex.EncodeToString(sum[:]),
			"arrival_stream_id": arrivalsDigest(arrivals),
		})
		last = report
	}

	run := median(runS)
	reqPerS := float64(serveRequests) / run
	r.unitCost = run / serveRequests
	r.e2e = map[string]float64{"setup_s": median(setupS), "mem_peak_mb": peakMB, "ops_per_s": reqPerS}
	p50, p99 := last.QuantileTicks(0.50), last.QuantileTicks(0.99)
	var queue, inflight, wallNS []int64 // the last repetition's; every repetition's ticks are equal
	for _, w := range last.Waves {
		queue = append(queue, w.StartT-w.EnqueueT)
		inflight = append(inflight, w.DoneT-w.StartT)
		wallNS = append(wallNS, w.WallNS)
	}
	r.info = map[string]float64{
		"req_per_s":          reqPerS,
		"p50_ticks":          float64(p50),
		"p99_ticks":          float64(p99),
		"lateness_ticks_max": float64(lateness),
		"repetitions":        float64(len(runS)),
		"waves_per_ktick":    last.WavesPerKTick(),
	}
	r.layer = map[string]float64{
		"graph.build_s":                median(graphS),
		"service.generate_s":           median(genS),
		"service.new_s":                median(newS),
		"service.run_s":                run,
		"service.ns_per_tick":          run * 1e9 / float64(last.Ticks),
		"service.ticks_per_req":        float64(last.Ticks) / serveRequests,
		"service.p50_ticks":            float64(p50),
		"service.p99_ticks":            float64(p99),
		"service.queue_wait_ticks_p50": float64(telemetry.ExactQuantile(queue, 0.50)),
		"service.queue_wait_ticks_p99": float64(telemetry.ExactQuantile(queue, 0.99)),
		"service.inflight_ticks_p50":   float64(telemetry.ExactQuantile(inflight, 0.50)),
		"service.inflight_ticks_p99":   float64(telemetry.ExactQuantile(inflight, 0.99)),
		"service.req_wall_ms_p50":      float64(telemetry.ExactQuantile(wallNS, 0.50)) / 1e6,
		"service.req_wall_ms_p99":      float64(telemetry.ExactQuantile(wallNS, 0.99)) / 1e6,
		"service.aborts":               float64(last.Aborts),
		"service.residue":              float64(last.Residue),
	}
	return nil
}

// checkServe checks one serving run against its arrival stream and the
// reference responses. It returns how many requests failed and the largest
// lateness, enqueue tick minus due tick, it saw. Per lane, the
// i-th delivered wave must answer the lane's i-th arrival: lanes are FIFO
// and an aborted wave is re-queued at the head.
func checkServe(r *runCtx, arrivals []service.Arrival, rep *service.Report, ref map[laneKind]int64) (failed, lateness int64) {
	if len(rep.Waves) != len(arrivals) {
		r.fail("serve: %d waves delivered for %d arrivals", len(rep.Waves), len(arrivals))
	}
	byLane := make([][]service.Arrival, serveLanes)
	for _, a := range arrivals {
		byLane[a.Lane] = append(byLane[a.Lane], a)
	}
	for l, want := range byLane {
		got := rep.PerLane(l)
		if len(got) > len(want) {
			r.fail("serve: lane %d delivered %d waves for %d arrivals", l, len(got), len(want))
		}
		var prevMsg uint64
		for i, a := range want {
			if i >= len(got) {
				failed++
				r.fail("serve: lane %d request %d (t=%d) never delivered", l, i, a.T)
				continue
			}
			w := got[i]
			lateness = max(lateness, w.EnqueueT-a.T)
			queue, inflight := w.StartT-w.EnqueueT, w.DoneT-w.StartT
			resp, known := ref[laneKind{l, w.Kind}]
			var bad string
			switch {
			case w.EnqueueT != a.T:
				bad = fmt.Sprintf("enqueued at t=%d, due t=%d", w.EnqueueT, a.T)
			case w.Kind != a.Kind:
				bad = fmt.Sprintf("kind %s, requested %s", w.Kind, a.Kind)
			case !known || w.Resp != resp:
				bad = fmt.Sprintf("%s response %d, reference %d", w.Kind, w.Resp, resp)
			case i > 0 && w.Msg <= prevMsg:
				bad = fmt.Sprintf("payload %d does not increase past %d", w.Msg, prevMsg)
			case queue < 0 || inflight < 0 || queue+inflight != w.LatencyTicks():
				bad = fmt.Sprintf("queue wait %d + in-flight %d != latency %d", queue, inflight, w.LatencyTicks())
			}
			prevMsg = w.Msg
			if bad != "" {
				failed++
				r.fail("serve: lane %d request %d: %s", l, i, bad)
			}
		}
	}
	return failed, lateness
}

// requestSpans turns the Options.Clock readings of one traced run into one
// async span per request, enqueue to delivery, under the Server.Run span.
// The server reads the clock at every enqueue, in arrival order, and at
// every delivery, in report order; within a tick every enqueue precedes
// every delivery. Merging the two event streams by tick therefore assigns
// each reading, and the result must reproduce every wave's WallNS.
func requestSpans(tr *tracer, parent int32, arrivals []service.Arrival, rep *service.Report, readings []int64) error {
	if len(readings) != len(arrivals)+len(rep.Waves) {
		return fmt.Errorf("%d clock readings for %d enqueues and %d deliveries", len(readings), len(arrivals), len(rep.Waves))
	}
	enq := make([]int64, len(arrivals))
	deliv := make([]int64, len(rep.Waves))
	i, j := 0, 0
	for _, v := range readings {
		if i < len(arrivals) && (j == len(rep.Waves) || arrivals[i].T <= rep.Waves[j].DoneT) {
			enq[i], i = v, i+1
		} else {
			deliv[j], j = v, j+1
		}
	}
	// The k-th wave of a lane answers the lane's k-th arrival.
	laneArrivals := make([][]int, serveLanes)
	for idx, a := range arrivals {
		laneArrivals[a.Lane] = append(laneArrivals[a.Lane], idx)
	}
	next := make([]int, serveLanes)
	for k, w := range rep.Waves {
		if next[w.Lane] >= len(laneArrivals[w.Lane]) {
			return fmt.Errorf("lane %d delivered more waves than it received", w.Lane)
		}
		a := laneArrivals[w.Lane][next[w.Lane]]
		next[w.Lane]++
		if deliv[k]-enq[a] != w.WallNS {
			return fmt.Errorf("wave %d: clock readings give %d ns, the report %d ns", k, deliv[k]-enq[a], w.WallNS)
		}
		tr.addAsync("service.request", parent, enq[a], deliv[k], map[string]int64{
			"lane": int64(w.Lane), "payload": int64(w.Msg), "due_t": w.EnqueueT, "done_t": w.DoneT,
		})
	}
	return nil
}

// arrivalsDigest identifies a generated arrival stream.
func arrivalsDigest(arrivals []service.Arrival) string {
	h := sha256.New()
	for _, a := range arrivals {
		fmt.Fprintf(h, "%d %d %s\n", a.T, a.Lane, a.Kind)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
