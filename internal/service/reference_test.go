package service

import (
	"bytes"
	"testing"

	"snappif/internal/core"
	"snappif/internal/event"
	"snappif/internal/flat"
)

// refEngine names the test-only reference lane in this package's engine
// lists, after the struct-of-arrays kernels of internal/flat that it steps:
// event.Runner under the sim lane's gate daemon, one synchronous step per
// tick. New rejects the name; mustServe builds the lane itself and checks
// every run on it against the sim lane bit for bit, so the SoA kernels stay
// sim.Runner's differential oracle at the serving layer.
const refEngine = "flat"

// flatLane is the reference lane's engine.
type flatLane struct {
	ln *lane
	fc *flat.Config
	r  *event.Runner
}

func (e *flatLane) advance(_ int64, observe func() error) error {
	if e.parked() {
		return nil
	}
	done, err := e.r.Step()
	if err != nil {
		return err
	}
	if done {
		return nil
	}
	return observe()
}

func (e *flatLane) parked() bool {
	n := e.r.EnabledCount()
	return n == 0 || n == 1 && !e.ln.gateOpen() && e.r.EnabledActionOf(e.ln.root) == int32(core.ActionB)
}

func (e *flatLane) nextWake() int64 {
	if e.parked() {
		return -1
	}
	return e.ln.tick + 1
}

func (e *flatLane) wake(int64) {}

func (e *flatLane) root() core.State { return e.fc.StateAt(e.ln.root) }

// newReferenceServer builds the Server New would build for the sim engine
// and re-seats every lane on flatLane, started from the lane's own protocol,
// start configuration and runner options under the same gate daemon.
func newReferenceServer(opts Options) (*Server, error) {
	opts.Engine = "sim"
	s, err := New(opts)
	if err != nil {
		return nil, err
	}
	for l, ln := range s.lanes {
		faultName := ""
		if l < len(s.opts.Faults) {
			faultName = s.opts.Faults[l]
		}
		pr, cfg, simOpts, err := ln.start(&s.opts, faultName)
		if err != nil {
			return nil, err
		}
		k, err := flat.FromCore(pr)
		if err != nil {
			return nil, err
		}
		fc, err := flat.FromSim(cfg)
		if err != nil {
			return nil, err
		}
		r, err := event.NewRunner(fc, k, &gateDaemon{admit: ln.admit}, event.Options{Options: simOpts})
		if err != nil {
			return nil, err
		}
		ln.eng = &flatLane{ln: ln, fc: fc, r: r}
	}
	return s, nil
}

// serveOnce builds a Server for opts — the reference lane for refEngine —
// and runs the stream on it.
func serveOnce(t *testing.T, opts Options, arrivals []Arrival, serial bool) *Report {
	t.Helper()
	build := New
	if opts.Engine == refEngine {
		build = newReferenceServer
	}
	srv, err := build(opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	var rep *Report
	if serial {
		rep, err = srv.RunSerial(arrivals)
	} else {
		rep, err = srv.Run(arrivals)
	}
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	return rep
}

// mustServe serves the stream on opts.Engine. A reference-lane run is also
// served on the sim lane, and the two canonical reports must be identical.
func mustServe(t *testing.T, opts Options, arrivals []Arrival, serial bool) *Report {
	t.Helper()
	rep := serveOnce(t, opts, arrivals, serial)
	if opts.Engine == refEngine {
		opts.Engine = "sim"
		if sim := serveOnce(t, opts, arrivals, serial); !bytes.Equal(rep.Canonical(), sim.Canonical()) {
			t.Fatalf("sim lane diverges from the reference lane:\n--- reference\n%s--- sim\n%s",
				rep.Canonical(), sim.Canonical())
		}
	}
	return rep
}
