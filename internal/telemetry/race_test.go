package telemetry_test

import (
	"bytes"
	"sync"
	"testing"

	"snappif/internal/graph"
	"snappif/internal/obs"
	"snappif/internal/telemetry"
)

// TestConcurrentTelemetryWriters shares one Telemetry between concurrent
// engine runs — generic and flat (event.Runner under the daemon) — while
// readers hammer every read surface (registry JSON, spans, series, dumps).
// Run under -race (ci.sh does), this pins the concurrency contract of every
// hook: the counters stay lock-free, the per-step path serializes on one
// mutex, and no read tears.
func TestConcurrentTelemetryWriters(t *testing.T) {
	tel := telemetry.New(telemetry.Config{SampleEvery: 8, FlightDepth: 2, FlightEvery: 32})
	reg := obs.NewRegistry()
	tel.PublishTo(reg)
	g, err := graph.Ring(32)
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for i := 0; i < 2; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				var buf bytes.Buffer
				_ = reg.WriteJSON(&buf)
				_ = tel.Spans()
				_ = tel.Series().Rows()
				tel.Census()
				tel.Waves()
				tel.Totals()
				_, _ = tel.DumpScenario() // may legitimately error mid-reset
			}
		}()
	}

	var writers sync.WaitGroup
	errs := make(chan error, 4)
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			var err error
			if w%2 == 0 {
				err = runFlatInto(tel, g, int64(100+w), 2)
			} else {
				err = runGenericInto(tel, g, int64(100+w), 2)
			}
			if err != nil {
				errs <- err
			}
		}(w)
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	if steps, moves := tel.Totals(); steps == 0 || moves == 0 {
		t.Fatalf("shared telemetry recorded nothing: steps=%d moves=%d", steps, moves)
	}
	// Interleaved runs share one wave state machine, so transitions can
	// merge — only require that some waves were tracked, not the exact count.
	if waves, _ := tel.Waves(); waves == 0 {
		t.Fatal("shared telemetry tracked no waves")
	}
}
