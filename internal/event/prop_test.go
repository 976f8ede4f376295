package event_test

import (
	"fmt"
	"math/rand"
	"testing"

	"snappif/internal/check"
	"snappif/internal/core"
	"snappif/internal/event"
	"snappif/internal/fault"
	"snappif/internal/flat"
	"snappif/internal/graph"
	"snappif/internal/sim"
)

// Scheduler-level property tests: virtual-time monotonicity of committed
// steps, intrinsic weak fairness (a continuously enabled processor executes
// within Latency.Max()+1 ticks), progress under every latency family, and
// the weak-fairness table test over the induced daemons.

// newEventRunner builds an event runner over a faulted PIF start.
func newEventRunner(tb testing.TB, g *graph.Graph, inj fault.Injector, lat event.Latency, opts sim.Options) *event.Runner {
	tb.Helper()
	pr, err := core.New(g, 0)
	if err != nil {
		tb.Fatal(err)
	}
	k, err := flat.FromCore(pr)
	if err != nil {
		tb.Fatal(err)
	}
	cfg := sim.NewConfiguration(g, pr)
	inj.Apply(cfg, pr, rand.New(rand.NewSource(opts.Seed)))
	fc, err := flat.FromSim(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	r, err := event.NewRunner(fc, k, nil, event.Options{Options: opts, Latency: lat})
	if err != nil {
		tb.Fatal(err)
	}
	return r
}

// TestEventVirtualTimeMonotone: across randomized latency seeds, every
// committed step's virtual time must be strictly greater than the
// previous one — silently consumed empty ticks may advance time by more
// than one, never less.
func TestEventVirtualTimeMonotone(t *testing.T) {
	g, err := graph.Grid(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, lat := range diffLatencies() {
		for seed := int64(1); seed <= 10; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", lat.Name(), seed), func(t *testing.T) {
				const steps = 300
				r := newEventRunner(t, g, fault.UniformRandom(), lat, sim.Options{
					Seed: seed, MaxSteps: steps + 1,
					StopWhen: func(rs *sim.RunState) bool { return rs.Steps >= steps },
				})
				last := int64(0)
				for {
					done, err := r.Step()
					if done {
						if err != nil {
							t.Fatal(err)
						}
						break
					}
					if v := r.VirtualTime(); v <= last {
						t.Fatalf("virtual time not strictly increasing: %d after %d (step %d)",
							v, last, r.Result().Steps)
					} else {
						last = v
					}
					if r.QueueDepth() < 0 {
						t.Fatalf("negative queue depth %d", r.QueueDepth())
					}
				}
			})
		}
	}
}

// execWatch records the processors executed by the most recent committed
// step, so the fairness tracker can end a streak on execution even when the
// processor is immediately enabled again.
type execWatch struct{ ran map[int]bool }

func (w *execWatch) OnStep(_ int, executed []sim.Choice, _ *sim.Configuration) {
	clear(w.ran)
	for _, ch := range executed {
		w.ran[ch.Proc] = true
	}
}

// TestEventIntrinsicWeakFairness: in latency mode no processor may stay
// continuously enabled for more than Latency.Max()+2 virtual ticks without
// executing — the "enabled ⇒ wake pending" invariant made measurable. The
// +2 covers the observation boundary: a processor counted as enabled at the
// commit of tick t may only have become enabled by that very commit, whose
// consequences are scheduled from t+1. A streak ends on execution or on
// disablement; a processor that executes and is re-enabled by the same
// commit starts a fresh streak.
func TestEventIntrinsicWeakFairness(t *testing.T) {
	for _, g := range diffTopologies(t) {
		for _, lat := range diffLatencies() {
			for seed := int64(1); seed <= 5; seed++ {
				t.Run(fmt.Sprintf("%s/%s/seed=%d", g.Name(), lat.Name(), seed), func(t *testing.T) {
					const steps = 400
					w := &execWatch{ran: make(map[int]bool)}
					r := newEventRunner(t, g, fault.UniformRandom(), lat, sim.Options{
						Seed: seed, MaxSteps: steps + 1,
						Observers: []sim.Observer{w},
						StopWhen:  func(rs *sim.RunState) bool { return rs.Steps >= steps },
					})
					bound := lat.Max() + 2
					since := make(map[int]int64) // proc → vtime the current enabled streak began
					for {
						done, err := r.Step()
						if done {
							if err != nil {
								t.Fatal(err)
							}
							break
						}
						v := r.VirtualTime()
						now := make(map[int]bool)
						for _, ch := range r.AppendEnabled(nil) {
							now[ch.Proc] = true
						}
						for p, t0 := range since {
							if !now[p] || w.ran[p] {
								delete(since, p)
								continue
							}
							if v-t0 > bound {
								t.Fatalf("proc %d continuously enabled for %d ticks (> max latency %d + 2)",
									p, v-t0, lat.Max())
							}
						}
						for p := range now {
							if _, ok := since[p]; !ok {
								since[p] = v
							}
						}
					}
				})
			}
		}
	}
}

// TestEventLatencyProgress: under every latency family and many seeds, the
// asynchronous scheduler must keep completing PIF cycles from a corrupted
// start — no lost wakeup, no stall, no spurious termination. Two full
// cycles from arbitrary faults exercise stabilization plus steady state.
func TestEventLatencyProgress(t *testing.T) {
	for _, g := range diffTopologies(t) {
		for _, lat := range diffLatencies() {
			for seed := int64(1); seed <= 5; seed++ {
				t.Run(fmt.Sprintf("%s/%s/seed=%d", g.Name(), lat.Name(), seed), func(t *testing.T) {
					pr, err := core.New(g, 0)
					if err != nil {
						t.Fatal(err)
					}
					k, err := flat.FromCore(pr)
					if err != nil {
						t.Fatal(err)
					}
					cfg := sim.NewConfiguration(g, pr)
					fault.UniformRandom().Apply(cfg, pr, rand.New(rand.NewSource(seed)))
					fc, err := flat.FromSim(cfg)
					if err != nil {
						t.Fatal(err)
					}
					co := check.NewCycleObserver(pr)
					res, err := event.Run(fc, k, nil, event.Options{
						Options: sim.Options{
							Seed:      seed,
							MaxSteps:  200_000,
							Observers: []sim.Observer{co},
							StopWhen:  co.StopAfterCycles(2),
						},
						Latency: lat,
					})
					if err != nil {
						t.Fatal(err)
					}
					if !res.Stopped {
						t.Fatalf("run ended without completing 2 cycles: %+v", res)
					}
					if len(co.Cycles) < 2 {
						t.Fatalf("only %d cycles recorded", len(co.Cycles))
					}
				})
			}
		}
	}
}

// starveWatch tracks, per processor, the longest run of consecutive steps
// in which the processor was enabled but not executed (under foreverProto
// every processor is enabled at every step).
type starveWatch struct {
	streak []int
	worst  int
}

func (w *starveWatch) OnStep(_ int, executed []sim.Choice, c *sim.Configuration) {
	if w.streak == nil {
		w.streak = make([]int, c.N())
	}
	ran := make(map[int]bool, len(executed))
	for _, ch := range executed {
		ran[ch.Proc] = true
	}
	for p := range w.streak {
		if ran[p] {
			w.streak[p] = 0
			continue
		}
		w.streak[p]++
		if w.streak[p] > w.worst {
			w.worst = w.streak[p]
		}
	}
}

// intState is a trivial always-enabled protocol state: a counter.
type intState int

func (s intState) Clone() sim.State { return s }

// foreverProto keeps every processor enabled forever, counting executions —
// the worst case for fairness analysis.
type foreverProto struct{}

func (foreverProto) Name() string               { return "forever" }
func (foreverProto) ActionNames() []string      { return []string{"a"} }
func (foreverProto) InitialState(int) sim.State { return intState(0) }
func (foreverProto) Enabled(*sim.Configuration, int) []int {
	return []int{0}
}
func (foreverProto) Apply(c *sim.Configuration, p int, _ int) sim.State {
	return c.States[p].(intState) + 1
}

// TestInducedDaemonsAreWeaklyFair extends the engine's weak-fairness table
// test to the event scheduler's induced daemons: under a protocol that
// keeps every processor enabled forever, the wake schedule itself must
// bound starvation — no processor's gap between executions may exceed
// Latency.Max()+1 steps, with no help from the runner's aging (the
// fairness age is set far above the horizon).
func TestInducedDaemonsAreWeaklyFair(t *testing.T) {
	g, err := graph.Line(8)
	if err != nil {
		t.Fatal(err)
	}
	proto := foreverProto{}
	for _, lat := range diffLatencies() {
		t.Run(lat.Name(), func(t *testing.T) {
			const steps = 500
			d := event.NewInducedDaemon(lat)
			cfg := sim.NewConfiguration(g, proto)
			w := &starveWatch{}
			res, err := sim.Run(cfg, proto, d, sim.Options{
				Seed:        3,
				FairnessAge: 1 << 30, // the schedule must be fair on its own
				Observers:   []sim.Observer{w},
				StopWhen:    func(rs *sim.RunState) bool { return rs.Steps >= steps },
			})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Stopped {
				t.Fatalf("run ended early: %+v", res)
			}
			if int64(w.worst) > lat.Max()+1 {
				t.Fatalf("induced daemon %s starved a processor for %d steps (max latency %d)",
					d.Name(), w.worst, lat.Max())
			}
		})
	}
}
