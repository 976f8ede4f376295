// Package runtime executes the snap-stabilizing PIF protocol with real
// concurrency: one goroutine per processor, sharing the configuration
// under fine-grained neighborhood locking. It realizes the asynchronous
// model of the paper with the Go scheduler as the daemon.
//
// Atomicity: a processor evaluates its guards and executes its statement
// while holding the locks of its whole closed neighborhood (itself plus all
// neighbors), acquired in ascending ID order to exclude deadlock. Two
// neighbors therefore never execute simultaneously — the schedule is an
// instance of the locally central distributed daemon, which the protocol's
// correctness covers — and every guard evaluation sees a consistent
// neighborhood, which is exactly the composite atomicity the shared-memory
// model demands. Weak fairness follows from the Go scheduler plus the
// per-processor retry loop.
package runtime

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"snappif/internal/check"
	"snappif/internal/core"
	"snappif/internal/graph"
	"snappif/internal/obs"
	"snappif/internal/sim"
)

// ErrTimeout is returned when the requested number of cycles does not
// complete within the configured timeout.
var ErrTimeout = errors.New("runtime: timed out")

// CycleStat reports one PIF cycle observed at the root.
type CycleStat struct {
	// Msg is the payload the root broadcast.
	Msg uint64
	// Delivered counts non-root processors that received Msg before the
	// root's F-action.
	Delivered int
	// Acked counts non-root processors whose acknowledgment preceded the
	// root's F-action.
	Acked int
}

// OK reports whether the cycle satisfied [PIF1]/[PIF2] on n processors.
func (s CycleStat) OK(n int) bool { return s.Delivered == n-1 && s.Acked == n-1 }

// Result summarizes a concurrent run.
type Result struct {
	// Cycles lists the completed cycles in order.
	Cycles []CycleStat
	// Moves counts all action executions.
	Moves int64
	// Elapsed is the wall-clock duration of the run.
	Elapsed time.Duration
	// InvariantViolations lists violations found by the stop-the-world
	// checker (empty unless Options.CheckInvariants).
	InvariantViolations []string
	// Snapshots counts the stop-the-world invariant evaluations performed.
	Snapshots int
	// MovesPerProc counts action executions per processor — the scheduler-
	// fairness profile of the run.
	MovesPerProc []int64
	// IdleSpins counts guard evaluations that found no enabled action.
	IdleSpins int64
}

// Options configures Run.
type Options struct {
	// Corrupt, if non-nil, mutates the initial configuration before the
	// goroutines start (e.g. a fault.Injector's Apply with a fixed rng).
	Corrupt func(*sim.Configuration, *core.Protocol)
	// Timeout bounds the wall-clock duration (default 30s).
	Timeout time.Duration
	// IdleSleep is how long an idle processor sleeps before re-evaluating
	// its guards (default 20µs).
	IdleSleep time.Duration
	// CheckInvariants periodically stops the world (acquires every lock in
	// order), snapshots the configuration, and evaluates the paper's
	// invariant monitors (Properties 1–2, domains); violations appear in
	// Result.InvariantViolations.
	CheckInvariants bool
	// CheckEvery is the stop-the-world period (default 2ms).
	CheckEvery time.Duration
	// OnAction, if non-nil, observes every action execution (processor,
	// action index). It is called while the actor's neighborhood locks are
	// held, so the call order respects causality — an obs.Tracer's Action
	// method is the intended consumer. Keep it fast: it serializes
	// neighborhoods.
	OnAction func(p, a int)
	// Metrics, if non-nil, receives runtime counters: runtime.moves,
	// runtime.idle_spins, runtime.check_snapshots, and the
	// runtime.moves_per_proc histogram (one observation per processor at the
	// end of the run).
	Metrics *obs.Registry
}

// Run executes the protocol on g rooted at root with one goroutine per
// processor until the root completes `cycles` PIF cycles.
func Run(g *graph.Graph, root, cycles int, opts Options) (Result, error) {
	if opts.Timeout <= 0 {
		opts.Timeout = 30 * time.Second
	}
	if opts.IdleSleep <= 0 {
		opts.IdleSleep = 20 * time.Microsecond
	}
	proto, err := core.New(g, root)
	if err != nil {
		return Result{}, err
	}
	cfg := sim.NewConfiguration(g, proto)
	if opts.Corrupt != nil {
		opts.Corrupt(cfg, proto)
	}

	mon := &monitor{n: g.N(), root: root, want: cycles}
	locks := make([]sync.Mutex, g.N())
	var (
		stop      atomic.Bool
		moves     atomic.Int64
		idleSpins atomic.Int64
		wg        sync.WaitGroup
	)
	movesPerProc := make([]atomic.Int64, g.N())

	// lockOrder[p] is p's closed neighborhood in ascending ID order.
	lockOrder := make([][]int, g.N())
	for p := 0; p < g.N(); p++ {
		hood := append([]int{p}, g.Neighbors(p)...)
		for i := 1; i < len(hood); i++ {
			for j := i; j > 0 && hood[j] < hood[j-1]; j-- {
				hood[j], hood[j-1] = hood[j-1], hood[j]
			}
		}
		lockOrder[p] = hood
	}

	start := time.Now()
	for p := 0; p < g.N(); p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(p) + 1))
			for !stop.Load() {
				executed := step(proto, cfg, locks, lockOrder[p], p, mon, opts.OnAction)
				if executed {
					moves.Add(1)
					movesPerProc[p].Add(1)
					if mon.done() {
						stop.Store(true)
					}
					continue
				}
				idleSpins.Add(1)
				// Idle: back off briefly with jitter so neighbors make
				// progress without a thundering herd.
				time.Sleep(opts.IdleSleep + time.Duration(rng.Intn(1000))*time.Nanosecond)
			}
		}(p)
	}

	// Stop-the-world invariant checker.
	var (
		violations []string
		snapshots  int
		checkDone  chan struct{}
	)
	if opts.CheckInvariants {
		if opts.CheckEvery <= 0 {
			opts.CheckEvery = 2 * time.Millisecond
		}
		checkDone = make(chan struct{})
		go func() {
			defer close(checkDone)
			ticker := time.NewTicker(opts.CheckEvery)
			defer ticker.Stop()
			for !stop.Load() {
				<-ticker.C
				for p := range locks {
					locks[p].Lock()
				}
				snapshots++
				for _, chk := range check.StandardChecks() {
					if err := chk.Fn(cfg, proto); err != nil {
						violations = append(violations,
							fmt.Sprintf("%s: %v", chk.Name, err))
					}
				}
				for p := len(locks) - 1; p >= 0; p-- {
					locks[p].Unlock()
				}
			}
		}()
	}

	// Watchdog.
	timedOut := false
	deadline := time.NewTimer(opts.Timeout)
	defer deadline.Stop()
	doneCh := make(chan struct{})
	go func() {
		wg.Wait()
		close(doneCh)
	}()
	select {
	case <-doneCh:
	case <-deadline.C:
		timedOut = true
		stop.Store(true)
		<-doneCh
	}

	if checkDone != nil {
		<-checkDone
	}
	res := Result{
		Cycles:              mon.cycles(),
		Moves:               moves.Load(),
		Elapsed:             time.Since(start),
		InvariantViolations: violations,
		Snapshots:           snapshots,
		IdleSpins:           idleSpins.Load(),
		MovesPerProc:        make([]int64, g.N()),
	}
	for p := range movesPerProc {
		res.MovesPerProc[p] = movesPerProc[p].Load()
	}
	if m := opts.Metrics; m != nil {
		m.Counter("runtime.moves").Add(res.Moves)
		m.Counter("runtime.idle_spins").Add(res.IdleSpins)
		m.Counter("runtime.check_snapshots").Add(int64(snapshots))
		h := m.Histogram("runtime.moves_per_proc")
		for _, n := range res.MovesPerProc {
			h.Observe(n)
		}
	}
	if timedOut && len(res.Cycles) < cycles {
		return res, fmt.Errorf("%w after %v with %d/%d cycles",
			ErrTimeout, opts.Timeout, len(res.Cycles), cycles)
	}
	return res, nil
}

// step attempts one guarded action at p under its neighborhood locks and
// reports whether an action executed. The monitor and the OnAction hook are
// invoked while the locks are still held, so their event order respects
// causality.
func step(proto *core.Protocol, cfg *sim.Configuration, locks []sync.Mutex, hood []int, p int, mon *monitor, onAction func(p, a int)) bool {
	for _, q := range hood {
		locks[q].Lock()
	}
	defer func() {
		for i := len(hood) - 1; i >= 0; i-- {
			locks[hood[i]].Unlock()
		}
	}()
	enabled := proto.Enabled(cfg, p)
	if len(enabled) == 0 {
		return false
	}
	a := enabled[0]
	next := proto.Apply(cfg, p, a)
	cfg.States[p] = next
	mon.record(p, a, *next.(*core.State))
	if onAction != nil {
		onAction(p, a)
	}
	return true
}

// monitor tracks cycle delivery from causally ordered action events.
type monitor struct {
	mu     sync.Mutex
	n      int
	root   int
	want   int
	msg    uint64
	joined map[int]bool
	fed    map[int]bool
	out    []CycleStat
}

// record processes one action event; callers hold the actor's neighborhood
// locks, and the monitor's own mutex serializes the log.
func (m *monitor) record(p, action int, s core.State) {
	m.mu.Lock()
	defer m.mu.Unlock()
	switch {
	case p == m.root && action == core.ActionB:
		m.msg = s.Msg
		m.joined = make(map[int]bool, m.n)
		m.fed = make(map[int]bool, m.n)
	case m.joined == nil:
	case p != m.root && action == core.ActionB && s.Msg == m.msg:
		m.joined[p] = true
	case p != m.root && action == core.ActionF && s.Msg == m.msg && m.joined[p]:
		m.fed[p] = true
	case p == m.root && action == core.ActionF:
		m.out = append(m.out, CycleStat{Msg: m.msg, Delivered: len(m.joined), Acked: len(m.fed)})
		m.joined, m.fed = nil, nil
	}
}

// done reports whether the requested number of cycles completed.
func (m *monitor) done() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.out) >= m.want
}

// cycles returns the completed cycle stats.
func (m *monitor) cycles() []CycleStat {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]CycleStat(nil), m.out...)
}
