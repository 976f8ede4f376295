// Package explore is the repository's exhaustive checker: it enumerates
// every daemon schedule of the actual engine under test — the boxed
// sim.Runner or the large-N event.Runner, forced one selection at a time
// through its public stepping interface — so a clean certification table is
// a statement about the shipped implementation, including its guard caches
// and incremental refresh, not about a model of it. Besides the
// snap-stabilizing protocol it checks the self-stabilizing baseline (whose
// counterexample it synthesizes) and k-initiator multi compositions, both
// through sim.Runner.
//
// The explorer is a deterministic layered BFS over a quotient state space
// (payload extensions zeroed, message registers reduced to the "carries the
// current broadcast" bit), with three reductions:
//
//   - state-hash dedup through a canonical per-configuration key;
//   - optional sleep-set partial-order reduction for the central daemon,
//     which prunes commuting interleavings without losing reachable states;
//   - optional symmetry reduction under the admissible automorphism group
//     (root-fixing, neighbor-order-preserving — see hash.go).
//
// Any [PIF1]/[PIF2] delivery violation, deadlock or Section-4 invariant
// violation is reported with its full schedule, exportable for the snap
// protocol as a hunt.Scenario that `pifhunt replay` re-executes bit for
// bit. A run that closes with every transition enumerated also checks that
// an all-clean configuration stays reachable from every reached state.
package explore

import (
	"errors"
	"fmt"
	"math/bits"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"snappif/internal/check"
	"snappif/internal/core"
	"snappif/internal/graph"
	"snappif/internal/hunt"
	"snappif/internal/sim"
)

// Daemon powers. Central executes one enabled processor per step (every
// singleton); distributed executes every non-empty subset of the enabled
// set; synchronous executes exactly the full enabled set.
const (
	PowerCentral     = "central"
	PowerDistributed = "distributed"
	PowerSynchronous = "synchronous"
)

// Protocols under test.
const (
	ProtocolSnap     = "snap"
	ProtocolSelfStab = "selfstab"
)

// maxN bounds exploration size: the vector's entries (k·N for a
// composition) fit the explorer's uint16 columns.
const maxN = 12

// Options configures an Explorer.
type Options struct {
	// Engine selects the implementation under test: "sim" (default) or
	// "event" (event.Runner under the forced daemon).
	Engine string
	// Power is the daemon power: PowerCentral (default), PowerDistributed,
	// or PowerSynchronous.
	Power string
	// Depth bounds the number of BFS layers explored; ≤ 0 means run to
	// closure (bounded only by MaxStates).
	Depth int
	// Workers is the parallelism of expansion and of the per-state checks;
	// ≤ 0 means GOMAXPROCS. Results are independent of the worker count.
	Workers int
	// POR enables sleep-set partial-order reduction. Only consulted under
	// the central daemon; subsets of the other powers are not reduced.
	POR bool
	// Symmetry enables canonicalization under the admissible automorphism
	// group (n ≤ 8; larger networks silently get the trivial group).
	Symmetry bool
	// Plant wraps the protocol with a named test-only bug
	// (hunt.PlantByName); sim engine only.
	Plant string
	// MaxStates aborts the exploration with an error when the interned
	// state count exceeds it; ≤ 0 means 1,000,000.
	MaxStates int
	// CoreOptions are forwarded to core.New (Lmax/N' overrides etc.).
	CoreOptions []core.Option
	// Protocol selects the protocol under test: ProtocolSnap (default, the
	// paper's algorithm) or ProtocolSelfStab (the self-stabilizing
	// baseline, sim engine only).
	Protocol string
	// Initiators, when non-empty, checks the multi composition of one snap
	// instance per listed initiator instead (sim engine, central daemon, no
	// POR); the root passed to New must be the first. The vector then
	// holds instance i's state of processor p at index i·N+p.
	Initiators []int
}

// Result is the machine-readable outcome of one exploration, serialized
// into explore.json by cmd/pifexplore.
type Result struct {
	Topology      string  `json:"topology"`
	N             int     `json:"n"`
	Root          int     `json:"root"`
	Engine        string  `json:"engine"`
	Power         string  `json:"power"`
	InitMode      string  `json:"init_mode,omitempty"`
	Plant         string  `json:"plant,omitempty"`
	Depth         int     `json:"depth"`
	MaxDepth      int     `json:"max_depth"`
	InitialStates int     `json:"initial_states"`
	States        int     `json:"states"`
	Transitions   int64   `json:"transitions"`
	Slept         int64   `json:"slept"`
	PORSavingsPct float64 `json:"por_savings_pct"`
	SymmetryAutos int     `json:"symmetry_autos"`
	Complete      bool    `json:"complete"`
	Verdict       string  `json:"verdict"`
	Violation     string  `json:"violation,omitempty"`
	Fingerprint   string  `json:"fingerprint"`
}

// frontierEntry is one node awaiting expansion with the sleep set it was
// reached with (always 0 when POR is off).
type frontierEntry struct {
	id    int32
	sleep uint64
}

// task is one forced engine step scheduled for the parallel expand phase:
// the processors of its daemon selection, a subset of the node's enabled
// set. A checked node enables at most one choice per processor, so the
// processor set names the choices exactly.
type task struct {
	node       int32
	sel        uint16
	childSleep uint64
}

// taskResult is the expand phase's per-task output slot; merge consumes the
// slots strictly in task order, which makes intern order — and therefore
// node IDs, frontier order, and every count — independent of how workers
// interleaved. The successor's record and canonical key sit in the layer's
// recs and keys buffers at the task's index, and its enabled set in the
// arena of the worker that stepped it.
type taskResult struct {
	enabled  []sim.Choice // a window of a worker's arena
	hash     uint64
	delivery string
	err      error
}

// violationRec pins the first violation in deterministic merge order.
type violationRec struct {
	kind string
	msg  string
	node int32
	sel  []sim.Choice // final step, delivery violations only
}

// worker is one worker's private engine, hasher and decode buffers.
type worker struct {
	eng     Engine
	h       hasher
	cfg     *sim.Configuration // check scratch, built by checkNodes
	states  []core.State
	succ    []core.State
	enabled []sim.Choice
	sel     []sim.Choice
	// arena holds the enabled sets of the successors the worker stepped in
	// the current layer, until merge copies them into the store. It is
	// emptied every layer and dropped with the layer buffers.
	arena []sim.Choice
	// decoded is the node whose vector, monitor and enabled set states,
	// mon and enabled hold in the expand phase, -1 for none: a node's
	// tasks are consecutive, so a worker decodes it once per batch.
	decoded int32
	mon     monState
}

// Explorer runs one exhaustive exploration. Single-use: construct with New,
// call Run once, then read Scenario/FrontierSeeds/Visited.
type Explorer struct {
	g     *graph.Graph
	root  int
	roots []int // each instance's initiator: {root} for a single protocol
	width int   // vector entries: N, or k·N for a composition
	opts  Options

	pr      *core.Protocol // unplanted, for invariant checks
	checks  []check.Check
	autos   []automorphism
	indep   []uint64
	workers []worker

	// The interned nodes: the store plus the per-node columns of the
	// discovery tree and the sleep-set bookkeeping, all indexed by node ID.
	// pred and sel record the first concrete step that reached a node, so
	// following the pred chain always yields a genuine executable schedule
	// even under symmetry dedup: a node's record encodes the concrete
	// successor of applying sel to pred's decoded vector.
	store     store
	pred      []int32  // -1 for a seed
	depth     []int32  // BFS layer
	sel       []uint16 // processors of the selection, among pred's enabled set
	explored  []uint16 // transitions already expanded from the node
	sleptMask []uint16 // transitions currently accounted as POR-pruned

	frontier    []frontierEntry
	violation   *violationRec
	transitions int64
	slept       int64
	maxDepth    int
	initial     int
	ran         bool

	// Every counted transition's target in merge order, kept only by a run
	// that enumerates every transition (POR off, or a non-central daemon)
	// for the closing EF-clean check. Such a run expands each node once, in
	// ID order, with all its transitions in one layer, so node id's
	// successors are succ[succStart[id]:succStart[id+1]].
	keepEdges bool
	succ      []int32
	succStart []uint32

	// Per-layer buffers, reused across layers and dropped when Run returns.
	tasks   []task
	results []taskResult
	recs    []byte       // task i's successor record at [i·lay.size, (i+1)·lay.size)
	keys    []byte       // its canonical key, when the store keeps a key column
	at      []int32      // node ID → 1 + its index in the next frontier; all 0 between layers
	newTask []int32      // task index of each node the layer interned
	enBuf   []sim.Choice // prepare's decode buffer
}

// New validates the options and builds one engine and hasher per worker.
func New(g *graph.Graph, root int, opts Options) (*Explorer, error) {
	roots := []int{root}
	if len(opts.Initiators) > 0 {
		roots = opts.Initiators
	}
	if width := len(roots) * g.N(); width > maxN {
		return nil, fmt.Errorf("explore: %d vector entries (%d instances × %d processors) exceed the exploration bound %d",
			width, len(roots), g.N(), maxN)
	}
	switch opts.Power {
	case "", PowerCentral:
		opts.Power = PowerCentral
	case PowerDistributed, PowerSynchronous:
	default:
		return nil, fmt.Errorf("explore: unknown daemon power %q", opts.Power)
	}
	if opts.Engine == "" {
		opts.Engine = "sim"
	}
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.Depth <= 0 {
		opts.Depth = 1 << 30
	}
	if opts.MaxStates <= 0 {
		opts.MaxStates = 1_000_000
	}
	if opts.Protocol == "" {
		opts.Protocol = ProtocolSnap
	}
	if err := checkModel(opts, root); err != nil {
		return nil, err
	}
	pr, err := core.New(g, root, opts.CoreOptions...)
	if err != nil {
		return nil, err
	}
	lay, err := newLayout(pr, len(roots))
	if err != nil {
		return nil, err
	}
	e := &Explorer{
		g:         g,
		root:      root,
		roots:     roots,
		width:     len(roots) * g.N(),
		opts:      opts,
		pr:        pr,
		indep:     independenceMasks(g, root),
		keepEdges: !opts.POR || opts.Power != PowerCentral,
	}
	if e.snap() {
		// The Section-4 invariants are the snap protocol's.
		e.checks = check.StandardChecks()
	}
	if opts.Symmetry {
		e.autos = admissibleAutomorphisms(g, root)
	}
	e.store = newStore(lay, len(e.autos) > 0)
	e.workers = make([]worker, opts.Workers)
	for w := range e.workers {
		var eng Engine
		if e.snap() {
			eng, err = newEngine(opts.Engine, g, root, opts.Plant, opts.CoreOptions)
		} else {
			eng, err = newModelEngine(g, root, opts.Initiators, opts.CoreOptions)
		}
		if err != nil {
			return nil, err
		}
		e.workers[w] = worker{eng: eng, h: hasher{lay: lay, autos: e.autos},
			states: make([]core.State, e.width), succ: make([]core.State, e.width)}
	}
	return e, nil
}

// checkModel validates the protocol choice: the baseline and compositions
// run on the sim engine only, without plants or symmetry, and a
// composition also needs the central daemon without POR and its first
// initiator as root.
func checkModel(opts Options, root int) error {
	composition := len(opts.Initiators) > 0
	switch {
	case opts.Protocol != ProtocolSnap && opts.Protocol != ProtocolSelfStab:
		return fmt.Errorf("explore: unknown protocol %q (want %s or %s)", opts.Protocol, ProtocolSnap, ProtocolSelfStab)
	case opts.Protocol == ProtocolSnap && !composition:
		return nil
	case composition && opts.Protocol != ProtocolSnap:
		return fmt.Errorf("explore: a composition runs %s instances, not %s", ProtocolSnap, opts.Protocol)
	case composition && opts.Initiators[0] != root:
		return fmt.Errorf("explore: root %d is not the first initiator of %v", root, opts.Initiators)
	case composition && (opts.POR || opts.Power != PowerCentral):
		return errors.New("explore: a composition is explored under the central daemon without POR")
	case opts.Engine != "sim" || opts.Plant != "" || opts.Symmetry:
		return fmt.Errorf("explore: %s runs on the sim engine only, without plants or symmetry", modelName(opts))
	}
	return nil
}

// modelName names the protocol under test in errors.
func modelName(opts Options) string {
	if len(opts.Initiators) > 0 {
		return fmt.Sprintf("the composition of initiators %v", opts.Initiators)
	}
	return "protocol " + opts.Protocol
}

// snap reports whether the explorer checks the snap protocol alone.
func (e *Explorer) snap() bool {
	return e.opts.Protocol == ProtocolSnap && len(e.opts.Initiators) == 0
}

// Run explores every daemon schedule from every initial state vector (each
// normalized onto the quotient first) up to the depth bound, and returns
// the certification result. An error means the exploration itself could not
// finish (state budget, engine failure) — a protocol violation is NOT an
// error, it is a Result with Verdict "violation".
func (e *Explorer) Run(inits [][]core.State) (*Result, error) {
	if e.ran {
		return nil, errors.New("explore: Explorer is single-use; construct a new one")
	}
	e.ran = true
	if len(inits) == 0 {
		return nil, errors.New("explore: no initial states")
	}
	for _, init := range inits {
		if len(init) != e.width {
			return nil, fmt.Errorf("explore: initial vector has %d states, want %d", len(init), e.width)
		}
	}
	defer e.dropLayerBuffers()
	if err := e.seedLayer(inits); err != nil {
		return nil, err
	}
	depth := 0
	for e.violation == nil && len(e.frontier) > 0 && depth < e.opts.Depth {
		tasks := e.prepare()
		if len(tasks) == 0 {
			e.frontier = nil
			break
		}
		results := e.expand(tasks)
		next, err := e.merge(tasks, results)
		if err != nil {
			return nil, err
		}
		e.frontier = next
		depth++
	}
	succ, succStart := e.succ, e.succStart
	e.dropLayerBuffers()
	if e.violation == nil && len(e.frontier) == 0 && e.keepEdges {
		e.violation = e.checkEFClean(succ, succStart)
	}
	return e.result(), nil
}

// dropLayerBuffers releases the per-layer buffers and the kept edges once
// Run is done, so a finished explorer holds only its store, its per-node
// columns and its frontier.
func (e *Explorer) dropLayerBuffers() {
	e.tasks, e.results, e.recs, e.keys, e.at, e.newTask, e.enBuf = nil, nil, nil, nil, nil, nil, nil
	e.succ, e.succStart = nil, nil
	for w := range e.workers {
		e.workers[w].arena = nil
	}
}

// seedLayer interns the normalized initial vectors as layer 0, then checks
// them.
func (e *Explorer) seedLayer(inits [][]core.State) error {
	var stop error
	wk := &e.workers[0]
	for _, init := range inits {
		v := normalizeSeed(init)
		rec, key, hash, err := wk.h.encode(v, monState{})
		if err != nil {
			stop = err
			break
		}
		id, slot := e.store.find(hash, key)
		if id >= 0 {
			continue
		}
		enabled, err := wk.eng.Probe(v, wk.arena[:0])
		if err != nil {
			stop = err
			break
		}
		wk.arena = enabled
		if id, err = e.intern(slot, hash, rec, key, enabled, -1, 0, 0); err != nil {
			stop = err
			break
		}
		e.frontier = append(e.frontier, frontierEntry{id: id})
	}
	// The frontier holds exactly the new nodes, in ID order.
	if v := e.checkNodes(0); v != nil {
		e.rollback(v.node + 1)
		e.frontier = e.frontier[:v.node+1]
		e.violation = v
		stop = nil
	}
	e.initial = len(e.frontier)
	return stop
}

// intern adds a new node at the index slot store.find returned for its key
// and records its discovery edge. It runs no check: seedLayer and merge
// intern a whole layer in order and then hand the new nodes to checkNodes,
// which evaluates them on the worker pool.
//
//snapvet:hotpath
func (e *Explorer) intern(slot int, hash uint64, rec, key []byte, enabled []sim.Choice, pred, depth int32, sel uint16) (int32, error) {
	if e.store.len() >= e.opts.MaxStates {
		return -1, fmt.Errorf("explore: state budget %d exceeded (raise MaxStates or lower the depth bound)", e.opts.MaxStates) //snapvet:ok budget failure, ends the search
	}
	id := e.store.add(slot, hash, rec, key, enabled)
	e.pred = append(e.pred, pred)
	e.depth = append(e.depth, depth)
	e.sel = append(e.sel, sel)
	e.explored = append(e.explored, 0)
	e.sleptMask = append(e.sleptMask, 0)
	e.maxDepth = max(e.maxDepth, int(depth))
	return id, nil
}

// checkBatch is how many consecutive nodes a check worker claims at once.
const checkBatch = 64

// checkNodes runs checkNode on every node from ID first on, on the worker
// pool with one scratch configuration per worker, and returns the violation
// of the lowest failing ID (nil if none). Workers claim batches in
// ascending ID order and a worker stops at its first failure, so every ID
// below the lowest failure has been checked: the verdict is the one a
// serial check in ID order reaches.
func (e *Explorer) checkNodes(first int) *violationRec {
	n := e.store.len()
	if first >= n {
		return nil
	}
	workers := min(e.opts.Workers, (n-first+checkBatch-1)/checkBatch)
	for w := range workers {
		if e.workers[w].cfg == nil {
			e.workers[w].cfg = sim.NewConfiguration(e.g, e.pr)
		}
	}
	found := make([]*violationRec, workers)
	var claim atomic.Int64
	claim.Store(int64(first))
	parallel(workers, func(w int) {
		for {
			lo := int(claim.Add(checkBatch) - checkBatch)
			if lo >= n {
				return
			}
			for id := lo; id < min(lo+checkBatch, n); id++ {
				if v := e.checkNode(&e.workers[w], int32(id)); v != nil {
					found[w] = v
					return
				}
			}
		}
	})
	var lowest *violationRec
	for _, v := range found {
		if v != nil && (lowest == nil || v.node < lowest.node) {
			lowest = v
		}
	}
	return lowest
}

// parallel runs body(w) for w in [0, workers) on workers goroutines, or on
// the calling one when workers is 1, and waits for all of them.
func parallel(workers int, body func(w int)) {
	if workers == 1 {
		body(0)
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			body(w)
		}(w)
	}
	wg.Wait()
}

// rollback drops every node from ID keep on: it truncates the store and
// every per-node column, and recomputes the depth high-water mark over the
// nodes kept.
func (e *Explorer) rollback(keep int32) {
	e.store.truncate(int(keep))
	e.pred, e.depth, e.sel = e.pred[:keep], e.depth[:keep], e.sel[:keep]
	e.explored, e.sleptMask = e.explored[:keep], e.sleptMask[:keep]
	e.maxDepth = 0
	for _, d := range e.depth {
		e.maxDepth = max(e.maxDepth, int(d))
	}
}

// checkNode evaluates the per-state verdict checks on one interned node,
// decoding it into the worker's scratch configuration.
//
//snapvet:hotpath
func (e *Explorer) checkNode(wk *worker, id int32) *violationRec {
	wk.enabled = e.store.enabled(id, wk.enabled[:0])
	if len(wk.enabled) == 0 {
		return &violationRec{kind: "deadlock", msg: "no processor enabled", node: id} //snapvet:ok violation record, ends the search
	}
	var seen uint64
	for _, ch := range wk.enabled {
		bit := uint64(1) << uint(ch.Proc)
		if seen&bit != 0 {
			return &violationRec{ //snapvet:ok violation record, ends the search
				kind: "exclusivity",
				msg:  fmt.Sprintf("p%d has multiple enabled guards", ch.Proc), //snapvet:ok violation record, ends the search
				node: id,
			}
		}
		seen |= bit
	}
	if len(e.checks) == 0 {
		return nil
	}
	e.store.decode(id, wk.states)
	loadStates(wk.cfg, wk.states)
	for _, chk := range e.checks {
		if err := chk.Fn(wk.cfg, e.pr); err != nil {
			return &violationRec{kind: "invariant:" + chk.Name, msg: err.Error(), node: id} //snapvet:ok violation record, ends the search
		}
	}
	return nil
}

// loadStates writes states into the boxes of a private scratch
// configuration in place (no box is shared, so nothing is reallocated).
//
//snapvet:hotpath
func loadStates(cfg *sim.Configuration, states []core.State) {
	for p := range states {
		*(cfg.States[p].(*core.State)) = states[p]
	}
}

// prepare turns the current frontier into the layer's task list (serial).
// Under the central daemon with POR on it maintains the sleep-set algebra:
// todo = enabled ∖ sleep ∖ explored, and the i-th child's sleep is
// (sleep ∪ already-explored ∪ earlier-siblings) ∩ indep(taken transition).
// The slept counter tracks transitions that are enabled somewhere but never
// executed; a transition first pruned and later executed on a revisit is
// reclaimed so the POR savings figure stays honest.
func (e *Explorer) prepare() []task {
	tasks := e.tasks[:0]
	for _, fe := range e.frontier {
		id := fe.id
		if e.opts.Power != PowerCentral {
			if e.explored[id] != 0 {
				continue
			}
			e.explored[id] = ^uint16(0)
			e.enBuf = e.store.enabled(id, e.enBuf[:0])
			tasks = e.appendSubsetTasks(tasks, id, e.enBuf)
			continue
		}
		sleep := fe.sleep
		if !e.opts.POR {
			sleep = 0
		}
		enabled, explored, slept := e.store.procs(id), uint64(e.explored[id]), uint64(e.sleptMask[id])
		todo := enabled &^ sleep &^ explored
		reclaimed := slept & todo
		e.slept -= int64(bits.OnesCount64(reclaimed))
		slept &^= todo
		newSlept := enabled &^ explored & sleep &^ slept
		e.slept += int64(bits.OnesCount64(newSlept))
		e.sleptMask[id] = uint16(slept | newSlept)
		if todo == 0 {
			continue
		}
		base := sleep | explored
		e.enBuf = e.store.enabled(id, e.enBuf[:0])
		for _, ch := range e.enBuf {
			bit := uint64(1) << uint(ch.Proc)
			if todo&bit == 0 {
				continue
			}
			var childSleep uint64
			if e.opts.POR {
				childSleep = base & e.indep[ch.Proc]
			}
			tasks = append(tasks, task{node: id, sel: uint16(bit), childSleep: childSleep})
			base |= bit
		}
		e.explored[id] = uint16(explored | todo)
	}
	e.tasks = tasks
	return tasks
}

// appendSubsetTasks emits the non-central selections of one node: every
// non-empty subset of the enabled set in ascending mask order for the
// distributed daemon, the single full set for the synchronous daemon.
func (e *Explorer) appendSubsetTasks(tasks []task, id int32, enabled []sim.Choice) []task {
	if e.opts.Power == PowerSynchronous {
		return append(tasks, task{node: id, sel: uint16(e.store.procs(id))})
	}
	k := len(enabled)
	for mask := 1; mask < 1<<uint(k); mask++ {
		var sel uint16
		for i := 0; i < k; i++ {
			if mask&(1<<uint(i)) != 0 {
				sel |= 1 << uint(enabled[i].Proc)
			}
		}
		tasks = append(tasks, task{node: id, sel: sel})
	}
	return tasks
}

// selectProcs appends to buf the choices of enabled whose processor is in
// procs, in enabled-set order: the daemon selection a task or a node's sel
// column names.
//
//snapvet:hotpath
func selectProcs(buf, enabled []sim.Choice, procs uint16) []sim.Choice {
	for _, ch := range enabled {
		if procs&(1<<uint(ch.Proc)) != 0 {
			buf = append(buf, ch)
		}
	}
	return buf
}

// selection returns, as a slice the caller may keep, the selection procs
// names among node id's enabled set.
func (e *Explorer) selection(id int32, procs uint16) []sim.Choice {
	return selectProcs(nil, e.store.enabled(id, nil), procs)
}

// expandBatch is how many consecutive tasks an expand worker claims at
// once.
const expandBatch = 32

// expand runs the layer's tasks on the worker pool. Workers claim batches
// of consecutive tasks from a shared atomic counter (deterministic
// work-stealing: the claim order is racy but every result lands in its
// task's own slot) and each worker drives its private engine and hasher,
// so the phase shares no mutable state beyond the counter. A batch keeps a
// node's consecutive tasks on one worker, which decodes the node once, and
// keeps the workers' writes to the result slots and record buffers apart.
func (e *Explorer) expand(tasks []task) []taskResult {
	e.results = slices.Grow(e.results[:0], len(tasks))
	results := e.results[:len(tasks)]
	size := len(tasks) * e.store.lay.size
	e.recs = slices.Grow(e.recs[:0], size)[:size]
	if e.store.canon {
		e.keys = slices.Grow(e.keys[:0], size)[:size]
	}
	for w := range e.workers {
		e.workers[w].arena = e.workers[w].arena[:0]
		e.workers[w].decoded = -1
	}
	var next atomic.Int64
	parallel(min(e.opts.Workers, (len(tasks)+expandBatch-1)/expandBatch), func(w int) {
		wk := &e.workers[w]
		for {
			lo := int(next.Add(expandBatch)) - expandBatch
			if lo >= len(tasks) {
				return
			}
			for i := lo; i < min(lo+expandBatch, len(tasks)); i++ {
				results[i] = e.expandTask(wk, &tasks[i], i)
			}
		}
	})
	return results
}

// expandTask decodes the task's node into the worker's buffers unless they
// hold it already, steps the engine, advances the monitor, and encodes and
// hashes the successor into the layer's buffers at index i. The
// successor's enabled set goes to the worker's arena.
//
//snapvet:hotpath
func (e *Explorer) expandTask(wk *worker, t *task, i int) taskResult {
	if wk.decoded != t.node {
		wk.mon = e.store.decode(t.node, wk.states)
		wk.enabled = e.store.enabled(t.node, wk.enabled[:0])
		wk.decoded = t.node
	}
	preMon := wk.mon
	wk.sel = selectProcs(wk.sel[:0], wk.enabled, t.sel)
	from := len(wk.arena)
	arena, err := wk.eng.Step(wk.states, wk.enabled, wk.sel, wk.succ, wk.arena)
	if err != nil {
		return taskResult{err: err}
	}
	wk.arena = arena
	enabled := arena[from:len(arena):len(arena)]
	mon, delivery := e.applyMonitor(wk.states, preMon, wk.sel, wk.succ)
	if delivery != "" {
		return taskResult{delivery: delivery}
	}
	rec, key, hash, err := wk.h.encode(wk.succ, mon)
	if err != nil {
		return taskResult{err: err}
	}
	size := e.store.lay.size
	copy(e.recs[i*size:], rec)
	if e.store.canon {
		copy(e.keys[i*size:], key)
	}
	return taskResult{enabled: enabled, hash: hash}
}

// merge consumes the expand results strictly in task order (serial): counts
// transitions (keeping them as edges when keepEdges), interns new states,
// and accumulates the next frontier, narrowing sleep sets by intersection
// when several same-layer paths reach one state. A delivery violation ends
// the run without counting the transition or interning its target.
//
// The layer's new nodes are then checked on the worker pool (checkNodes).
// A failing check at node v means a serial run would have stopped right
// after interning v: merge rolls back to that point — it drops the nodes
// interned after v and restores the transition count to its value at v's
// task — so every count, the fingerprint and the exported schedule are the
// same at every worker count. The stop is the earliest event in task order:
// a delivery violation, an engine error or an exhausted state budget at a
// task before v's is never reached, and one after it is discarded.
func (e *Explorer) merge(tasks []task, results []taskResult) ([]frontierEntry, error) {
	var next []frontierEntry
	first, transitions := e.store.len(), e.transitions
	if grow := first + len(tasks) - len(e.at); grow > 0 {
		e.at = append(e.at, make([]int32, grow)...)
	}
	e.newTask = e.newTask[:0]
	size := e.store.lay.size
	var stop error
	var delivery *violationRec
	for i := range tasks {
		t, r := &tasks[i], &results[i]
		if r.err != nil {
			stop = r.err
			break
		}
		if r.delivery != "" {
			delivery = &violationRec{kind: "pif-delivery", msg: r.delivery, node: t.node, sel: e.selection(t.node, t.sel)}
			break
		}
		e.transitions++
		rec := e.recs[i*size : (i+1)*size]
		key := rec
		if e.store.canon {
			key = e.keys[i*size : (i+1)*size]
		}
		id, slot := e.store.find(r.hash, key)
		if id < 0 {
			var err error
			id, err = e.intern(slot, r.hash, rec, key, r.enabled, t.node, e.depth[t.node]+1, t.sel)
			if err != nil {
				stop = err
				break
			}
			e.newTask = append(e.newTask, int32(i))
		}
		if e.keepEdges {
			for len(e.succStart) <= int(t.node) {
				e.succStart = append(e.succStart, uint32(len(e.succ)))
			}
			e.succ = append(e.succ, id)
		}
		if j := e.at[id]; j != 0 {
			next[j-1].sleep &= t.childSleep
		} else {
			next = append(next, frontierEntry{id: id, sleep: t.childSleep})
			e.at[id] = int32(len(next))
		}
	}
	for _, fe := range next {
		e.at[fe.id] = 0
	}
	if v := e.checkNodes(first); v != nil {
		e.transitions = transitions + int64(e.newTask[int(v.node)-first]) + 1
		e.rollback(v.node + 1)
		e.violation = v
		return nil, nil
	}
	if stop != nil {
		return nil, stop
	}
	if delivery != nil {
		e.violation = delivery
		return nil, nil
	}
	return next, nil
}

// result assembles the Result from the run's counters.
func (e *Explorer) result() *Result {
	r := &Result{
		Topology:      e.g.Name(),
		N:             e.g.N(),
		Root:          e.root,
		Engine:        e.opts.Engine,
		Power:         e.opts.Power,
		Plant:         e.opts.Plant,
		Depth:         e.opts.Depth,
		MaxDepth:      e.maxDepth,
		InitialStates: e.initial,
		States:        e.store.len(),
		Transitions:   e.transitions,
		Slept:         e.slept,
		SymmetryAutos: len(e.autos),
	}
	if r.Depth == 1<<30 {
		r.Depth = 0 // ran to closure, no bound
	}
	if total := e.transitions + e.slept; total > 0 {
		r.PORSavingsPct = 100 * float64(e.slept) / float64(total)
	}
	r.Fingerprint = fmt.Sprintf("%016x", e.fingerprint())
	switch {
	case e.violation != nil:
		r.Verdict = "violation"
		r.Violation = e.violation.kind + ": " + e.violation.msg
	case len(e.frontier) == 0:
		r.Verdict = "certified"
		r.Complete = true
	default:
		r.Verdict = "bounded"
	}
	return r
}

// fingerprint returns the XOR of FNV-1a over every node's canonical key in
// the wide layout. XOR commutes, so the workers fold contiguous ID ranges
// in their decode buffers.
func (e *Explorer) fingerprint() uint64 {
	n := e.store.len()
	workers := min(e.opts.Workers, max(1, n/checkBatch))
	parts := make([]uint64, workers)
	parallel(workers, func(w int) {
		states := e.workers[w].states
		var wide []byte
		var fp uint64
		for id := w * n / workers; id < (w+1)*n/workers; id++ {
			wide = e.store.wideKey(wide[:0], int32(id), states)
			fp ^= sim.FNV1a(sim.FNVOffset, wide)
		}
		parts[w] = fp
	})
	var fp uint64
	for _, part := range parts {
		fp ^= part
	}
	return fp
}

// Visited returns the sorted canonical keys of every interned state — the
// oracle the POR soundness tests compare: sleep sets may prune transitions
// but never reachable states.
func (e *Explorer) Visited() []string {
	keys := make([]string, e.store.len())
	for i := range keys {
		keys[i] = string(e.store.key(int32(i)))
	}
	sort.Strings(keys)
	return keys
}

// Scenario exports the recorded violation as a replayable hunt.Scenario:
// the discovery-tree path from an initial state to the violating node (plus
// the violating selection itself for delivery violations). Because every
// node's record encodes the concrete successor of its predecessor's
// vector, the exported schedule replays bit for bit even when symmetry
// dedup was active.
func (e *Explorer) Scenario(name string) (*hunt.Scenario, error) {
	if err := e.replayable(); err != nil {
		return nil, err
	}
	if !e.ran {
		return nil, errors.New("explore: Run first")
	}
	if e.violation == nil {
		return nil, errors.New("explore: no violation recorded")
	}
	var rev [][]sim.Choice
	id := e.violation.node
	for e.pred[id] >= 0 {
		rev = append(rev, e.selection(e.pred[id], e.sel[id]))
		id = e.pred[id]
	}
	schedule := make([][]sim.Choice, 0, len(rev)+1)
	for i := len(rev) - 1; i >= 0; i-- {
		schedule = append(schedule, rev[i])
	}
	if e.violation.sel != nil {
		schedule = append(schedule, e.violation.sel)
	}
	return hunt.NewScheduleScenario(name, e.g, e.root, e.configOf(id), schedule, e.opts.Plant), nil
}

// FrontierSeeds exports the unexpanded horizon states (non-empty only for
// depth-bounded incomplete runs) as schedule-free hunt scenarios, handing
// the deepest systematically reached configurations to pifhunt's randomized
// search as start states.
func (e *Explorer) FrontierSeeds(prefix, daemon string, maxSteps int) ([]*hunt.Scenario, error) {
	if err := e.replayable(); err != nil {
		return nil, err
	}
	out := make([]*hunt.Scenario, 0, len(e.frontier))
	for i, fe := range e.frontier {
		name := fmt.Sprintf("%s-%04d", prefix, i)
		out = append(out, hunt.NewSeedScenario(name, e.g, e.root, e.configOf(fe.id), daemon, maxSteps, e.opts.Plant))
	}
	return out, nil
}

// replayable refuses the exports hunt cannot replay: its scenarios run the
// snap protocol alone.
func (e *Explorer) replayable() error {
	if !e.snap() {
		return fmt.Errorf("explore: hunt scenarios replay the snap protocol only, not %s", modelName(e.opts))
	}
	return nil
}

// maxTraceStates bounds the states Trace renders.
const maxTraceStates = 24

// Trace renders the discovery path from an initial state to the recorded
// violation's state, one state per line and at most the last
// maxTraceStates of them. A delivery violation's final step leaves the
// last state shown.
func (e *Explorer) Trace() ([]string, error) {
	if e.violation == nil {
		return nil, errors.New("explore: no violation recorded")
	}
	var path []int32
	for id := e.violation.node; id >= 0; id = e.pred[id] {
		path = append(path, id)
	}
	slices.Reverse(path)
	var out []string
	if skip := len(path) - maxTraceStates; skip > 0 {
		out = append(out, fmt.Sprintf("… (%d earlier states)", skip))
		path = path[skip:]
	}
	states := make([]core.State, e.width)
	for _, id := range path {
		out = append(out, fmt.Sprintf("%3d: %s", e.depth[id], e.render(id, states)))
	}
	return out, nil
}

// render renders node id readably: each vector entry as p{...} (p@r{...}
// in a composition, r the instance's initiator), a * for a fed mark, and
// every open window.
func (e *Explorer) render(id int32, states []core.State) string {
	mon := e.store.decode(id, states)
	n := e.g.N()
	var b strings.Builder
	for s, st := range states {
		if s > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "p%d", s%n)
		if len(e.opts.Initiators) > 0 {
			fmt.Fprintf(&b, "@r%d", e.roots[s/n])
		}
		fmt.Fprintf(&b, "{%v par=%d L=%d", st.Pif, st.Par, st.L)
		if e.opts.Protocol == ProtocolSnap {
			fmt.Fprintf(&b, " cnt=%d fok=%v", st.Count, st.Fok)
		}
		fmt.Fprintf(&b, " m=%d}", st.Msg)
		if mon.fed&(1<<uint(s)) != 0 {
			b.WriteByte('*')
		}
	}
	for i := range e.roots {
		if mon.windows&(1<<uint(i)) != 0 {
			fmt.Fprintf(&b, " [cycle %d open]", i)
		}
	}
	return b.String()
}

// checkEFClean checks, over the kept successors of a closed run, that from
// every reached state some path reaches an all-clean state (every vector
// entry in phase C). It inverts the successor lists into predecessor lists
// by counting sort, searches backwards from the all-clean states, and
// returns the violation of the lowest state the search never reaches (nil
// when it reaches all).
func (e *Explorer) checkEFClean(succ []int32, succStart []uint32) *violationRec {
	n := e.store.len()
	for len(succStart) <= n {
		succStart = append(succStart, uint32(len(succ)))
	}
	// start[v] counts v's predecessors, then becomes the end and finally
	// the start of v's range in preds; start[n] stays the edge count.
	start := make([]uint32, n+1)
	for _, to := range succ {
		start[to]++
	}
	var sum uint32
	for v := range start {
		sum += start[v]
		start[v] = sum
	}
	preds := make([]int32, len(succ))
	for v := int32(0); v < int32(n); v++ {
		for _, to := range succ[succStart[v]:succStart[v+1]] {
			start[to]--
			preds[start[to]] = v
		}
	}
	succ, succStart = nil, nil

	reached := make([]bool, n)
	var queue []int32
	states := make([]core.State, e.width)
	for id := int32(0); id < int32(n); id++ {
		e.store.decode(id, states)
		if !slices.ContainsFunc(states, func(s core.State) bool { return s.Pif != core.C }) {
			reached[id] = true
			queue = append(queue, id)
		}
	}
	for i := 0; i < len(queue); i++ {
		v := queue[i]
		for _, u := range preds[start[v]:start[v+1]] {
			if !reached[u] {
				reached[u] = true
				queue = append(queue, u)
			}
		}
	}
	if id := slices.Index(reached, false); id >= 0 {
		return &violationRec{kind: "ef-clean", msg: "no all-clean configuration is reachable", node: int32(id)}
	}
	return nil
}

// configOf decodes node id into a fresh configuration.
func (e *Explorer) configOf(id int32) *sim.Configuration {
	states := make([]core.State, e.g.N())
	e.store.decode(id, states)
	cfg := sim.NewConfiguration(e.g, e.pr)
	for p, s := range states {
		core.Set(cfg, p, s)
	}
	return cfg
}
