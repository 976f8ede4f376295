// Package event is the struct-of-arrays execution engine: the runner that
// steps the paper's PIF protocol over internal/flat's state and
// guard/action kernels, with per-step cost bounded by the *active frontier*
// instead of N. The engine name "event" selects it in either of its two
// scheduling modes: under an external sim.Daemon (no latency), or from its
// own discrete-event wake queue (per-link latencies).
//
// # Model
//
// Virtual time is a tick counter. A calendar-ring wake queue maps each tick
// to the processors that must re-evaluate their guards at that tick. One
// committed step pops the earliest non-empty effective batch — the woken
// processors that are currently enabled, in ascending order — and executes
// all of them under composite atomicity (stage from the pre-step state,
// scatter-commit), exactly like one distributed-daemon step. Committing a
// batch at tick t posts its consequences: each mover re-evaluates at t+1,
// and each of the mover's neighbors at t+1+L where L is drawn from a
// pluggable per-link latency distribution (constant, uniform, or capped
// heavy-tail; see Latency). Ticks whose woken set is entirely disabled are
// consumed silently.
//
// # Invariants
//
// The scheduler maintains "enabled ⇒ wake pending": initially every enabled
// processor is woken at tick 1; afterwards a processor's guard can only
// change when its closed neighborhood changes (the kernel's invalidation
// radius is 1, statically certified by snapvet's radiusbound analyzer), and
// every such change posts a wake. Consequences:
//
//   - Every executed action's guard genuinely holds at execution time, so
//     the induced schedule is a legal schedule of the paper's distributed
//     daemon, and the daemon-independent proofs (Theorems 1–4) apply.
//   - Weak fairness is intrinsic: a continuously enabled processor executes
//     within Latency.Max()+1 ticks.
//   - Termination detection is exact: no processor enabled ⇔ the queue
//     drains to nothing effective.
//
// # Equivalence
//
// With Options.Latency nil, the runner executes an external daemon's
// schedule and reproduces sim.Runner bit for bit: same RNG draw sequence,
// moves, rounds, fairness forcing, observer order, and error contract — the
// synchronous daemon is the degenerate zero-latency case. With a Latency,
// the same schedule can drive the sim engine via InducedDaemon, which
// replays the wake queue as a plain sim.Daemon with an identical RNG
// stream. The differential grid and the fuzz target in this package
// enforce both refinements byte-for-byte on obs traces.
//
// # Cost
//
// Per committed step: O(batch + Σ degrees of the batch + enabled-set
// churn), plus the span of summary words (one per 4096 processors) that
// the step's bitsets hold. Round accounting is epoch-based (a sequence
// number instead of a Θ(N/64) pending-bitset copy per round boundary), so
// nothing on the step path scales with N once the configuration is built
// (see BENCH_scale.json's line-frontier cells, where a one-processor
// cleaning frontier steps in a few hundred ns at N = 10⁶).
//
// Under a BFS slot layout (see flat.Config) the step also re-sorts the
// enabled list and the selection between slot and processor order through
// a scratch bitset: O(batch + the span of summary words it touches).
//
// See DESIGN.md §12 for the queue layout, the invalidation rules, and the
// latency model.
package event
