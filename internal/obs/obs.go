// Package obs is the observability layer of the repository: a structured
// JSONL event tracer for simulation and concurrent-runtime runs, the
// decoder the piftrace analysis CLI is built on, and the one metrics
// surface — a registry exported via expvar, holding one type per metric
// kind: Counter, Gauge, Text and the log₂-bucketed LogHist histogram.
// Every package that reports a number (telemetry, the concurrent runtime,
// the experiment executor, the service report) uses these types.
//
// # Event traces
//
// A trace is a stream of JSON objects, one per line, each carrying a "t"
// discriminator. The kinds, in the order they normally appear:
//
//	meta    trace header: schema version, protocol and action names, the
//	        topology (name, N, root, full edge list), protocol parameters
//	        (Lmax, N'), daemon name, seed. Written once, first.
//	run     start of one sim.Run segment (a Network may run many waves
//	        over the same tracer; step indices restart per segment).
//	init    full per-processor state snapshot at the start of a segment
//	        (after any initial corruption) — what offline replay starts
//	        from.
//	fault   a fault injection, with the post-injection snapshot.
//	step    one committed computation step: index plus the executed
//	        (processor, action) pairs.
//	phase   one processor's PIF phase transition (B/F/C) during a step.
//	wave    a PIF wave boundary observed at the root: "start" when the
//	        root's B-action opens a broadcast, "end" when the root returns
//	        to clean.
//	round   a round boundary (per the paper's round definition).
//	abn     the abnormal-processor count, sampled at each round boundary.
//	action  one action execution in the concurrent runtime (globally
//	        sequenced; the runtime has no step/round structure).
//	final   full state snapshot at Close time.
//	summary totals: steps, moves, rounds, waves, moves per action.
//
// Payload registers (Msg) are encoded as decimal strings: they are uint64
// values that may exceed 2^53, which JSON numbers cannot carry exactly.
//
// # Overhead contract
//
// A disabled Tracer is free: every callback returns after one nil/bool
// check, performing zero heap allocations — the simulation engine's
// zero-allocation step contract holds with a disabled tracer attached
// (asserted by TestDisabledTracerZeroAllocs, gated in CI). An enabled
// tracer encodes events into recycled buffers and hands them to a
// ring-buffered background writer; producers block only when the ring is
// full (traces are complete — no sampling, no silent drops).
package obs

// SchemaVersion identifies the trace wire format; bump on incompatible
// changes to the event schema.
const SchemaVersion = 1

// Mask selects which event kinds an enabled Tracer emits.
type Mask uint

// Event kind bits. Meta, run headers, and the summary are always written.
const (
	// Steps emits one event per committed computation step.
	Steps Mask = 1 << iota
	// Rounds emits round-boundary events.
	Rounds
	// Phases emits per-processor B/F/C phase transitions.
	Phases
	// Waves emits wave start/end events observed at the root.
	Waves
	// Abnormal samples the abnormal-processor count at round boundaries.
	Abnormal
	// Snapshots emits init/fault/final full-state snapshots.
	Snapshots
	// Actions emits concurrent-runtime action events.
	Actions

	// All enables every event kind (the default).
	All = Steps | Rounds | Phases | Waves | Abnormal | Snapshots | Actions
)
