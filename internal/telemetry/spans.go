package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"snappif/internal/obs"
)

// Span is one causal PIF wave span: the root's broadcast start (C→B),
// feedback completion (B→F), and cleaning completion (→C), in logical time
// (steps, rounds) and — live, when a clock is attached — wall time.
type Span struct {
	// Run is the 1-based index of the run the wave started in: each
	// BeginRun, or each run event of a trace, starts the next run (0 before
	// the first). Step and round numbers restart with every run.
	Run int
	// Wave is the 1-based wave number.
	Wave int
	// Msg is the wave's payload stamp (the root's Msg register at start).
	Msg uint64
	// StartStep, FeedbackStep, EndStep are the committed step indices of
	// the three root transitions. FeedbackStep is 0 before the root's
	// F-action, and in traces recorded without phase events.
	StartStep, FeedbackStep, EndStep int
	// StartRound, EndRound are the 1-based rounds in progress at start and
	// end.
	StartRound, EndRound int
	// StartNS, FeedbackNS, EndNS are the telemetry clock's nanosecond
	// stamps (0 without a clock, and in spans built from a trace).
	StartNS, FeedbackNS, EndNS int64
	// Abnormal reports broadcast/feedback leftovers from corruption or an
	// earlier aborted wave were present when this wave started; AbnProcs is
	// how many (the processors other than the root in B or F at start).
	Abnormal bool
	AbnProcs int
	// Open reports the wave had not completed when its run ended, a fault
	// cut it, or the recording stopped; EndStep/EndRound/EndNS are then
	// unset.
	Open bool
}

// Rounds is the number of rounds the wave spanned (0 while open).
func (s Span) Rounds() int {
	if s.Open {
		return 0
	}
	return s.EndRound - s.StartRound + 1
}

// Steps is the number of steps the wave spanned (0 while open).
func (s Span) Steps() int {
	if s.Open {
		return 0
	}
	return s.EndStep - s.StartStep + 1
}

// traceEvent is one Chrome trace_event entry. Fields marshal in
// declaration order and args maps marshal with sorted keys, so the export
// is byte-stable for golden tests.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   int64          `json:"ts"`
	Dur  int64          `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// traceFile is the trace_event JSON object format's top level.
type traceFile struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// spanTimes maps a span onto the export's microsecond timeline: wall-clock
// µs when stamps are present, the step index as one virtual µs per step
// otherwise (Perfetto needs monotone numbers, not real time).
func spanTimes(s Span) (start, feedback, end int64, wall bool) {
	if s.StartNS > 0 {
		start = s.StartNS / 1000
		feedback = s.FeedbackNS / 1000
		end = s.EndNS / 1000
		return start, feedback, end, true
	}
	return int64(s.StartStep), int64(s.FeedbackStep), int64(s.EndStep), false
}

// WriteTraceEvents renders spans as Chrome trace_event JSON (the format
// chrome://tracing and Perfetto load directly): one complete ("X") event
// per wave on the wave track, nested broadcast/feedback+clean sub-events
// when the feedback transition is known, and an abnormal-leftovers track
// marking waves that started over corruption debris. Open spans export as
// zero-duration instants.
func WriteTraceEvents(w io.Writer, name string, spans []Span) error {
	evs := []traceEvent{
		{Name: "process_name", Ph: "M", Pid: 1, Tid: 0, Args: map[string]any{"name": name}},
		{Name: "thread_name", Ph: "M", Pid: 1, Tid: 1, Args: map[string]any{"name": "pif-waves"}},
		{Name: "thread_name", Ph: "M", Pid: 1, Tid: 2, Args: map[string]any{"name": "abnormal"}},
	}
	for _, s := range spans {
		start, feedback, end, wall := spanTimes(s)
		args := map[string]any{
			"wave":   s.Wave,
			"msg":    fmt.Sprintf("%d", s.Msg),
			"rounds": s.Rounds(),
			"steps":  s.Steps(),
			"wall":   wall,
		}
		if s.Abnormal {
			args["abn_procs"] = s.AbnProcs
		}
		label := fmt.Sprintf("wave %d", s.Wave)
		if s.Open {
			evs = append(evs, traceEvent{Name: label + " (open)", Ph: "i", TS: start, Pid: 1, Tid: 1, S: "t", Args: args})
			continue
		}
		evs = append(evs, traceEvent{Name: label, Ph: "X", TS: start, Dur: end - start, Pid: 1, Tid: 1, Args: args})
		if s.FeedbackStep > 0 && feedback >= start && feedback <= end {
			evs = append(evs,
				traceEvent{Name: "broadcast", Ph: "X", TS: start, Dur: feedback - start, Pid: 1, Tid: 1},
				traceEvent{Name: "feedback+clean", Ph: "X", TS: feedback, Dur: end - feedback, Pid: 1, Tid: 1},
			)
		}
		if s.Abnormal {
			evs = append(evs, traceEvent{
				Name: fmt.Sprintf("abnormal(%d)", s.AbnProcs), Ph: "X", TS: start, Dur: end - start,
				Pid: 1, Tid: 2, Args: map[string]any{"abn_procs": s.AbnProcs},
			})
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(traceFile{TraceEvents: evs, DisplayTimeUnit: "ms"})
}

// spanBuilder is the one wave-span state machine. Live telemetry
// (Telemetry.Step, BeginRun, Spans) and SpansFromTrace feed it the same
// events, read off the root's own actions in Algorithm 1: its B-action opens
// a wave, its F-action completes the feedback, and its C-action or
// B-correction ends the wave. A run boundary or fault cuts a wave still open,
// which is kept as an Open span with its payload.
type spanBuilder struct {
	spans   []Span
	max     int // retention cap; 0 keeps every span
	dropped int64
	runs    int  // runs begun so far
	waves   int  // waves opened so far
	cur     Span // the open wave, valid while open
	open    bool
}

// beginRun cuts a wave still open and starts the next run.
func (b *spanBuilder) beginRun() {
	b.cut()
	b.runs++
}

// start opens the next wave at the root's B-action. debris is the census
// debris at open — the processors other than the root in B or F — and marks
// the wave abnormal when positive.
func (b *spanBuilder) start(step, round int, msg uint64, debris int, ns int64) {
	b.cut()
	b.waves++
	b.cur = Span{Run: b.runs, Wave: b.waves, Msg: msg, StartStep: step, StartRound: round, StartNS: ns}
	if debris > 0 {
		b.cur.Abnormal, b.cur.AbnProcs = true, debris
	}
	b.open = true
}

// feedback records the root's F-action inside the open wave.
func (b *spanBuilder) feedback(step int, ns int64) {
	if b.open {
		b.cur.FeedbackStep, b.cur.FeedbackNS = step, ns
	}
}

// end completes the open wave at the root's return to C and reports it; ok
// is false when no wave is open.
func (b *spanBuilder) end(step, round int, ns int64) (s Span, ok bool) {
	if !b.open {
		return Span{}, false
	}
	b.open = false
	s = b.cur
	s.EndStep, s.EndRound, s.EndNS = step, round, ns
	b.keep(s)
	return s, true
}

// cut keeps a wave still open at a run boundary or fault as an Open span.
func (b *spanBuilder) cut() {
	if b.open {
		b.open = false
		s := b.cur
		s.Open = true
		b.keep(s)
	}
}

func (b *spanBuilder) keep(s Span) {
	if b.max > 0 && len(b.spans) >= b.max {
		b.dropped++
		return
	}
	b.spans = append(b.spans, s)
}

// snapshot returns a copy of the kept spans followed by the open wave, if
// any, as an Open span.
func (b *spanBuilder) snapshot() []Span {
	out := make([]Span, len(b.spans), len(b.spans)+1)
	copy(out, b.spans)
	if b.open {
		s := b.cur
		s.Open = true
		out = append(out, s)
	}
	return out
}

// SpansFromTrace reconstructs wave spans from a decoded obs JSONL trace with
// the builder live telemetry uses: wave start/end events bound each span
// (the start event carries the census debris), the root's B→F phase event
// inside it marks feedback completion, run and fault events cut a wave
// still open, and each run event starts the next run. Offline spans are logical only: steps and rounds.
func SpansFromTrace(tr *obs.Trace) ([]Span, error) {
	if tr.Meta == nil {
		return nil, fmt.Errorf("telemetry: trace has no meta header (wave spans need the root)")
	}
	root := tr.Meta.Root
	var b spanBuilder
	for _, ev := range tr.Events {
		switch ev.T {
		case "wave":
			switch ev.Kind {
			case "start":
				msg, _ := strconv.ParseUint(ev.M, 10, 64)
				b.start(ev.I, ev.Round, msg, ev.Abn, 0)
			case "end":
				b.end(ev.I, ev.Round, 0)
			}
		case "phase":
			if ev.P == root && ev.From == "B" && ev.To == "F" {
				b.feedback(ev.I, 0)
			}
		case "run":
			b.beginRun()
		case "fault":
			b.cut()
		}
	}
	return b.snapshot(), nil
}
