package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"snappif/internal/core"
	"snappif/internal/graph"
	"snappif/internal/sim"
)

// Meta is the trace header event.
type Meta struct {
	T        string   `json:"t"`
	V        int      `json:"v"`
	Protocol string   `json:"protocol,omitempty"`
	Actions  []string `json:"actions,omitempty"`
	Graph    string   `json:"graph,omitempty"`
	N        int      `json:"n,omitempty"`
	Root     int      `json:"root"`
	Lmax     int      `json:"lmax,omitempty"`
	NPrime   int      `json:"nprime,omitempty"`
	Daemon   string   `json:"daemon,omitempty"`
	Seed     int64    `json:"seed,omitempty"`
	Edges    [][2]int `json:"edges,omitempty"`
}

// Snapshot is a full per-processor state capture ("init", "fault", or
// "final"). Msg registers are decimal strings (uint64 exceeds JSON number
// precision).
type Snapshot struct {
	T     string   `json:"t"`
	Run   int      `json:"run,omitempty"`
	Name  string   `json:"name,omitempty"`
	Pif   string   `json:"pif"`
	Par   []int    `json:"par"`
	L     []int    `json:"l"`
	Count []int    `json:"count"`
	Fok   []bool   `json:"fok"`
	Msg   []string `json:"msg"`
	Val   []int64  `json:"val"`
	Agg   []int64  `json:"agg"`
}

// Summary is the trailing totals event.
type Summary struct {
	T              string         `json:"t"`
	Steps          int            `json:"steps"`
	Moves          int            `json:"moves"`
	Rounds         int            `json:"rounds"`
	Waves          int            `json:"waves,omitempty"`
	Runs           int            `json:"runs,omitempty"`
	ActionEvents   int64          `json:"action_events,omitempty"`
	Dropped        int            `json:"dropped,omitempty"`
	MovesPerAction map[string]int `json:"moves_per_action,omitempty"`
}

// newMeta fills the header from a protocol instance and topology.
func newMeta(g *graph.Graph, pr *core.Protocol, daemon string, seed int64) Meta {
	m := Meta{
		T:      "meta",
		V:      SchemaVersion,
		Daemon: daemon,
		Seed:   seed,
	}
	if g != nil {
		m.Graph = g.Name()
		m.N = g.N()
		m.Edges = g.Edges()
	}
	if pr != nil {
		m.Protocol = pr.Name()
		m.Actions = pr.ActionNames()
		m.Root = pr.Root
		m.Lmax = pr.Lmax
		m.NPrime = pr.NPrime
	}
	return m
}

// newSnapshot captures every processor's state. The configuration must hold
// *core.State boxes.
func newSnapshot(kind string, run int, name string, c *sim.Configuration) Snapshot {
	n := c.N()
	snap := Snapshot{
		T:     kind,
		Run:   run,
		Name:  name,
		Par:   make([]int, n),
		L:     make([]int, n),
		Count: make([]int, n),
		Fok:   make([]bool, n),
		Msg:   make([]string, n),
		Val:   make([]int64, n),
		Agg:   make([]int64, n),
	}
	pif := make([]byte, n)
	for p := 0; p < n; p++ {
		s := core.At(c, p)
		pif[p] = s.Pif.String()[0]
		snap.Par[p] = s.Par
		snap.L[p] = s.L
		snap.Count[p] = s.Count
		snap.Fok[p] = s.Fok
		snap.Msg[p] = strconv.FormatUint(s.Msg, 10)
		snap.Val[p] = s.Val
		snap.Agg[p] = s.Agg
	}
	snap.Pif = string(pif)
	return snap
}

// CaptureSnapshot captures every processor's state as an "init"-kind
// snapshot — the exported entry point for tools that persist configurations
// outside a trace (hunt scenarios). The configuration must hold *core.State
// boxes.
func CaptureSnapshot(c *sim.Configuration) Snapshot {
	return newSnapshot("init", 0, "", c)
}

// RestoreSnapshot writes a snapshot back into a configuration; the exported
// inverse of CaptureSnapshot.
func RestoreSnapshot(snap Snapshot, c *sim.Configuration) error {
	return restoreSnapshot(snap, c)
}

// restoreSnapshot writes a snapshot back into a configuration; the inverse
// of newSnapshot, used by offline replay. Snapshots may come from untrusted
// JSON (hunt scenario files, fuzzed inputs), so every per-processor array is
// length-checked and every field parsed *before* the first state is written:
// a malformed snapshot returns an error with the configuration untouched,
// never a panic or a half-applied restore.
func restoreSnapshot(snap Snapshot, c *sim.Configuration) error {
	n := c.N()
	if len(snap.Pif) != n {
		return fmt.Errorf("obs: snapshot has %d processors, configuration %d", len(snap.Pif), n)
	}
	for _, f := range []struct {
		name string
		len  int
	}{
		{"par", len(snap.Par)}, {"l", len(snap.L)}, {"count", len(snap.Count)},
		{"fok", len(snap.Fok)}, {"msg", len(snap.Msg)}, {"val", len(snap.Val)},
		{"agg", len(snap.Agg)},
	} {
		if f.len != n {
			return fmt.Errorf("obs: snapshot field %q has %d entries, want %d", f.name, f.len, n)
		}
	}
	states := make([]core.State, n)
	for p := 0; p < n; p++ {
		var ph core.Phase
		switch snap.Pif[p] {
		case 'B':
			ph = core.B
		case 'F':
			ph = core.F
		case 'C':
			ph = core.C
		default:
			return fmt.Errorf("obs: snapshot phase %q at p%d", snap.Pif[p], p)
		}
		msg, err := strconv.ParseUint(snap.Msg[p], 10, 64)
		if err != nil {
			return fmt.Errorf("obs: snapshot msg at p%d: %v", p, err)
		}
		states[p] = core.State{
			Pif:   ph,
			Par:   snap.Par[p],
			L:     snap.L[p],
			Count: snap.Count[p],
			Fok:   snap.Fok[p],
			Msg:   msg,
			Val:   snap.Val[p],
			Agg:   snap.Agg[p],
		}
	}
	for p := 0; p < n; p++ {
		core.Set(c, p, states[p])
	}
	return nil
}

// marshalLine renders a cold-path event as one JSONL line.
func marshalLine(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		// All event types are plain data; Marshal cannot fail on them.
		panic(fmt.Sprintf("obs: marshal: %v", err))
	}
	return append(b, '\n')
}

// The hand-rolled appenders below build the hot-path event lines without
// encoding/json: one step event per committed step must not dominate the
// simulation's own cost.

// appendStep appends {"t":"step","i":3,"exec":[[p,a],...]}.
func appendStep(buf []byte, step int, executed []sim.Choice) []byte {
	buf = append(buf, `{"t":"step","i":`...)
	buf = strconv.AppendInt(buf, int64(step), 10)
	buf = append(buf, `,"exec":[`...)
	for i, ch := range executed {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, '[')
		buf = strconv.AppendInt(buf, int64(ch.Proc), 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, int64(ch.Action), 10)
		buf = append(buf, ']')
	}
	return append(buf, `]}`+"\n"...)
}

// appendRound appends {"t":"round","round":4,"i":9}.
func appendRound(buf []byte, round, step int) []byte {
	buf = append(buf, `{"t":"round","round":`...)
	buf = strconv.AppendInt(buf, int64(round), 10)
	buf = append(buf, `,"i":`...)
	buf = strconv.AppendInt(buf, int64(step), 10)
	return append(buf, '}', '\n')
}

// appendPhase appends {"t":"phase","i":3,"p":2,"from":"C","to":"B"}.
func appendPhase(buf []byte, step, proc int, from, to core.Phase) []byte {
	buf = append(buf, `{"t":"phase","i":`...)
	buf = strconv.AppendInt(buf, int64(step), 10)
	buf = append(buf, `,"p":`...)
	buf = strconv.AppendInt(buf, int64(proc), 10)
	buf = append(buf, `,"from":"`...)
	buf = append(buf, from.String()...)
	buf = append(buf, `","to":"`...)
	buf = append(buf, to.String()...)
	return append(buf, '"', '}', '\n')
}

// appendWave appends {"t":"wave","kind":"start","wave":1,"i":3,"round":2,"m":"7"}
// plus the census debris at a start, `"abn":2`, when it is positive.
func appendWave(buf []byte, kind string, wave, step, round int, msg uint64, abn int) []byte {
	buf = append(buf, `{"t":"wave","kind":"`...)
	buf = append(buf, kind...)
	buf = append(buf, `","wave":`...)
	buf = strconv.AppendInt(buf, int64(wave), 10)
	buf = append(buf, `,"i":`...)
	buf = strconv.AppendInt(buf, int64(step), 10)
	buf = append(buf, `,"round":`...)
	buf = strconv.AppendInt(buf, int64(round), 10)
	buf = append(buf, `,"m":"`...)
	buf = strconv.AppendUint(buf, msg, 10)
	buf = append(buf, '"')
	if abn > 0 {
		buf = append(buf, `,"abn":`...)
		buf = strconv.AppendInt(buf, int64(abn), 10)
	}
	return append(buf, '}', '\n')
}

// appendAbnormal appends {"t":"abn","round":4,"abn":2}.
func appendAbnormal(buf []byte, round, count int) []byte {
	buf = append(buf, `{"t":"abn","round":`...)
	buf = strconv.AppendInt(buf, int64(round), 10)
	buf = append(buf, `,"abn":`...)
	buf = strconv.AppendInt(buf, int64(count), 10)
	return append(buf, '}', '\n')
}

// appendAction appends {"t":"action","seq":17,"p":3,"a":2}.
func appendAction(buf []byte, seq int64, proc, action int) []byte {
	buf = append(buf, `{"t":"action","seq":`...)
	buf = strconv.AppendInt(buf, seq, 10)
	buf = append(buf, `,"p":`...)
	buf = strconv.AppendInt(buf, int64(proc), 10)
	buf = append(buf, `,"a":`...)
	buf = strconv.AppendInt(buf, int64(action), 10)
	return append(buf, '}', '\n')
}

// appendRun appends {"t":"run","run":2,"seed":7}.
func appendRun(buf []byte, run int, seed int64) []byte {
	buf = append(buf, `{"t":"run","run":`...)
	buf = strconv.AppendInt(buf, int64(run), 10)
	if seed != 0 {
		buf = append(buf, `,"seed":`...)
		buf = strconv.AppendInt(buf, seed, 10)
	}
	return append(buf, '}', '\n')
}

// Encoder writes trace events synchronously as JSONL — the export path for
// pre-recorded event logs (trace.Recorder) and other cold producers. The
// async Tracer shares the same wire format but buffers through its ring.
type Encoder struct {
	w   io.Writer
	err error
}

// NewEncoder returns an Encoder writing JSONL to w.
func NewEncoder(w io.Writer) *Encoder { return &Encoder{w: w} }

// write appends one line, capturing the first error.
func (e *Encoder) write(line []byte) {
	if e.err != nil {
		return
	}
	_, e.err = e.w.Write(line)
}

// Meta writes the trace header.
func (e *Encoder) Meta(m Meta) {
	m.T = "meta"
	if m.V == 0 {
		m.V = SchemaVersion
	}
	e.write(marshalLine(m))
}

// Step writes one step event.
func (e *Encoder) Step(step int, executed []sim.Choice) {
	e.write(appendStep(nil, step, executed))
}

// Summary writes the trailing totals event.
func (e *Encoder) Summary(s Summary) {
	s.T = "summary"
	e.write(marshalLine(s))
}

// Err returns the first write error.
func (e *Encoder) Err() error { return e.err }
