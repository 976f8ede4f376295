package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"snappif/internal/graph"
	"snappif/internal/sim"
)

// Event is the decoded form of one trace line. It is the union of all event
// kinds; T discriminates which fields are meaningful (see the package doc
// for the schema).
type Event struct {
	T string `json:"t"`

	// meta
	V        int      `json:"v,omitempty"`
	Protocol string   `json:"protocol,omitempty"`
	Actions  []string `json:"actions,omitempty"`
	Graph    string   `json:"graph,omitempty"`
	N        int      `json:"n,omitempty"`
	Root     int      `json:"root,omitempty"`
	Lmax     int      `json:"lmax,omitempty"`
	NPrime   int      `json:"nprime,omitempty"`
	Daemon   string   `json:"daemon,omitempty"`
	Seed     int64    `json:"seed,omitempty"`
	Edges    [][2]int `json:"edges,omitempty"`

	// run / snapshots (init, fault, final)
	Run   int      `json:"run,omitempty"`
	Name  string   `json:"name,omitempty"`
	Pif   string   `json:"pif,omitempty"`
	Par   []int    `json:"par,omitempty"`
	L     []int    `json:"l,omitempty"`
	Count []int    `json:"count,omitempty"`
	Fok   []bool   `json:"fok,omitempty"`
	Msg   []string `json:"msg,omitempty"`
	Val   []int64  `json:"val,omitempty"`
	Agg   []int64  `json:"agg,omitempty"`

	// step / phase / round / wave
	I     int      `json:"i,omitempty"`
	Exec  [][2]int `json:"exec,omitempty"`
	P     int      `json:"p,omitempty"`
	From  string   `json:"from,omitempty"`
	To    string   `json:"to,omitempty"`
	Round int      `json:"round,omitempty"`
	Kind  string   `json:"kind,omitempty"`
	Wave  int      `json:"wave,omitempty"`
	M     string   `json:"m,omitempty"`

	// abn; on a wave start, the census debris
	Abn int `json:"abn,omitempty"`

	// action
	Seq int64 `json:"seq,omitempty"`
	A   int   `json:"a,omitempty"`

	// summary
	Steps          int            `json:"steps,omitempty"`
	Moves          int            `json:"moves,omitempty"`
	Rounds         int            `json:"rounds,omitempty"`
	Waves          int            `json:"waves,omitempty"`
	Runs           int            `json:"runs,omitempty"`
	ActionEvents   int64          `json:"action_events,omitempty"`
	Dropped        int            `json:"dropped,omitempty"`
	MovesPerAction map[string]int `json:"moves_per_action,omitempty"`
}

// snapshot converts a decoded snapshot event back to the encoder's form.
func (e *Event) snapshot() Snapshot {
	return Snapshot{
		T: e.T, Run: e.Run, Name: e.Name,
		Pif: e.Pif, Par: e.Par, L: e.L, Count: e.Count,
		Fok: e.Fok, Msg: e.Msg, Val: e.Val, Agg: e.Agg,
	}
}

// Restore writes a snapshot event ("init", "fault", "final") back into a
// configuration of *core.State boxes — the entry point of offline replay.
func (e *Event) Restore(c *sim.Configuration) error {
	switch e.T {
	case "init", "fault", "final":
		return restoreSnapshot(e.snapshot(), c)
	default:
		return fmt.Errorf("obs: event kind %q is not a snapshot", e.T)
	}
}

// Trace is a fully decoded event trace.
type Trace struct {
	// Meta is the header, or nil when the trace lacks one (e.g. a bare
	// Recorder export).
	Meta *Event
	// Events holds every event in file order, the header included.
	Events []*Event
	// Summary is the trailing totals event, or nil.
	Summary *Event
}

// ReadTrace decodes a JSONL event trace. Unknown event kinds are kept (the
// schema is forward-extensible); malformed lines are an error.
func ReadTrace(r io.Reader) (*Trace, error) {
	t := &Trace{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		ev := new(Event)
		if err := json.Unmarshal(line, ev); err != nil {
			return nil, fmt.Errorf("obs: trace line %d: %w", lineNo, err)
		}
		if ev.T == "" {
			return nil, fmt.Errorf("obs: trace line %d: missing event kind", lineNo)
		}
		t.Events = append(t.Events, ev)
		switch ev.T {
		case "meta":
			if t.Meta == nil {
				t.Meta = ev
			}
		case "summary":
			t.Summary = ev
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("obs: reading trace: %w", err)
	}
	if len(t.Events) == 0 {
		return nil, fmt.Errorf("obs: empty trace")
	}
	return t, nil
}

// Graph reconstructs the topology recorded in the header. It fails when the
// trace has no header or the header carries no edge list.
func (t *Trace) Graph() (*graph.Graph, error) {
	if t.Meta == nil {
		return nil, fmt.Errorf("obs: trace has no meta header")
	}
	if t.Meta.N == 0 || len(t.Meta.Edges) == 0 {
		return nil, fmt.Errorf("obs: trace header has no topology (n=%d, %d edges)",
			t.Meta.N, len(t.Meta.Edges))
	}
	name := t.Meta.Graph
	if name == "" {
		name = "traced"
	}
	return graph.New(name, t.Meta.N, t.Meta.Edges)
}

// Diff compares two traces event-for-event over the deterministic kinds
// (header, snapshots, steps, rounds, phases, waves, summary) and returns a
// description of the first divergence, or "" when the traces are
// equivalent. It is the cross-binary determinism oracle: two runs of the
// same protocol, topology, daemon, and seed must produce equivalent traces.
func Diff(a, b *Trace) string {
	fa, fb := filterDeterministic(a.Events), filterDeterministic(b.Events)
	n := len(fa)
	if len(fb) < n {
		n = len(fb)
	}
	for i := 0; i < n; i++ {
		ea, eb := fa[i], fb[i]
		la, errA := json.Marshal(ea)
		lb, errB := json.Marshal(eb)
		if errA != nil || errB != nil {
			return fmt.Sprintf("event %d: re-encode failed (%v, %v)", i, errA, errB)
		}
		if string(la) != string(lb) {
			return fmt.Sprintf("event %d diverges:\n  a: %s\n  b: %s", i, la, lb)
		}
	}
	if len(fa) != len(fb) {
		return fmt.Sprintf("trace lengths diverge: %d vs %d deterministic events", len(fa), len(fb))
	}
	return ""
}

// filterDeterministic drops the event kinds whose presence or order is
// timing-dependent (concurrent-runtime action events).
func filterDeterministic(evs []*Event) []*Event {
	out := make([]*Event, 0, len(evs))
	for _, e := range evs {
		if e.T != "action" {
			out = append(out, e)
		}
	}
	return out
}
