package main

import (
	"fmt"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the call. Parent is -1 for the phase's root span. An async span (a
// served request) overlaps its siblings, so it is kept out of its parent's
// self-time accounting.
type span struct {
	ID     int32            `json:"id"`
	Parent int32            `json:"parent"`
	Name   string           `json:"name"`
	Start  int64            `json:"start_ns"`
	End    int64            `json:"end_ns"`
	Async  bool             `json:"async,omitempty"`
	Attrs  map[string]int64 `json:"attrs,omitempty"`
}

// tracer keeps spans in memory until the run ends. Every method is a no-op
// on a nil tracer, which is how untraced phases run.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// now is the tracer's clock: nanoseconds since the tracer was made.
func (t *tracer) now() int64 { return time.Since(t.epoch).Nanoseconds() }

// start opens a span and returns its ID.
func (t *tracer) start(name string, parent int32) int32 {
	if t == nil {
		return -1
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: t.now(), End: -1})
	return id
}

// finish closes span id.
func (t *tracer) finish(id int32) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].End = t.now()
}

// attr sets an attribute on span id.
func (t *tracer) attr(id int32, key string, v int64) {
	if t == nil || id < 0 {
		return
	}
	s := &t.spans[id]
	if s.Attrs == nil {
		s.Attrs = map[string]int64{}
	}
	s.Attrs[key] = v
}

// addAsync records a finished async span from clock readings taken by the
// layer itself.
func (t *tracer) addAsync(name string, parent int32, start, end int64, attrs map[string]int64) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{ID: int32(len(t.spans)), Parent: parent, Name: name, Start: start, End: end, Async: true, Attrs: attrs})
}

// selfTimeRow is one line of the self-time table: every span of one name.
// Async spans overlap each other, so they carry no self time.
type selfTimeRow struct {
	Name   string  `json:"name"`
	Count  int     `json:"count"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
	OfWall float64 `json:"self_share_of_wall"`
	Async  bool    `json:"async,omitempty"`
}

// selfNS returns every span's self time: its duration minus the union of
// its synchronous children's intervals.
func (t *tracer) selfNS() []int64 {
	children := make([][]int32, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 && !s.Async {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return t.spans[kids[a]].Start < t.spans[kids[b]].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(t.spans[k].Start, reach), min(t.spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// wallNS is the summed duration of the root spans: the phase's wall time.
func (t *tracer) wallNS() int64 {
	var w int64
	for _, s := range t.spans {
		if s.Parent < 0 {
			w += s.End - s.Start
		}
	}
	return w
}

// selfTimes aggregates self time by span name, largest first.
func (t *tracer) selfTimes() []selfTimeRow {
	self := t.selfNS()
	wall := float64(t.wallNS())
	byName := map[string]*selfTimeRow{}
	var rows []*selfTimeRow
	for i, s := range t.spans {
		row := byName[s.Name]
		if row == nil {
			row = &selfTimeRow{Name: s.Name, Async: s.Async}
			byName[s.Name] = row
			rows = append(rows, row)
		}
		row.Count++
		row.TotalS += float64(s.End-s.Start) / 1e9
		if !s.Async {
			row.SelfS += float64(self[i]) / 1e9
		}
	}
	out := make([]selfTimeRow, 0, len(rows))
	for _, row := range rows {
		row.OfWall = row.SelfS * 1e9 / wall
		out = append(out, *row)
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].SelfS > out[b].SelfS })
	return out
}

// coverage is the share of the phase's wall time that the self times of
// the layer spans account for; the rest is the benchmark's own work
// (checks, input bookkeeping, forced collections).
func (t *tracer) coverage() float64 {
	self := t.selfNS()
	var covered int64
	for i, s := range t.spans {
		if s.Parent >= 0 && !s.Async {
			covered += self[i]
		}
	}
	return float64(covered) / float64(t.wallNS())
}

// write stores every span as JSON.
func (t *tracer) write(path string) error {
	for _, s := range t.spans {
		if s.End < s.Start {
			return fmt.Errorf("trace: span %d (%s) was never finished", s.ID, s.Name)
		}
	}
	return writeJSON(path, t.spans)
}

func printSelfTimes(workload string, rows []selfTimeRow, coverage, overhead float64) {
	fmt.Printf("self time by span, %s (traced phase):\n", workload)
	fmt.Printf("  %-34s %8s %12s %12s %8s\n", "span", "count", "total_s", "self_s", "of wall")
	for _, r := range rows {
		if r.Async {
			fmt.Printf("  %-34s %8d %12.6f %12s %8s  async: overlapping requests\n", r.Name, r.Count, r.TotalS, "-", "-")
			continue
		}
		fmt.Printf("  %-34s %8d %12.6f %12.6f %7.2f%%\n", r.Name, r.Count, r.TotalS, r.SelfS, 100*r.OfWall)
	}
	fmt.Printf("  layer spans account for %.2f%% of the wall time; tracing overhead %+.2f%%\n", 100*coverage, 100*overhead)
}
