package event

// queue is the scheduler's virtual-time event queue: a calendar ring of
// FIFO buckets, one per virtual-time tick, covering the bounded horizon
// [base, base+len(buckets)). Every entry is a processor wake-up — "your
// neighborhood may have changed; re-evaluate your guard at time t". Because
// every latency distribution is capped (Latency.Max), a wake scheduled
// while the head sits at time base lands within the horizon, so the ring
// never needs to grow or re-hash like a general calendar queue.
//
// Invariants maintained for the scheduler (and pinned by the property
// tests):
//
//   - Monotonicity: pop returns buckets in strictly increasing virtual
//     time; push for a time earlier than the head is rejected by panic.
//   - No losses: every push lands in exactly one bucket, and every bucket
//     is handed to the scheduler exactly once before its slot is recycled.
//   - Duplicates are the caller's concern: a processor may be woken by
//     several neighbors at the same tick; the runner dedups at pop time in
//     its batch bitset, InducedDaemon with a per-processor stamp.
//
// All operations after construction are allocation-free once the buckets
// have grown to the run's working set (slots are recycled, never freed).
type queue struct {
	buckets [][]int32 // ring: bucket for time t lives at (head + t − base) % len
	head    int       // ring index of the bucket for time base
	base    int64     // earliest virtual time the queue can still hold
	size    int       // total queued entries, duplicates included
}

// newQueue builds a ring with the given horizon (maximum distance between
// the head time and a pushed wake, exclusive). Horizon must cover
// maxLatency+2: a mover's neighbor wake lands at t+1+lat with the head
// already advanced to t+1.
func newQueue(horizon int64) *queue {
	if horizon < 2 {
		horizon = 2
	}
	return &queue{buckets: make([][]int32, horizon), base: 1}
}

// push schedules a wake for processor p at virtual time t ∈
// [base, base+horizon).
//
//snapvet:hotpath
func (q *queue) push(t int64, p int32) {
	d := t - q.base
	if d < 0 || d >= int64(len(q.buckets)) {
		panic("event: wake outside the queue horizon")
	}
	i := q.head + int(d)
	if i >= len(q.buckets) {
		i -= len(q.buckets)
	}
	q.buckets[i] = append(q.buckets[i], p)
	q.size++
}

// peek advances past empty buckets and returns the virtual time of the
// earliest pending wake without consuming it. ok is false when the queue is
// empty. Advancing base here is safe: skipped slots are empty, so no entry
// is lost, and a subsequent push can only target the remaining window.
//
//snapvet:hotpath
func (q *queue) peek() (t int64, ok bool) {
	if q.size == 0 {
		return 0, false
	}
	for len(q.buckets[q.head]) == 0 {
		q.buckets[q.head] = q.buckets[q.head][:0]
		q.head++
		if q.head == len(q.buckets) {
			q.head = 0
		}
		q.base++
	}
	return q.base, true
}

// pop advances to the next non-empty bucket and returns its time and
// contents. The returned slice is only valid until the following push or
// pop: the slot is recycled. ok is false when the queue is empty.
//
//snapvet:hotpath
func (q *queue) pop() (t int64, batch []int32, ok bool) {
	t, ok = q.peek()
	if !ok {
		return 0, nil, false
	}
	batch = q.buckets[q.head]
	q.size -= len(batch)
	// Recycle the slot and step past it so wakes for t+1 land correctly
	// while the caller is still reading the batch (the slot's backing array
	// stays untouched until the ring wraps around the full horizon).
	q.buckets[q.head] = q.buckets[q.head][:0]
	q.head++
	if q.head == len(q.buckets) {
		q.head = 0
	}
	q.base = t + 1
	return t, batch, true
}

// depth returns the queued-entry count (duplicates included) — the
// telemetry series' queue-occupancy gauge.
//
//snapvet:hotpath
func (q *queue) depth() int { return q.size }

// wake schedules an out-of-band re-evaluation of p, clamping t into the
// window the ring can still hold, and returns the effective time. Unlike
// push it never panics: wakes are re-evaluation hints (the scheduler dedups
// and drops disabled processors at pop time), so delivering one *early* is
// always sound — the clamps only ever move t earlier relative to the
// requested point, never lose it.
//
//   - Empty queue, t beyond base: fast-forward base to t, so a far-future
//     arrival on an otherwise idle schedule lands exactly on time.
//   - t before base: the requested tick has already been consumed; deliver
//     at base, the earliest still-addressable tick.
//   - t beyond the horizon: deliver at the last in-window tick.
func (q *queue) wake(t int64, p int32) int64 {
	if q.size == 0 && t > q.base {
		q.base = t
	}
	if t < q.base {
		t = q.base
	}
	if d := t - q.base; d >= int64(len(q.buckets)) {
		t = q.base + int64(len(q.buckets)) - 1
	}
	q.push(t, p)
	return t
}
