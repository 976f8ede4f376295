package event

import (
	"math/rand"
	"testing"
)

// These are the wake queue's property tests: virtual-time monotonicity, no
// lost or duplicated wakeups, and horizon enforcement — randomized over
// many seeds, checked against a brute-force reference model.

// TestQueuePopMonotone: pop must deliver batches in strictly increasing
// virtual time, regardless of push order, across randomized workloads.
func TestQueuePopMonotone(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		const horizon = 16
		q := newQueue(horizon)
		pending := 0
		last := int64(0) // queue base starts at 1, so 0 is below any pop
		for i := 0; i < 2000; i++ {
			if pending == 0 || rng.Intn(3) != 0 {
				// Push within the live horizon [base, base+horizon).
				tick := q.base + int64(rng.Intn(horizon))
				q.push(tick, int32(rng.Intn(100)))
				pending++
				continue
			}
			tick, batch, ok := q.pop()
			if !ok {
				t.Fatalf("seed %d: pop reported empty with %d pending", seed, pending)
			}
			if tick <= last {
				t.Fatalf("seed %d: pop times not strictly increasing: %d after %d", seed, tick, last)
			}
			if len(batch) == 0 {
				t.Fatalf("seed %d: pop returned an empty batch at %d", seed, tick)
			}
			last = tick
			pending -= len(batch)
		}
	}
}

// TestQueueNoLostOrDuplicatedWakeups: draining the queue must return
// exactly the pushed multiset — every wakeup exactly once, duplicates
// preserved (deduplication belongs to the queue's callers, not the queue:
// Runner.nextBatch dedups in its batch set, InducedDaemon in its stamp
// column).
func TestQueueNoLostOrDuplicatedWakeups(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		const horizon = 32
		q := newQueue(horizon)
		want := make(map[[2]int64]int) // (tick, proc) → count
		pushed := 0
		// Interleave pushes and partial drains so the ring wraps several
		// times within one test run.
		for round := 0; round < 20; round++ {
			for i := 0; i < 50; i++ {
				tick := q.base + int64(rng.Intn(horizon))
				p := int32(rng.Intn(40))
				q.push(tick, p)
				want[[2]int64{tick, int64(p)}]++
				pushed++
			}
			drains := rng.Intn(30)
			for i := 0; i < drains; i++ {
				tick, batch, ok := q.pop()
				if !ok {
					break
				}
				for _, p := range batch {
					key := [2]int64{tick, int64(p)}
					if want[key] == 0 {
						t.Fatalf("seed %d: duplicated or invented wakeup (t=%d, p=%d)", seed, tick, p)
					}
					want[key]--
					pushed--
				}
			}
		}
		for {
			tick, batch, ok := q.pop()
			if !ok {
				break
			}
			for _, p := range batch {
				key := [2]int64{tick, int64(p)}
				if want[key] == 0 {
					t.Fatalf("seed %d: duplicated or invented wakeup (t=%d, p=%d)", seed, tick, p)
				}
				want[key]--
				pushed--
			}
		}
		if pushed != 0 {
			t.Fatalf("seed %d: %d wakeups lost", seed, pushed)
		}
		if q.depth() != 0 {
			t.Fatalf("seed %d: drained queue reports depth %d", seed, q.depth())
		}
	}
}

// TestQueueDepthTracksOccupancy: depth() counts queued wakeups (duplicates
// included) and returns to zero on drain.
func TestQueueDepthTracksOccupancy(t *testing.T) {
	q := newQueue(8)
	if q.depth() != 0 {
		t.Fatalf("fresh queue depth = %d", q.depth())
	}
	q.push(1, 3)
	q.push(1, 3) // duplicate counts until popped
	q.push(4, 7)
	if q.depth() != 3 {
		t.Fatalf("depth = %d, want 3", q.depth())
	}
	tick, batch, ok := q.pop()
	if !ok || tick != 1 || len(batch) != 2 {
		t.Fatalf("pop = (%d, %v, %v), want (1, [3 3], true)", tick, batch, ok)
	}
	if q.depth() != 1 {
		t.Fatalf("depth after pop = %d, want 1", q.depth())
	}
}

// TestQueuePushOutsideHorizonPanics: the calendar ring cannot represent a
// wakeup past its horizon; push must fail loudly, not alias a nearer slot.
func TestQueuePushOutsideHorizonPanics(t *testing.T) {
	check := func(name string, tick int64) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: push(%d) did not panic", name, tick)
			}
		}()
		q := newQueue(4)
		q.push(tick, 0)
	}
	check("past", 0)
	check("future", 1+4)
}

// TestQueuePopAfterSparseGap: the ring must skip arbitrarily long runs of
// empty buckets (bounded by the horizon) without losing the later batch.
func TestQueuePopAfterSparseGap(t *testing.T) {
	q := newQueue(64)
	q.push(63, 9)
	tick, batch, ok := q.pop()
	if !ok || tick != 63 || len(batch) != 1 || batch[0] != 9 {
		t.Fatalf("pop = (%d, %v, %v), want (63, [9], true)", tick, batch, ok)
	}
	// After the pop the base advances past the popped tick.
	if q.base != 64 {
		t.Fatalf("base = %d, want 64", q.base)
	}
	q.push(100, 1)
	tick, batch, ok = q.pop()
	if !ok || tick != 100 || len(batch) != 1 {
		t.Fatalf("second pop = (%d, %v, %v), want (100, [1], true)", tick, batch, ok)
	}
}

// TestQueueWakeClamps pins wake's out-of-band scheduling semantics: empty
// queue fast-forward, before-base clamp, and beyond-horizon clamp — every
// clamp delivers early-or-exact, never loses the wake.
func TestQueueWakeClamps(t *testing.T) {
	q := newQueue(4) // window [base, base+4)

	// Empty queue, far-future wake: base fast-forwards to the target.
	if eff := q.wake(100, 1); eff != 100 {
		t.Fatalf("empty-queue wake: eff = %d, want 100", eff)
	}
	if tm, batch, ok := q.pop(); !ok || tm != 100 || len(batch) != 1 || batch[0] != 1 {
		t.Fatalf("pop after fast-forward: t=%d batch=%v ok=%v", tm, batch, ok)
	}

	// base is now 101; a wake for an already-consumed tick clamps to base.
	if eff := q.wake(50, 2); eff != 101 {
		t.Fatalf("past wake: eff = %d, want 101", eff)
	}

	// Non-empty queue, beyond-horizon wake clamps to the last in-window
	// slot (101+4-1 = 104) instead of panicking like push.
	if eff := q.wake(1000, 3); eff != 104 {
		t.Fatalf("beyond-horizon wake: eff = %d, want 104", eff)
	}
	if tm, batch, ok := q.pop(); !ok || tm != 101 || batch[0] != 2 {
		t.Fatalf("pop clamped-past wake: t=%d batch=%v ok=%v", tm, batch, ok)
	}
	if tm, batch, ok := q.pop(); !ok || tm != 104 || batch[0] != 3 {
		t.Fatalf("pop clamped-horizon wake: t=%d batch=%v ok=%v", tm, batch, ok)
	}
	if _, _, ok := q.pop(); ok {
		t.Fatal("queue not empty after draining wakes")
	}
}

// TestQueuePeekNonConsuming: peek reports the earliest pending time without
// consuming it, and agrees with the subsequent pop.
func TestQueuePeekNonConsuming(t *testing.T) {
	q := newQueue(8)
	q.push(3, 9)
	for i := 0; i < 3; i++ {
		if tm, ok := q.peek(); !ok || tm != 3 {
			t.Fatalf("peek #%d: t=%d ok=%v, want 3", i, tm, ok)
		}
	}
	if tm, batch, ok := q.pop(); !ok || tm != 3 || batch[0] != 9 {
		t.Fatalf("pop after peek: t=%d batch=%v ok=%v", tm, batch, ok)
	}
	if _, ok := q.peek(); ok {
		t.Fatal("peek on empty queue reported ok")
	}
}
