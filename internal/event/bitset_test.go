package event

import (
	"math/rand"
	"slices"
	"testing"
)

// hbitsSizes covers sizes that are multiples of neither 64 nor 4096 (one
// summary word covers 4096 IDs), exact multiples, and a single ID.
var hbitsSizes = []int{1, 63, 64, 65, 1000, 4096, 4097, 10_000}

// collect returns the IDs a forEach or drain call hands out, in call order.
func collect(walk func(fn func(int))) []int {
	var out []int
	walk(func(i int) { out = append(out, i) })
	return out
}

// TestHbitsAgainstSet drives set/clear with a random workload, then sets
// IDs 0 and N−1, and checks test, count, and the ascending enumeration of
// forEach and drain against a per-ID oracle.
func TestHbitsAgainstSet(t *testing.T) {
	for _, n := range hbitsSizes {
		h := newHbits(n)
		oracle := make([]bool, n)
		rng := rand.New(rand.NewSource(int64(n)))
		for op := 0; op < 4*n+100; op++ {
			i := rng.Intn(n)
			if rng.Intn(3) != 0 {
				h.set(i)
				oracle[i] = true
			} else {
				h.clear(i)
				oracle[i] = false
			}
		}
		for _, i := range []int{0, n - 1} {
			h.set(i)
			oracle[i] = true
		}
		var want []int
		for i, in := range oracle {
			if h.test(i) != in {
				t.Fatalf("n=%d: test(%d) = %v, want %v", n, i, h.test(i), in)
			}
			if in {
				want = append(want, i)
			}
		}
		if h.count() != len(want) {
			t.Fatalf("n=%d: count = %d, want %d", n, h.count(), len(want))
		}
		if got := collect(h.forEach); !slices.Equal(got, want) {
			t.Fatalf("n=%d: forEach = %v, want %v", n, got, want)
		}
		if got := collect(h.drain); !slices.Equal(got, want) {
			t.Fatalf("n=%d: drain = %v, want %v", n, got, want)
		}
		assertEmpty(t, h)
	}
}

// assertEmpty checks that h holds no ID at any level and that its span is
// reset, so the next drain starts from nothing.
func assertEmpty(t *testing.T, h *hbits) {
	t.Helper()
	if h.count() != 0 {
		t.Fatalf("count = %d after drain, want 0", h.count())
	}
	for i, w := range h.l0 {
		if w != 0 {
			t.Fatalf("l0 word %d = %#x after drain, want 0", i, w)
		}
	}
	for i, w := range h.sum {
		if w != 0 {
			t.Fatalf("summary word %d = %#x after drain, want 0", i, w)
		}
	}
	if h.lo <= h.hi {
		t.Fatalf("span [%d, %d] after drain, want empty", h.lo, h.hi)
	}
	if got := collect(h.forEach); len(got) != 0 {
		t.Fatalf("forEach visits %v in an empty set", got)
	}
}

// TestHbitsSetClearIdempotent: a repeated set or clear changes nothing, and
// clearing the last ID of a word empties its summary bit.
func TestHbitsSetClearIdempotent(t *testing.T) {
	h := newHbits(200)
	h.set(130)
	h.set(130)
	if h.count() != 1 || !h.test(130) {
		t.Fatalf("after double set: count = %d, test = %v", h.count(), h.test(130))
	}
	h.clear(130)
	h.clear(130)
	if h.count() != 0 || h.test(130) {
		t.Fatalf("after double clear: count = %d, test = %v", h.count(), h.test(130))
	}
	if h.sum[0] != 0 {
		t.Fatalf("summary word = %#x after clearing the only ID, want 0", h.sum[0])
	}
}

// TestHbitsDrainReuse: sets after a drain start a fresh span, and a second
// drain returns exactly the new IDs — the refresh loop's usage pattern.
func TestHbitsDrainReuse(t *testing.T) {
	const n = 3 * 4096
	h := newHbits(n)
	for _, i := range []int{n - 1, 0, 5000} {
		h.set(i)
	}
	if got := collect(h.drain); !slices.Equal(got, []int{0, 5000, n - 1}) {
		t.Fatalf("first drain = %v", got)
	}
	h.set(4100)
	h.set(4099)
	if h.lo != 1 || h.hi != 1 {
		t.Fatalf("span after sets in summary word 1 = [%d, %d], want [1, 1]", h.lo, h.hi)
	}
	if got := collect(h.drain); !slices.Equal(got, []int{4099, 4100}) {
		t.Fatalf("second drain = %v", got)
	}
	assertEmpty(t, h)
}

// TestHbitsWalksVisitOnlySpan pins the bound that keeps a frontier step
// from scanning every summary word at large N: forEach and drain read only
// the summary words in the span. A bit planted outside the span without
// going through set (so the span does not cover it) must be left alone; a
// walk over every summary word would report it.
func TestHbitsWalksVisitOnlySpan(t *testing.T) {
	const n = 10 * 4096
	in := []int{3*4096 + 7, 5*4096 + 1}
	for _, walk := range []string{"forEach", "drain"} {
		h := newHbits(n)
		for _, i := range in {
			h.set(i)
		}
		if h.lo != 3 || h.hi != 5 {
			t.Fatalf("%s: span = [%d, %d], want [3, 5]", walk, h.lo, h.hi)
		}
		for _, planted := range []int{0, 8*4096 + 2} {
			w := planted >> 6
			h.l0[w] |= 1 << (uint(planted) & 63)
			h.sum[w>>6] |= 1 << (uint(w) & 63)
		}
		fn := h.forEach
		if walk == "drain" {
			fn = h.drain
		}
		if got := collect(fn); !slices.Equal(got, in) {
			t.Fatalf("%s = %v, want only the IDs inside the span %v", walk, got, in)
		}
		if h.l0[0] == 0 || h.sum[8] == 0 {
			t.Fatalf("%s touched a summary word outside its span", walk)
		}
	}
}

// TestHbitsForEachNarrowsSpan: clears leave the span wide, and the next
// forEach narrows it to the summary words still holding IDs — down to the
// empty span once the set is empty — while set widens it again.
func TestHbitsForEachNarrowsSpan(t *testing.T) {
	const n = 10 * 4096
	h := newHbits(n)
	for _, i := range []int{4096 + 3, 6*4096 + 9, 9*4096 + 1} {
		h.set(i)
	}
	h.clear(4096 + 3)
	h.clear(9*4096 + 1)
	if h.lo != 1 || h.hi != 9 {
		t.Fatalf("span after clears = [%d, %d], want the unchanged [1, 9]", h.lo, h.hi)
	}
	if got := collect(h.forEach); !slices.Equal(got, []int{6*4096 + 9}) {
		t.Fatalf("forEach = %v", got)
	}
	if h.lo != 6 || h.hi != 6 {
		t.Fatalf("span after forEach = [%d, %d], want [6, 6]", h.lo, h.hi)
	}
	h.set(2*4096 + 5)
	if got := collect(h.forEach); !slices.Equal(got, []int{2*4096 + 5, 6*4096 + 9}) {
		t.Fatalf("forEach after a widening set = %v", got)
	}
	h.clear(2*4096 + 5)
	h.clear(6*4096 + 9)
	collect(h.forEach)
	if h.lo <= h.hi {
		t.Fatalf("span of an emptied set after forEach = [%d, %d], want empty", h.lo, h.hi)
	}
}
