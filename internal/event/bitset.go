package event

import "math/bits"

// hbits is the event scheduler's two-level hierarchical bitset with a
// maintained population count. The runner keeps up to four: the enabled
// set, enumerated by forEach to rebuild the choice buffer and to walk the
// synchronous step's moves, and three sets filled by set and emptied by
// drain: the dirty set of a step's guard refresh, the order set that
// re-sorts slots by processor ID under a slot layout (allocated on first
// use), and the latency mode's wake batch. Both walks hand the IDs out in
// ascending order.
//
// The span [lo, hi] holds every summary word with a bit set: set widens
// it, forEach narrows it to the non-empty words it finds, and drain
// empties it. Both walks visit only the span, so a frontier step touches a
// summary word or two rather than all N/4096 of an N-processor set.
type hbits struct {
	l0     []uint64 // one bit per ID
	sum    []uint64 // one bit per l0 word
	n      int      // population count
	lo, hi int      // summary-word span; lo > hi when empty
}

func newHbits(n int) *hbits {
	words := (n + 63) / 64
	h := &hbits{
		l0:  make([]uint64, words),
		sum: make([]uint64, (words+63)/64),
	}
	h.lo, h.hi = len(h.sum), -1
	return h
}

//snapvet:hotpath
func (h *hbits) test(i int) bool { return h.l0[i>>6]&(1<<(uint(i)&63)) != 0 }

//snapvet:hotpath
func (h *hbits) set(i int) {
	w := i >> 6
	mask := uint64(1) << (uint(i) & 63)
	if h.l0[w]&mask != 0 {
		return
	}
	h.l0[w] |= mask
	s := w >> 6
	h.sum[s] |= 1 << (uint(w) & 63)
	if s < h.lo {
		h.lo = s
	}
	if s > h.hi {
		h.hi = s
	}
	h.n++
}

//snapvet:hotpath
func (h *hbits) clear(i int) {
	w := i >> 6
	mask := uint64(1) << (uint(i) & 63)
	if h.l0[w]&mask == 0 {
		return
	}
	h.l0[w] &^= mask
	if h.l0[w] == 0 {
		h.sum[w>>6] &^= 1 << (uint(w) & 63)
	}
	h.n--
}

//snapvet:hotpath
func (h *hbits) count() int { return h.n }

// forEach calls fn for every ID in the set in ascending order. It visits
// only the summary words in the span and narrows the span to the non-empty
// ones it finds. fn must not modify h.
//
//snapvet:hotpath
func (h *hbits) forEach(fn func(i int)) {
	lo, hi := len(h.sum), -1
	for si := h.lo; si <= h.hi; si++ {
		sw := h.sum[si]
		if sw != 0 {
			lo, hi = min(lo, si), si
		}
		for ; sw != 0; sw &= sw - 1 {
			wi := si<<6 + bits.TrailingZeros64(sw)
			for w := h.l0[wi]; w != 0; w &= w - 1 {
				fn(wi<<6 + bits.TrailingZeros64(w))
			}
		}
	}
	h.lo, h.hi = lo, hi
}

// drain calls fn for every ID in the set in ascending order and leaves the
// set empty, clearing each word once it is read: O(span + |set|). fn must
// not modify h.
//
//snapvet:hotpath
func (h *hbits) drain(fn func(i int)) {
	for si := h.lo; si <= h.hi; si++ {
		for sw := h.sum[si]; sw != 0; sw &= sw - 1 {
			wi := si<<6 + bits.TrailingZeros64(sw)
			for w := h.l0[wi]; w != 0; w &= w - 1 {
				fn(wi<<6 + bits.TrailingZeros64(w))
			}
			h.l0[wi] = 0
		}
		h.sum[si] = 0
	}
	h.n = 0
	h.lo, h.hi = len(h.sum), -1
}

// bitmark is the plain one-level scratch bitset of the fairness dedup.
// Cleared by replaying the ID lists that set it, never wholesale.
type bitmark []uint64

func newBitmark(n int) bitmark { return make(bitmark, (n+63)/64) }

//snapvet:hotpath
func (b bitmark) test(i int) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }

//snapvet:hotpath
func (b bitmark) set(i int) { b[i>>6] |= 1 << (uint(i) & 63) }

//snapvet:hotpath
func (b bitmark) clear(i int) { b[i>>6] &^= 1 << (uint(i) & 63) }
