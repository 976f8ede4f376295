package sim

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"snappif/internal/graph"
)

// naiveForceAged is the map-based pre-optimization implementation of the
// fairness forcing step, kept as the fuzz oracle. It must stay draw-for-draw
// identical to Runner.forceAged: same appended choices in the same order and
// the same number of RNG draws (one unconditional Intn per forced
// processor, even when the processor has a single enabled action).
func naiveForceAged(selected, enabled []Choice, age []int, bound int, rng *rand.Rand) []Choice {
	have := make(map[int]bool, len(selected))
	for _, ch := range selected {
		have[ch.Proc] = true
	}
	out := append([]Choice(nil), selected...)
	for i := 0; i < len(enabled); {
		j := i
		for j < len(enabled) && enabled[j].Proc == enabled[i].Proc {
			j++
		}
		proc := enabled[i].Proc
		if age[proc] >= bound && !have[proc] {
			out = append(out, enabled[i+rng.Intn(j-i)])
			have[proc] = true
		}
		i = j
	}
	return out
}

// buildEnabled decodes the fuzz bits into an enabled list in ascending
// processor order, with one or two actions per processor.
func buildEnabled(n int, enabledBits, multiBits uint64) []Choice {
	var enabled []Choice
	for p := 0; p < n; p++ {
		if enabledBits&(1<<p) == 0 {
			continue
		}
		enabled = append(enabled, Choice{Proc: p, Action: 0})
		if multiBits&(1<<p) != 0 {
			enabled = append(enabled, Choice{Proc: p, Action: 1})
		}
	}
	return enabled
}

// FuzzForceAged checks the bitset implementation of fairness forcing
// against the map oracle on arbitrary (selection, age, enabled) inputs:
// identical output, identical RNG consumption, and the invariants that no
// disabled processor is ever forced and no processor appears twice.
func FuzzForceAged(f *testing.F) {
	f.Add(int64(1), uint8(9), uint64(0b101010101), uint64(0b000000011), uint64(0b100000001), uint64(0))
	f.Add(int64(7), uint8(64), ^uint64(0), uint64(0), ^uint64(0), ^uint64(0))
	f.Add(int64(42), uint8(3), uint64(0), uint64(0b111), uint64(0b111), uint64(0b010))
	f.Fuzz(func(t *testing.T, seed int64, nRaw uint8, enabledBits, selBits, ageBits, multiBits uint64) {
		n := int(nRaw%64) + 1
		enabled := buildEnabled(n, enabledBits, multiBits)

		// The daemon's selection is a subset of the enabled processors.
		var selected []Choice
		for _, ch := range enabled {
			if selBits&(1<<ch.Proc) != 0 && ch.Action == 0 {
				selected = append(selected, ch)
			}
		}
		const bound = 4
		age := make([]int, n)
		for p := 0; p < n; p++ {
			if ageBits&(1<<p) != 0 {
				age[p] = bound
			}
		}

		wantRng := rand.New(rand.NewSource(seed))
		want := naiveForceAged(selected, enabled, age, bound, wantRng)

		gotRng := rand.New(rand.NewSource(seed))
		r := &Runner{
			rng:  gotRng,
			age:  append([]int(nil), age...),
			have: newBitset(n),
			opts: Options{FairnessAge: bound},
		}
		got := r.forceAged(append([]Choice(nil), selected...), enabled)

		if !reflect.DeepEqual(want, got) {
			t.Fatalf("forceAged mismatch:\n  enabled  %v\n  selected %v\n  age bits %b\n  want %v\n  got  %v",
				enabled, selected, ageBits, want, got)
		}
		if w, g := wantRng.Int63(), gotRng.Int63(); w != g {
			t.Fatalf("RNG consumption diverged: oracle next=%d, bitset next=%d", w, g)
		}

		// Invariants, independent of the oracle.
		isEnabled := func(ch Choice) bool {
			for _, e := range enabled {
				if e == ch {
					return true
				}
			}
			return false
		}
		seen := make(map[int]bool)
		for _, ch := range got {
			if !isEnabled(ch) {
				t.Fatalf("forced disabled choice %v", ch)
			}
			if seen[ch.Proc] {
				t.Fatalf("processor %d selected twice: %v", ch.Proc, got)
			}
			seen[ch.Proc] = true
		}
	})
}

// naiveRoundUpdate is the map-based oracle for the round-accounting update
// pending = pending ∩ enabled ∖ executed.
func naiveRoundUpdate(pending, enabled, executed map[int]bool) map[int]bool {
	out := make(map[int]bool)
	//snapvet:ok test oracle builds a set, not an ordered output; membership is order-independent
	for p := range pending {
		if enabled[p] && !executed[p] {
			out[p] = true
		}
	}
	return out
}

// FuzzBitsetRoundAccounting checks intersectAndNot — the runner's round
// bookkeeping — against the map oracle, together with count and the
// ascending-order guarantee of forEach.
func FuzzBitsetRoundAccounting(f *testing.F) {
	f.Add(uint16(70), uint64(0b1011), uint64(0b0110), uint64(0b0010), uint64(1), uint64(0), uint64(0))
	f.Add(uint16(130), ^uint64(0), ^uint64(0), uint64(0), uint64(7), ^uint64(0), uint64(1<<63))
	f.Fuzz(func(t *testing.T, nRaw uint16, p0, k0, x0, p1, k1, x1 uint64) {
		n := int(nRaw%130) + 1
		words := func(w0, w1 uint64) []uint64 { return []uint64{w0, w1, w0 ^ w1} }
		toSet := func(ws []uint64) (bitset, map[int]bool) {
			b := newBitset(n)
			m := make(map[int]bool)
			for i := 0; i < n; i++ {
				if ws[i>>6]&(1<<(uint(i)&63)) != 0 {
					b.set(i)
					m[i] = true
				}
			}
			return b, m
		}
		pend, pendM := toSet(words(p0, p1))
		keep, keepM := toSet(words(k0, k1))
		drop, dropM := toSet(words(x0, x1))

		wantM := naiveRoundUpdate(pendM, keepM, dropM)
		gotEmpty := pend.intersectAndNot(keep, drop)

		if gotEmpty != (len(wantM) == 0) {
			t.Fatalf("emptiness: bitset says %v, oracle has %d members", gotEmpty, len(wantM))
		}
		if pend.count() != len(wantM) {
			t.Fatalf("count: bitset %d, oracle %d", pend.count(), len(wantM))
		}
		prev := -1
		pend.forEach(func(i int) {
			if i <= prev {
				t.Fatalf("forEach out of order: %d after %d", i, prev)
			}
			prev = i
			if !wantM[i] {
				t.Fatalf("bitset contains %d, oracle does not", i)
			}
			delete(wantM, i)
		})
		if len(wantM) != 0 {
			t.Fatalf("oracle members missing from bitset: %v", wantM)
		}
	})
}

// tableProto is a protocol whose enabled sets are a mutable table,
// letting the cache tests steer guard changes directly.
type tableProto struct {
	acts [][]int
}

func (tp *tableProto) Name() string                          { return "table" }
func (tp *tableProto) ActionNames() []string                 { return []string{"a0", "a1", "a2"} }
func (tp *tableProto) InitialState(p int) State              { return wbState(0) }
func (tp *tableProto) Enabled(c *Configuration, p int) []int { return tp.acts[p] }
func (tp *tableProto) Apply(c *Configuration, p, a int) State {
	return wbState(a)
}

type wbState int

func (s wbState) Clone() State { return s }

// TestChoicesAscendingAfterRandomRefreshes drives the incremental choice
// buffer through random guard flips and asserts after every refresh that
// choices() lists exactly the enabled (processor, action) pairs, in
// ascending processor order with each processor's actions in table order —
// the ordering the daemons' draw sequence depends on. A second cache is
// seeded from the first one's choices before every refresh (processors
// with several actions included) and must then hold the same per-processor
// actions and enabled set, before and after the same refresh.
func TestChoicesAscendingAfterRandomRefreshes(t *testing.T) {
	const n = 67 // crosses a word boundary
	g, err := graph.Ring(n)
	if err != nil {
		t.Fatal(err)
	}
	tp := &tableProto{acts: make([][]int, n)}
	rng := rand.New(rand.NewSource(5))
	randomActs := func() []int {
		switch rng.Intn(4) {
		case 0:
			return nil
		case 1:
			return []int{0}
		case 2:
			return []int{1, 2}
		default:
			return []int{0, 1, 2}
		}
	}
	for p := 0; p < n; p++ {
		tp.acts[p] = randomActs()
	}
	cfg := NewConfiguration(g, tp)
	ec := newEnabledCache(cfg, tp, false)
	seeded := newEnabledCache(cfg, tp, false)

	verify := func(cache *enabledCache, step int) {
		t.Helper()
		got := cache.choices()
		var want []Choice
		for p := 0; p < n; p++ {
			for _, a := range tp.acts[p] {
				want = append(want, Choice{Proc: p, Action: a})
			}
			if !slices.Equal(cache.acts[p], tp.acts[p]) || cache.enabledBits.test(p) != (len(tp.acts[p]) > 0) {
				t.Fatalf("step %d: processor %d caches %v (enabled %v), want %v",
					step, p, cache.acts[p], cache.enabledBits.test(p), tp.acts[p])
			}
		}
		if !reflect.DeepEqual(want, append([]Choice(nil), got...)) {
			t.Fatalf("step %d: choices() = %v, want %v", step, got, want)
		}
		for i := 1; i < len(got); i++ {
			if got[i].Proc < got[i-1].Proc {
				t.Fatalf("step %d: choices out of processor order at %d: %v", step, i, got)
			}
		}
	}

	verify(ec, 0)
	for step := 1; step <= 200; step++ {
		seeded.seed(ec.choices())
		verify(seeded, step-1)
		// Flip a few processors' guards, then refresh as the runner would.
		var executed []Choice
		for k := 0; k < 1+rng.Intn(3); k++ {
			p := rng.Intn(n)
			tp.acts[p] = randomActs()
			executed = append(executed, Choice{Proc: p, Action: 0})
		}
		ec.refresh(executed)
		verify(ec, step)
		seeded.refresh(executed)
		verify(seeded, step)
		// An idle refresh must not disturb the buffer.
		ec.refresh(nil)
		verify(ec, step)
	}
}

// TestChoicesBufferReuse pins the zero-allocation property of the choice
// buffer: with no guard changes, repeated choices() calls return the same
// backing array, and a no-change refresh keeps the buffer valid.
func TestChoicesBufferReuse(t *testing.T) {
	const n = 16
	g, err := graph.Ring(n)
	if err != nil {
		t.Fatal(err)
	}
	tp := &tableProto{acts: make([][]int, n)}
	for p := 0; p < n; p++ {
		tp.acts[p] = []int{0}
	}
	cfg := NewConfiguration(g, tp)
	ec := newEnabledCache(cfg, tp, false)

	first := ec.choices()
	// Refresh without any guard change: same processors, same actions.
	ec.refresh([]Choice{{Proc: 3, Action: 0}})
	second := ec.choices()
	if &first[0] != &second[0] {
		t.Errorf("choice buffer reallocated across a no-change refresh")
	}
	if allocs := testing.AllocsPerRun(100, func() { ec.choices() }); allocs != 0 {
		t.Errorf("choices() allocates %.2f objects/call on the valid-buffer path, want 0", allocs)
	}
}
