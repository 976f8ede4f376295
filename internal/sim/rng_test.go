package sim

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// drawSeq takes one of every draw kind the daemons, the fairness forcing
// and the fault injectors use from r, in a fixed order.
func drawSeq(r *rand.Rand) []any {
	var out []any
	for i := 0; i < 3; i++ {
		out = append(out, r.Int63(), r.Uint64(), r.Intn(10), r.Int63n(1_000_000_007), r.Float64(), r.Perm(7))
		s := []int{0, 1, 2, 3, 4, 5, 6, 7, 8}
		r.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
		out = append(out, s)
	}
	return out
}

// TestLazySourceMatchesNewSource pins that seeding on the first draw
// changes no value: for every seed (zero and negative included) a
// rand.Rand over a lazySource draws exactly what one over
// rand.NewSource(seed) draws — before any reseed, after a reseed of a
// source that has already drawn (the in-place path), and after reseeds
// with no draw in between (only the last seed counts).
func TestLazySourceMatchesNewSource(t *testing.T) {
	seeds := []int64{0, 1, -1, 2, 42, -12345, 1 << 40, math.MaxInt64, math.MinInt64}
	for _, seed := range seeds {
		var lazy lazySource
		lazy.Seed(seed)
		got, want := rand.New(&lazy), rand.New(rand.NewSource(seed))
		if g, w := drawSeq(got), drawSeq(want); !reflect.DeepEqual(g, w) {
			t.Fatalf("seed %d: first draws differ:\n got %v\nwant %v", seed, g, w)
		}
		for _, reseed := range seeds {
			got.Seed(reseed)
			want.Seed(reseed)
			if g, w := drawSeq(got), drawSeq(want); !reflect.DeepEqual(g, w) {
				t.Fatalf("seed %d then %d: draws differ:\n got %v\nwant %v", seed, reseed, g, w)
			}
		}
		got.Seed(seed + 1)
		got.Seed(seed)
		want.Seed(seed)
		if g, w := drawSeq(got), drawSeq(want); !reflect.DeepEqual(g, w) {
			t.Fatalf("seed %d: back-to-back reseeds draw differently:\n got %v\nwant %v", seed, g, w)
		}
	}

	// The zero value is a source seeded with 0.
	var zero lazySource
	if g, w := drawSeq(rand.New(&zero)), drawSeq(rand.New(rand.NewSource(0))); !reflect.DeepEqual(g, w) {
		t.Fatalf("zero lazySource draws differ from NewSource(0):\n got %v\nwant %v", g, w)
	}
}

// TestLazySourceDefersSeeding pins the mechanism: Seed builds and seeds
// nothing, the first draw builds the generator, and a later reseed reuses
// it.
func TestLazySourceDefersSeeding(t *testing.T) {
	var s lazySource
	s.Seed(7)
	if s.gen != nil || s.seeded {
		t.Fatal("Seed seeded the generator before any draw")
	}
	s.Int63()
	gen := s.gen
	if gen == nil || !s.seeded {
		t.Fatal("the first draw did not seed the generator")
	}
	s.Seed(8)
	if s.seeded {
		t.Fatal("Seed left the previous seed's sequence in place")
	}
	s.Uint64()
	if s.gen != gen {
		t.Fatal("a reseed built a second generator instead of reseeding in place")
	}
}
