package sim

import "math/rand"

// lazySource is the runner's rand.Source64. It defers seeding math/rand's
// 607-word generator, the dearest part of starting a run, to the first
// draw, because many runs never draw: a deterministic daemon with mutually
// exclusive guards and no fairness forcing (the explorer's forced
// selection, the hunter's greedy rollouts) never touches the RNG. Seed only
// records the seed; the first Int63/Uint64 seeds the generator, built once
// and reseeded in place afterwards, so every draw sequence is identical to
// rand.New(rand.NewSource(seed)). The zero value behaves like
// rand.NewSource(0).
type lazySource struct {
	seed   int64
	gen    rand.Source64 // nil until the first draw ever
	seeded bool          // gen holds the sequence of seed
}

var _ rand.Source64 = (*lazySource)(nil)

// Seed implements rand.Source: it records seed for the next draw, O(1).
func (s *lazySource) Seed(seed int64) { s.seed, s.seeded = seed, false }

// Int63 implements rand.Source.
func (s *lazySource) Int63() int64 { return s.source().Int63() }

// Uint64 implements rand.Source64.
func (s *lazySource) Uint64() uint64 { return s.source().Uint64() }

// source returns the generator, seeding it first if a Seed is pending.
func (s *lazySource) source() rand.Source64 {
	if !s.seeded {
		if s.gen == nil {
			s.gen = rand.NewSource(s.seed).(rand.Source64)
		} else {
			s.gen.Seed(s.seed)
		}
		s.seeded = true
	}
	return s.gen
}
