package trace

import (
	"fmt"
	"math"
)

// Sample accumulates integer observations (rounds, moves, heights) and
// reports descriptive statistics.
type Sample struct {
	xs []int
}

// Add appends an observation.
func (s *Sample) Add(x int) { s.xs = append(s.xs, x) }

// N returns the number of observations.
func (s *Sample) N() int { return len(s.xs) }

// Min returns the smallest observation (0 when empty).
func (s *Sample) Min() int {
	if len(s.xs) == 0 {
		return 0
	}
	m := s.xs[0]
	for _, x := range s.xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the largest observation (0 when empty).
func (s *Sample) Max() int {
	m := 0
	for i, x := range s.xs {
		if i == 0 || x > m {
			m = x
		}
	}
	return m
}

// Mean returns the arithmetic mean (0 when empty).
func (s *Sample) Mean() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	sum := 0
	for _, x := range s.xs {
		sum += x
	}
	return float64(sum) / float64(len(s.xs))
}

// Stddev returns the population standard deviation (0 when empty).
func (s *Sample) Stddev() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	mean := s.Mean()
	var acc float64
	for _, x := range s.xs {
		d := float64(x) - mean
		acc += d * d
	}
	return math.Sqrt(acc / float64(len(s.xs)))
}

// String summarizes the sample as "mean±sd [min,max] n=k".
func (s *Sample) String() string {
	return fmt.Sprintf("%.1f±%.1f [%d,%d] n=%d", s.Mean(), s.Stddev(), s.Min(), s.Max(), s.N())
}
