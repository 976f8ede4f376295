package event

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
)

// Latency is a per-link message-delay distribution in virtual-time ticks.
// The scheduler draws one sample per (mover, neighbor) link each time the
// mover executes; the neighbor's guard re-evaluation wakes that many ticks
// after the move becomes visible. Samples must lie in [0, Max()] — the
// queue's calendar ring is sized from Max(), so an out-of-range sample is a
// programming error, not a recoverable condition.
//
// Implementations must be deterministic functions of the rng stream: the
// differential harness replays the same seed through the event engine and
// through InducedDaemon on the sim engine and requires identical
// draw sequences.
type Latency interface {
	// Name is the distribution's canonical spec string (parseable by
	// ParseLatency), used for daemon labels and trace metadata.
	Name() string
	// Max is the inclusive upper bound of Sample, finite and ≥ 0.
	Max() int64
	// Sample draws the delay for one message on the link from → to.
	// Constant distributions must not touch rng at all, so the degenerate
	// zero-latency schedule consumes exactly the synchronous daemon's
	// (empty) draw sequence.
	Sample(rng *rand.Rand, from, to int32) int64
}

// Constant is the fixed-delay distribution; Constant(0) makes every wake
// land one tick after the move, which induces exactly the synchronous
// daemon's schedule (see the package doc's degeneracy argument).
type Constant int64

func (c Constant) Name() string { return "const:" + strconv.FormatInt(int64(c), 10) }

func (c Constant) Max() int64 { return int64(c) }

//snapvet:hotpath
func (c Constant) Sample(*rand.Rand, int32, int32) int64 { return int64(c) }

// Uniform draws integer delays uniformly from [Lo, Hi], one Int63n per
// sample.
type Uniform struct {
	Lo, Hi int64
}

func (u Uniform) Name() string {
	return "uniform:" + strconv.FormatInt(u.Lo, 10) + "-" + strconv.FormatInt(u.Hi, 10)
}

func (u Uniform) Max() int64 { return u.Hi }

//snapvet:hotpath
func (u Uniform) Sample(rng *rand.Rand, _, _ int32) int64 {
	return u.Lo + rng.Int63n(u.Hi-u.Lo+1)
}

// Pareto is a capped heavy-tail distribution: delays follow a discretized
// Pareto law with shape Alpha and scale 1 (delay 0 is the mode), truncated
// at Cap so the calendar ring stays bounded. One Float64 per sample.
type Pareto struct {
	Alpha float64
	Cap   int64
}

func (p Pareto) Name() string {
	a := strconv.FormatFloat(p.Alpha, 'g', -1, 64)
	return "pareto:a=" + a + ",cap=" + strconv.FormatInt(p.Cap, 10)
}

func (p Pareto) Max() int64 { return p.Cap }

//snapvet:hotpath
func (p Pareto) Sample(rng *rand.Rand, _, _ int32) int64 {
	// Inverse-CDF: X = ⌊u^{-1/α}⌋ − 1 ≥ 0 with u ∈ (0,1]; heavy tail for
	// small α, truncated at Cap. 1−Float64() avoids u = 0.
	u := 1 - rng.Float64()
	d := int64(math.Pow(u, -1/p.Alpha)) - 1
	if d < 0 {
		d = 0
	}
	if d > p.Cap {
		d = p.Cap
	}
	return d
}

// ParseLatency parses a distribution spec:
//
//	const:K                 fixed delay K (K ≥ 0)
//	uniform:LO-HI           uniform integer delay in [LO, HI]
//	pareto:a=A,cap=C        capped heavy tail, shape A > 0, cap C ≥ 0
//
// The empty spec returns (nil, nil): no distribution, external-daemon mode.
func ParseLatency(spec string) (Latency, error) {
	if spec == "" {
		return nil, nil
	}
	kind, arg, _ := strings.Cut(spec, ":")
	switch kind {
	case "const":
		k, err := strconv.ParseInt(arg, 10, 64)
		if err != nil || k < 0 {
			return nil, fmt.Errorf("event: bad constant latency %q (want const:K, K ≥ 0)", spec)
		}
		return Constant(k), nil
	case "uniform":
		lo, hi, ok := strings.Cut(arg, "-")
		if ok {
			l, err1 := strconv.ParseInt(lo, 10, 64)
			h, err2 := strconv.ParseInt(hi, 10, 64)
			if err1 == nil && err2 == nil && 0 <= l && l <= h {
				return Uniform{Lo: l, Hi: h}, nil
			}
		}
		return nil, fmt.Errorf("event: bad uniform latency %q (want uniform:LO-HI, 0 ≤ LO ≤ HI)", spec)
	case "pareto":
		p := Pareto{Alpha: math.NaN(), Cap: -1}
		for _, kv := range strings.Split(arg, ",") {
			key, val, _ := strings.Cut(kv, "=")
			switch key {
			case "a":
				a, err := strconv.ParseFloat(val, 64)
				if err == nil && a > 0 {
					p.Alpha = a
				}
			case "cap":
				c, err := strconv.ParseInt(val, 10, 64)
				if err == nil && c >= 0 {
					p.Cap = c
				}
			}
		}
		if math.IsNaN(p.Alpha) || p.Cap < 0 {
			return nil, fmt.Errorf("event: bad pareto latency %q (want pareto:a=A,cap=C, A > 0, C ≥ 0)", spec)
		}
		return p, nil
	}
	return nil, fmt.Errorf("event: unknown latency distribution %q (want const:…, uniform:…, or pareto:…)", spec)
}
