package check

import (
	"snappif/internal/core"
	"snappif/internal/sim"
)

// This file classifies configurations per Definitions 8–16.

// IsNormalConfiguration reports Definition 8: every processor is normal.
//
//snapvet:hotpath
func IsNormalConfiguration(c *sim.Configuration, pr *core.Protocol) bool {
	for p := 0; p < c.N(); p++ {
		if !pr.Normal(c, p) {
			return false
		}
	}
	return true
}

// IsBroadcastConfiguration reports Definition 9: Pif_r = B and ¬Fok_r.
func IsBroadcastConfiguration(c *sim.Configuration, pr *core.Protocol) bool {
	s := stateOf(c, pr.Root)
	return s.Pif == core.B && !s.Fok
}

// IsStartBroadcast reports Definition 10 (SB): Pif_r = C.
//
//snapvet:hotpath
func IsStartBroadcast(c *sim.Configuration, pr *core.Protocol) bool {
	return stateOf(c, pr.Root).Pif == core.C
}

// IsSBN reports Definition 11 (Start Broadcast Normal): SB and normal; in
// such a configuration every processor has Pif = C.
//
//snapvet:hotpath
func IsSBN(c *sim.Configuration, pr *core.Protocol) bool {
	return IsStartBroadcast(c, pr) && IsNormalConfiguration(c, pr)
}

// IsAllClean reports whether every processor has Pif = C — the normal
// starting configuration of Section 3.1.
func IsAllClean(c *sim.Configuration) bool {
	for p := 0; p < c.N(); p++ {
		if stateOf(c, p).Pif != core.C {
			return false
		}
	}
	return true
}

// IsEBN reports Definition 12 (End Broadcast Normal): normal, ¬Fok_r, and
// every processor broadcasting.
func IsEBN(c *sim.Configuration, pr *core.Protocol) bool {
	if stateOf(c, pr.Root).Fok {
		return false
	}
	for p := 0; p < c.N(); p++ {
		if stateOf(c, p).Pif != core.B {
			return false
		}
	}
	return IsNormalConfiguration(c, pr)
}

// IsEndFeedback reports Definition 13 (EF): Pif_r = F.
func IsEndFeedback(c *sim.Configuration, pr *core.Protocol) bool {
	return stateOf(c, pr.Root).Pif == core.F
}

// IsEFN reports Definition 14 (End Feedback Normal).
func IsEFN(c *sim.Configuration, pr *core.Protocol) bool {
	return IsEndFeedback(c, pr) && IsNormalConfiguration(c, pr)
}

// IsGoodConfiguration reports Definition 15 (GC): every processor outside
// the LegalTree that participates (Pif ∈ {B,F}) with its parent inside the
// LegalTree satisfies GoodCount.
func IsGoodConfiguration(c *sim.Configuration, pr *core.Protocol) bool {
	var flags [stackProcs]uint8
	t := newTreeView(c, pr, flags[:])
	n := c.N()
	for p := 0; p < n; p++ {
		if t.member(p) {
			continue
		}
		s := stateOf(c, p)
		if (s.Pif == core.B || s.Pif == core.F) && s.Par >= 0 && s.Par < n && t.member(s.Par) && !pr.GoodCount(c, p) {
			return false
		}
	}
	return true
}
