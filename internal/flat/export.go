package flat

import "snappif/internal/core"

// This file is the flat kernel's surface for the runner: internal/event
// steps the SoA configuration, the CSR adjacency, and the guard/action
// kernels verbatim, so its scheduler is a second *scheduling* semantics
// over the same single-step semantics as sim.Runner — not a second copy of
// the protocol. Everything here is a zero-cost wrapper over the
// package-private hot-path primitives; the wrappers carry the same hotpath
// annotations so snapvet's allocation budget follows the calls across the
// package boundary.

// NoAction is the guard cache's "no enabled action" sentinel, the exported
// counterpart of the kernel-internal noAction.
const NoAction = noAction

// EnabledAction evaluates p's guards on c and returns the enabled action ID
// or NoAction. The PIF guards are mutually exclusive, so the result is the
// whole enabled set of p.
//
//snapvet:hotpath
func (k *Protocol) EnabledAction(c *Config, p int) int32 { return k.enabledAction(c, p) }

// Apply stages p's action a: dst receives p's next state, computed from the
// pre-step slices of c. The caller owns commit ordering (composite
// atomicity: stage everything, then scatter-commit).
//
//snapvet:hotpath
func (k *Protocol) Apply(c *Config, p int, a int32, dst *core.State) { k.apply(c, p, a, dst) }

// Neighbors returns p's CSR adjacency slice (ascending IDs, shared immutable
// storage — callers must not modify it).
//
//snapvet:hotpath
func (c *Config) Neighbors(p int) []int32 { return c.neighbors(p) }

// SetStateHot scatter-commits one staged state, the exported counterpart of
// the commit loop's setStateHot.
//
//snapvet:hotpath
func (c *Config) SetStateHot(p int32, s *core.State) { c.setStateHot(p, s) }

// Phase reads p's phase register without gathering the full state.
//
//snapvet:hotpath
func (c *Config) Phase(p int) core.Phase { return core.Phase(c.pif[p]) }

// Msg reads p's payload register without gathering the full state.
//
//snapvet:hotpath
func (c *Config) Msg(p int) uint64 { return c.msg[p] }

// Agg reads p's feedback-aggregation register without gathering the full
// state — the serving layer's response value at feedback-complete time.
//
//snapvet:hotpath
func (c *Config) Agg(p int) int64 { return c.agg[p] }

// CensusDeltas converts one step's per-action move counts (cur − prev) into
// phase-census deltas for the telemetry hook. Every non-root action has a
// static phase transition: the guard pins the from-phase (Broadcast needs C,
// Feedback and AbnormalB need B, Cleaning and AbnormalF need F) and the
// statement the to-phase; Fok- and Count-action never change the phase. The
// root deviates only in B-correction (root: →C from any abnormal phase;
// non-root: B→F), so the root's move — if any, rootAct ≥ 0 — is re-counted
// from its observed before/after phases. Cross-validated against the
// sim engine's per-move census in the telemetry package's
// engine-agreement test.
func CensusDeltas(cur, prev []int, rootAct int, rootBefore, rootAfter core.Phase) (db, df, dc int) {
	cb := cur[core.ActionB] - prev[core.ActionB]
	cf := cur[core.ActionF] - prev[core.ActionF]
	cc := cur[core.ActionC] - prev[core.ActionC]
	cbc := cur[core.ActionBCorrection] - prev[core.ActionBCorrection]
	cfc := cur[core.ActionFCorrection] - prev[core.ActionFCorrection]
	db = cb - cf - cbc
	df = cf + cbc - cc - cfc
	dc = cc + cfc - cb
	if rootAct >= 0 {
		// Remove the static table's contribution for the root's move...
		switch rootAct {
		case core.ActionB:
			db--
			dc++
		case core.ActionF:
			df--
			db++
		case core.ActionC:
			dc--
			df++
		case core.ActionBCorrection:
			df--
			db++
		case core.ActionFCorrection:
			dc--
			df++
		}
		// ...and re-add its actual transition.
		if rootBefore != rootAfter {
			switch rootBefore {
			case core.B:
				db--
			case core.F:
				df--
			default:
				dc--
			}
			switch rootAfter {
			case core.B:
				db++
			case core.F:
				df++
			default:
				dc++
			}
		}
	}
	return db, df, dc
}
