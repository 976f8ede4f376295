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
//
// The kernel surface speaks slots (see layout): EnabledAction, Stage,
// Commit, Readers and Neighbors take a slot, and a staged Write holds Par
// as a slot. Slot and Proc translate at the boundary. Everything else on
// Config takes processor IDs.

// NoAction is the guard cache's "no enabled action" sentinel, the exported
// counterpart of the kernel-internal noAction.
const NoAction = noAction

// EnabledAction evaluates the guards at slot s on c and returns the enabled
// action ID or NoAction. The PIF guards are mutually exclusive, so the
// result is the whole enabled set of the processor at s.
//
//snapvet:hotpath
func (k *Protocol) EnabledAction(c *Config, s int) int32 { return k.enabledAction(c, s) }

// Neighbors returns slot s's CSR adjacency slice: slots, in the local order
// ≺_p of the processor at s (shared immutable storage — callers must not
// modify it).
//
//snapvet:hotpath
func (c *Config) Neighbors(s int) []int32 { return c.neighbors(s) }

// Slot returns processor p's slot.
//
//snapvet:hotpath
func (c *Config) Slot(p int) int { return c.slotOf(p) }

// Proc returns the processor ID stored at slot s.
//
//snapvet:hotpath
func (c *Config) Proc(s int) int { return c.procOf(s) }

// Identity reports whether every processor's slot is its ID, so that
// ascending slot order is ascending processor order.
//
//snapvet:hotpath
func (c *Config) Identity() bool { return c.proc == nil }

// Phase reads processor p's phase register without gathering the full
// state.
//
//snapvet:hotpath
func (c *Config) Phase(p int) core.Phase { return core.Phase(c.pif[c.slotOf(p)]) }

// Msg reads processor p's payload register without gathering the full
// state.
//
//snapvet:hotpath
func (c *Config) Msg(p int) uint64 { return c.msg[c.slotOf(p)] }

// Agg reads processor p's feedback-aggregation register without gathering
// the full state — the serving layer's response value at feedback-complete
// time.
//
//snapvet:hotpath
func (c *Config) Agg(p int) int64 { return c.agg[c.slotOf(p)] }

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
