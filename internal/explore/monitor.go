package explore

import (
	"fmt"

	"snappif/internal/core"
	"snappif/internal/sim"
)

// monState is the specification-monitor component of an explored product
// state. It keeps one broadcast window per instance; a single protocol is
// instance 0 of one, and instance i of a composition owns the vector
// entries [i·N, (i+1)·N). fed marks which non-root entries acknowledged
// their instance's current wave (bit s set = entry s fed back while holding
// the live message); windows marks the open broadcast windows (bit i set =
// instance i's root opened a wave it has not yet closed with its F-action).
type monState struct {
	fed     uint64
	windows uint8
}

// applyMonitor advances the monitor across one engine step and normalizes
// the successor vector onto the explored quotient. Per instance:
//
//   - a root B-action opens the window: its bit in windows is set, the
//     instance's fed marks clear, the root's message register is forced to
//     1 (the engine stamped a fresh concrete payload; the quotient keeps
//     one bit: "carries the current broadcast") and every other entry's of
//     the instance to 0;
//   - a non-root B-action copies its parent's message bit through the
//     engine's own Apply, reading the pre-step configuration — nothing to
//     do here;
//   - a root F-action inside an open window evaluates [PIF1]/[PIF2] on the
//     pre-step configuration and closes the window;
//   - a non-root F-action whose post-step state holds the live bit sets
//     the entry's fed mark.
//
// Finally Val and Agg are zeroed: the payload extensions feed no guard
// (core's documented contract), so quotienting them out loses no behavior
// and keeps the explored space finite. succ is modified in place; the
// returned string is a [PIF1]/[PIF2] violation description ("" if none).
//
//snapvet:hotpath
func (e *Explorer) applyMonitor(pre []core.State, preMon monState, sel []sim.Choice, succ []core.State) (monState, string) {
	mon := preMon
	n := e.g.N()
	var opened uint8
	violation := ""
	for _, ch := range sel {
		inst := ch.Proc / n
		bit := uint8(1) << uint(inst)
		root := ch.Proc == inst*n+e.roots[inst]
		switch ch.Action {
		case core.ActionB:
			if root {
				opened |= bit
			}
		case core.ActionF:
			if root {
				if mon.windows&bit != 0 {
					if v := e.checkDelivery(inst, pre, preMon, sel); v != "" && violation == "" {
						violation = v
					}
					mon.windows &^= bit
				}
			} else if succ[ch.Proc].Msg == 1 {
				mon.fed |= 1 << uint(ch.Proc)
			}
		}
	}
	for inst, root := range e.roots {
		if opened&(1<<uint(inst)) == 0 {
			continue
		}
		mon.windows |= 1 << uint(inst)
		for s := inst * n; s < (inst+1)*n; s++ {
			mon.fed &^= 1 << uint(s)
			succ[s].Msg = 0
		}
		succ[inst*n+root].Msg = 1
	}
	for s := range succ {
		succ[s].Val, succ[s].Agg = 0, 0
	}
	return mon, violation
}

// checkDelivery evaluates [PIF1]/[PIF2] at instance inst's root F-action
// closing an open window: in the pre-step configuration every non-root
// entry of the instance must hold the current message and have fed back
// (or be feeding back in this very step).
//
//snapvet:hotpath
func (e *Explorer) checkDelivery(inst int, pre []core.State, mon monState, sel []sim.Choice) string {
	n := e.g.N()
	root := inst*n + e.roots[inst]
	var feedingNow uint64
	for _, ch := range sel {
		if ch.Proc != root && ch.Action == core.ActionF && pre[ch.Proc].Msg == 1 {
			feedingNow |= 1 << uint(ch.Proc)
		}
	}
	for s := inst * n; s < (inst+1)*n; s++ {
		if s == root {
			continue
		}
		if pre[s].Msg != 1 {
			return fmt.Sprintf("PIF1 violated: %sp%d never received the broadcast", e.instance(inst), s-inst*n) //snapvet:ok violation message, ends the search
		}
		if mon.fed&(1<<uint(s)) == 0 && feedingNow&(1<<uint(s)) == 0 {
			return fmt.Sprintf("PIF2 violated: %sp%d never acknowledged", e.instance(inst), s-inst*n) //snapvet:ok violation message, ends the search
		}
	}
	return ""
}

// instance names instance inst in a composition's delivery violations, and
// is empty for a single protocol.
//
//snapvet:coldpath violation messages only
func (e *Explorer) instance(inst int) string {
	if len(e.opts.Initiators) == 0 {
		return ""
	}
	return fmt.Sprintf("instance %d, ", inst)
}

// normalizeSeed maps a concrete initial vector onto the explored quotient:
// any nonzero message register maps to 0 — the bit 1 is reserved for the
// live broadcast, so a stale payload "does not carry the current message"
// — and the payload extensions are zeroed.
func normalizeSeed(states []core.State) []core.State {
	out := append([]core.State(nil), states...)
	for p := range out {
		out[p].Msg = 0
		out[p].Val, out[p].Agg = 0, 0
	}
	return out
}
