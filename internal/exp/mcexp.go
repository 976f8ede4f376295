package exp

import (
	"fmt"
	"strings"

	"snappif/internal/core"
	"snappif/internal/explore"
	"snappif/internal/graph"
	"snappif/internal/trace"
)

// ModelChecking is experiment MC: exhaustive verification through the
// explorer (internal/explore). In full mode it enumerates the complete
// domain product of the snap protocol on a 3-line under both daemon powers;
// both modes run the systematic fault-seeded checks on a 5-ring and a 4-ring
// and let the explorer synthesize the self-stabilizing baseline's
// counterexample on a 4-line. Quick mode drops the full snap products.
func ModelChecking(opt Options) (Outcome, error) {
	opt = opt.withDefaults()
	tbl := trace.NewTable("MC — exhaustive model checking (safety [PIF1/PIF2], no deadlock, EF-SBN)",
		"instance", "protocol", "mode", "initial", "states", "transitions", "result")
	out := Outcome{Table: tbl}

	jobs := []struct {
		name, topo, protocol, power, init string
		skipQ                             bool // skip in quick mode
	}{
		{"line-3 full central", "line:3", explore.ProtocolSnap, explore.PowerCentral, "domain", true},
		{"line-3 full distributed", "line:3", explore.ProtocolSnap, explore.PowerDistributed, "domain", true},
		{"ring-5 faults central", "ring:5", explore.ProtocolSnap, explore.PowerCentral, "faults:3", false},
		{"ring-4 faults distributed", "ring:4", explore.ProtocolSnap, explore.PowerDistributed, "faults:2", false},
		{"line-4 full central", "line:4", explore.ProtocolSelfStab, explore.PowerCentral, "domain", false},
	}
	for _, j := range jobs {
		if opt.Quick && j.skipQ {
			continue
		}
		res, err := checkExhaustively(j.topo, j.protocol, j.power, j.init)
		if err != nil {
			return out, fmt.Errorf("exp: MC %s: %w", j.name, err)
		}
		snap := j.protocol == explore.ProtocolSnap
		proto, mode := "snap-pif", "full"
		if !snap {
			proto = "selfstab-pif"
		}
		if j.init != "domain" {
			mode = "systematic"
		}
		var verdictCell string
		switch {
		case snap && res.Verdict == "certified":
			verdictCell = "VERIFIED"
		case snap:
			verdictCell = "FAILED"
			out.SnapViolations++
		case strings.HasPrefix(res.Violation, "pif-delivery:"):
			verdictCell = "counterexample synthesized"
			out.BaselineViolations++
		default:
			verdictCell = "no counterexample (unexpected)"
		}
		tbl.AddRow(j.name, proto, mode, res.InitialStates, res.States, res.Transitions, verdictCell)
	}
	return out, nil
}

// checkExhaustively explores every schedule of protocol on topo under power
// from init (a snap Inits mode; "domain" is the baseline's own domain for
// the baseline) with every transition enumerated, so the run also checks
// EF-clean.
func checkExhaustively(topo, protocol, power, init string) (*explore.Result, error) {
	g, err := graph.Parse(topo)
	if err != nil {
		return nil, err
	}
	var inits [][]core.State
	if protocol == explore.ProtocolSelfStab {
		inits, err = explore.BaselineDomain(g, 0)
	} else {
		inits, err = explore.Inits(init, g, 0, nil)
	}
	if err != nil {
		return nil, err
	}
	e, err := explore.New(g, 0, explore.Options{Protocol: protocol, Power: power, MaxStates: 5_000_000})
	if err != nil {
		return nil, err
	}
	return e.Run(inits)
}
