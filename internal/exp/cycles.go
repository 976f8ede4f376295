package exp

import (
	"fmt"

	"snappif/internal/baseline/treepif"
	"snappif/internal/check"
	"snappif/internal/core"
	"snappif/internal/sim"
	"snappif/internal/trace"
)

// CycleRounds is experiment E1 (Theorem 4): starting from the normal
// starting configuration, a full PIF cycle takes at most 5h+5 rounds, where
// h is the height of the tree constructed during the cycle. The table
// reports, per topology, the constructed height, the diameter (h ∈
// Ω(diameter)), the measured cycle rounds under the synchronous daemon (the
// round-tightest schedule), and the bound.
func CycleRounds(opt Options) (Outcome, error) {
	opt = opt.withDefaults()
	tbl := trace.NewTable("E1 — PIF cycle cost from a clean start (Theorem 4: rounds ≤ 5h+5)",
		"topology", "N", "diam", "h", "rounds(mean)", "rounds(max)", "bound 5h+5", "ok")
	out := Outcome{Table: tbl}
	type cell struct {
		rounds, heights trace.Sample
		exceeded, viols int
	}
	tops := topologies(opt.Quick, opt.Seed)
	cells, err := runGrid(opt, len(tops),
		func(i int) (cell, error) {
			var c cell
			recs, err := runCycles(opt, tops[i].g, sim.Synchronous{}, opt.Trials, opt.Seed)
			if err != nil {
				return c, fmt.Errorf("exp: E1 on %s: %w", tops[i].g, err)
			}
			for _, rec := range recs {
				c.rounds.Add(rec.Rounds())
				c.heights.Add(rec.Height)
				if rec.Rounds() > 5*rec.Height+5 {
					c.exceeded++
				}
				if len(rec.Violations) > 0 {
					c.viols++
				}
			}
			return c, nil
		})
	if err != nil {
		return out, err
	}
	for i, c := range cells {
		out.BoundExceeded += c.exceeded
		out.SnapViolations += c.viols
		h := c.heights.Max()
		tbl.AddRow(tops[i].g.Name(), tops[i].g.N(), tops[i].g.Diameter(), h,
			c.rounds.Mean(), c.rounds.Max(), 5*h+5, verdict(c.exceeded == 0))
	}
	return out, nil
}

// Chordless is experiment E6 (proof of Theorem 4): every ParentPath the
// algorithm constructs is an elementary chordless path, so the constructed
// height h is bounded by the longest chordless path ending at the root and
// is at least the BFS-optimal depth would suggest. The chordless property
// is asserted on every computation step of clean-start runs; the table
// additionally compares h to the diameter and the exact longest chordless
// path (computed exhaustively, hence only on the quick suite sizes).
func Chordless(opt Options) (Outcome, error) {
	opt = opt.withDefaults()
	tbl := trace.NewTable("E6 — chordless ParentPaths (Theorem 4 proof): h ≤ longest chordless path from root",
		"topology", "N", "diam", "h", "lcp(root)", "steps checked", "chord violations", "ok")
	out := Outcome{Table: tbl}
	for _, tp := range topologies(true /* exact LCP is exponential */, opt.Seed) {
		pr, err := core.New(tp.g, 0)
		if err != nil {
			return out, err
		}
		cfg := sim.NewConfiguration(tp.g, pr)
		obs := check.NewCycleObserver(pr)
		mon := check.NewMonitor(pr, []check.Check{
			{Name: "chordless", Fn: check.ChordlessParentPaths},
		})
		if _, err := sim.Run(cfg, pr, sim.DistributedRandom{P: 0.5}, sim.Options{
			MaxSteps:  20_000_000,
			Seed:      opt.Seed,
			Observers: []sim.Observer{obs, mon},
			StopWhen:  obs.StopAfterCycles(opt.Trials),
		}); err != nil {
			return out, fmt.Errorf("exp: E6 on %s: %w", tp.g, err)
		}
		h := 0
		for _, rec := range obs.Cycles {
			if rec.Height > h {
				h = rec.Height
			}
		}
		lcp := tp.g.LongestChordlessPathFrom(0)
		ok := len(mon.Violations) == 0 && h <= lcp
		if h > lcp {
			out.BoundExceeded++
		}
		out.SnapViolations += len(mon.Violations)
		tbl.AddRow(tp.g.Name(), tp.g.N(), tp.g.Diameter(), h, lcp,
			mon.StepsChecked, len(mon.Violations), verdict(ok))
	}
	return out, nil
}

// Daemons is experiment E8 (Section 2 model): the protocol is correct under
// any weakly fair distributed daemon. The table reports cycle rounds and
// delivery under five qualitatively different daemons.
func Daemons(opt Options) (Outcome, error) {
	opt = opt.withDefaults()
	tbl := trace.NewTable("E8 — daemon sensitivity (all daemons: delivery must be perfect)",
		"topology", "daemon", "cycles", "rounds(mean)", "rounds(max)", "delivered", "ok")
	out := Outcome{Table: tbl}
	// Stateful daemons (adversarial, round-robin) are constructed fresh per
	// cell so that no cell's schedule depends on another cell having run —
	// the independence runGrid requires.
	daemonSuite := func() []sim.Daemon {
		return []sim.Daemon{
			sim.Synchronous{},
			sim.Central{Order: sim.CentralRandom},
			sim.DistributedRandom{P: 0.5},
			sim.LocallyCentral{},
			&sim.Adversarial{PreferActions: []int{core.ActionB, core.ActionFok, core.ActionF}},
		}
	}
	names := make([]string, len(daemonSuite()))
	for i, d := range daemonSuite() {
		names[i] = d.Name()
	}
	tops := topologies(opt.Quick, opt.Seed)
	sel := []topology{tops[0], tops[4], tops[len(tops)-1]} // line, grid, random
	type cell struct {
		rounds    trace.Sample
		cycles    int
		delivered int
		viols     int
	}
	nd := len(names)
	cells, err := runGrid(opt, len(sel)*nd,
		func(i int) (cell, error) {
			tp, d := sel[i/nd], daemonSuite()[i%nd]
			var c cell
			recs, err := runCycles(opt, tp.g, d, opt.Trials, opt.Seed)
			if err != nil {
				return c, fmt.Errorf("exp: E8 on %s under %s: %w", tp.g, d.Name(), err)
			}
			c.cycles = len(recs)
			for _, rec := range recs {
				c.rounds.Add(rec.Rounds())
				c.delivered += rec.Delivered
				if !rec.OK() {
					c.viols++
				}
			}
			return c, nil
		})
	if err != nil {
		return out, err
	}
	for i, c := range cells {
		tp := sel[i/nd]
		out.SnapViolations += c.viols
		tbl.AddRow(tp.g.Name(), names[i%nd], c.cycles, c.rounds.Mean(), c.rounds.Max(),
			fmt.Sprintf("%d/%d", c.delivered, c.cycles*(tp.g.N()-1)), verdict(c.viols == 0))
	}
	return out, nil
}

// TreeBaseline is experiment E9 (related work): PIF over a pre-constructed
// spanning tree versus the snap algorithm on the full graph. The tree
// baseline's broadcast-to-feedback matches its fixed tree height; the snap
// algorithm pays for building its tree on the fly but needs no tree input —
// and on topologies where the BFS tree is deep (e.g. rings seen from one
// side), the dynamically built tree tracks the best reachable height.
func TreeBaseline(opt Options) (Outcome, error) {
	opt = opt.withDefaults()
	tbl := trace.NewTable("E9 — pre-constructed-tree PIF [7,9] vs snap PIF (rounds, synchronous daemon)",
		"topology", "N", "treeH", "tree rounds(B→F)", "snapH", "snap rounds(full cycle)", "tree delivered", "snap delivered")
	out := Outcome{Table: tbl}
	type cell struct {
		treeRounds, snapRounds   trace.Sample
		treeH, snapH             int
		treeDelivered, treeWant  int
		snapDelivered            int
		baselineViols, snapViols int
	}
	tops := topologies(opt.Quick, opt.Seed)
	cells, err := runGrid(opt, len(tops),
		func(i int) (cell, error) {
			tp := tops[i]
			var c cell
			tpr, err := treepif.NewBFS(tp.g, 0)
			if err != nil {
				return c, err
			}
			c.treeH = tpr.Height()
			tcfg := sim.NewConfiguration(tp.g, tpr)
			tobs := treepif.NewCycleObserver(tpr)
			if _, err := sim.Run(tcfg, tpr, sim.Synchronous{}, sim.Options{
				MaxSteps:  20_000_000,
				Seed:      opt.Seed,
				Observers: []sim.Observer{tobs},
				StopWhen:  tobs.StopAfterCycles(opt.Trials),
			}); err != nil {
				return c, fmt.Errorf("exp: E9 tree on %s: %w", tp.g, err)
			}
			for _, rec := range tobs.Cycles {
				c.treeRounds.Add(rec.Rounds())
				c.treeDelivered += rec.Delivered
				c.treeWant += tp.g.N() - 1
				if !rec.OK(tp.g.N()) {
					c.baselineViols++
				}
			}
			recs, err := runCycles(opt, tp.g, sim.Synchronous{}, opt.Trials, opt.Seed)
			if err != nil {
				return c, fmt.Errorf("exp: E9 snap on %s: %w", tp.g, err)
			}
			for _, rec := range recs {
				c.snapRounds.Add(rec.Rounds())
				c.snapDelivered += rec.Delivered
				if rec.Height > c.snapH {
					c.snapH = rec.Height
				}
				if !rec.OK() {
					c.snapViols++
				}
			}
			return c, nil
		})
	if err != nil {
		return out, err
	}
	for i, c := range cells {
		out.BaselineViolations += c.baselineViols
		out.SnapViolations += c.snapViols
		tbl.AddRow(tops[i].g.Name(), tops[i].g.N(), c.treeH, c.treeRounds.Mean(),
			c.snapH, c.snapRounds.Mean(),
			fmt.Sprintf("%d/%d", c.treeDelivered, c.treeWant),
			fmt.Sprintf("%d/%d", c.snapDelivered, c.treeWant))
	}
	return out, nil
}

// verdict renders a boolean as a table cell.
func verdict(ok bool) string {
	if ok {
		return "yes"
	}
	return "NO"
}
