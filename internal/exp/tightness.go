package exp

import (
	"fmt"

	"snappif/internal/core"
	"snappif/internal/fault"
	"snappif/internal/graph"
	"snappif/internal/hunt"
	"snappif/internal/sim"
	"snappif/internal/trace"
)

// greedyRounds builds a fresh guided-search adversary for g: a greedy
// rollout daemon maximizing round consumption (hunt.Rounds), driving the
// run toward the worst schedules the proofs must cover. The daemon gets its
// own protocol instance so rollouts never perturb the run it schedules.
func greedyRounds(g *graph.Graph) (sim.Daemon, error) {
	pr, err := core.New(g, 0)
	if err != nil {
		return nil, err
	}
	return hunt.NewGreedy(pr, pr, hunt.Rounds()), nil
}

// BoundTightness is experiment H1: how close do executions get to the
// proved round bounds, and does adversarial scheduling close the gap that
// random scheduling leaves? Per topology it reports the worst rounds
// observed for the three bounded quantities of Theorems 1–4 — full PIF
// cycle (≤ 5h+5), error correction (≤ 3·Lmax+3), and stabilization to SBN
// (≤ 13·Lmax+12, with 8·Lmax+7 the Theorem 3 GLT reference) — under (a)
// the distributed random daemon and (b) a portfolio that adds the
// guided-search adversary on top of the same random probes. By
// construction searched ≥ random (the portfolio contains the random
// probes); the reproduction claim is that the worst execution either
// scheduler finds stays at or below the proved bound — the search guards
// the claim against random probing simply missing adversarial schedules.
func BoundTightness(opt Options) (Outcome, error) {
	opt = opt.withDefaults()
	tbl := trace.NewTable("H1 — bound tightness under the adversarial search daemon (worst rounds: random vs searched portfolio vs proved bound)",
		"topology", "metric", "random(max)", "searched(max)", "bound", "slack", "ok")
	out := Outcome{Table: tbl}
	tops := selectTopologies(opt)
	inj := fault.UniformRandom()
	searchTrials := opt.Trials
	if searchTrials > 3 {
		searchTrials = 3 // the search daemon is deterministic per start; a few corrupted starts suffice
	}
	type metric struct {
		name             string
		random, searched int
		bound            int
		exceeded         int
	}
	type cell struct {
		cycle, normal, sbn metric
	}
	cells, err := runGrid(opt, len(tops),
		func(i int) (cell, error) {
			tp := tops[i]
			var c cell
			lmax := tp.g.N() - 1
			if lmax < 1 {
				lmax = 1
			}

			// Metric 1: clean-start cycle rounds vs Theorem 4's 5h+5.
			maxH := 0
			cycleWorst := func(d sim.Daemon, seed int64) (int, error) {
				recs, err := runCycles(opt, tp.g, d, 3, seed)
				if err != nil {
					return 0, err
				}
				worst := 0
				for _, rec := range recs {
					if rec.Rounds() > worst {
						worst = rec.Rounds()
					}
					if rec.Height > maxH {
						maxH = rec.Height
					}
					if rec.Rounds() > 5*rec.Height+5 {
						c.cycle.exceeded++
					}
				}
				return worst, nil
			}
			for trial := 0; trial < opt.Trials; trial++ {
				w, err := cycleWorst(sim.DistributedRandom{P: 0.5}, opt.Seed+int64(trial))
				if err != nil {
					return c, fmt.Errorf("exp: H1 cycle/random: %w", err)
				}
				if w > c.cycle.random {
					c.cycle.random = w
				}
			}
			gd, err := greedyRounds(tp.g)
			if err != nil {
				return c, err
			}
			gw, err := cycleWorst(gd, opt.Seed)
			if err != nil {
				return c, fmt.Errorf("exp: H1 cycle/search: %w", err)
			}
			c.cycle = metric{name: "cycle rounds", random: c.cycle.random,
				searched: maxInt(c.cycle.random, gw), bound: 5*maxH + 5, exceeded: c.cycle.exceeded}

			// Metrics 2–3: corrupted-start recovery vs Theorems 1–3. The
			// searched portfolio replays the first corrupted starts under the
			// search daemon.
			c.normal = metric{name: "rounds→normal", bound: 3*lmax + 3}
			c.sbn = metric{name: "rounds→SBN", bound: 13*lmax + 12}
			for trial := 0; trial < opt.Trials; trial++ {
				normal, sbn, err := stabilizeOnce(tp, inj, sim.DistributedRandom{P: 0.5}, opt.Seed+int64(trial))
				if err != nil {
					return c, fmt.Errorf("exp: H1 recovery/random: %w", err)
				}
				c.normal.random = maxInt(c.normal.random, normal)
				c.sbn.random = maxInt(c.sbn.random, sbn)
			}
			c.normal.searched = c.normal.random
			c.sbn.searched = c.sbn.random
			for trial := 0; trial < searchTrials; trial++ {
				gd, err := greedyRounds(tp.g)
				if err != nil {
					return c, err
				}
				normal, sbn, err := stabilizeOnce(tp, inj, gd, opt.Seed+int64(trial))
				if err != nil {
					return c, fmt.Errorf("exp: H1 recovery/search: %w", err)
				}
				c.normal.searched = maxInt(c.normal.searched, normal)
				c.sbn.searched = maxInt(c.sbn.searched, sbn)
			}
			if c.normal.searched > c.normal.bound {
				c.normal.exceeded++
			}
			if c.sbn.searched > c.sbn.bound {
				c.sbn.exceeded++
			}
			return c, nil
		})
	if err != nil {
		return out, err
	}
	for i, c := range cells {
		for _, m := range []metric{c.cycle, c.normal, c.sbn} {
			ok := m.exceeded == 0 && m.searched >= m.random
			if !ok {
				out.BoundExceeded += maxInt(m.exceeded, 1)
			}
			tbl.AddRow(tops[i].g.Name(), m.name, m.random, m.searched, m.bound,
				m.bound-m.searched, verdict(ok))
		}
	}
	return out, nil
}
