package exp

import (
	"fmt"
	"math/rand"

	"snappif/internal/check"
	"snappif/internal/core"
	"snappif/internal/fault"
	"snappif/internal/graph"
	"snappif/internal/sim"
	"snappif/internal/trace"
)

// ScalingFigure is experiment F1 (the "figure" companion of Theorem 4):
// cycle rounds, tree height, and moves per cycle as a function of N for
// three topology families with qualitatively different h(N) — linear
// (line: h = N-1), square-root-ish (grid: h = Θ(√N)), and constant-ish
// (random dense: h = O(log N) in practice). Theorem 4 predicts the rounds
// series tracks 4h+4 ≤ 5h+5, so the three families must separate exactly
// as h does; moves per cycle grow as Θ(N + Σ path lengths).
func ScalingFigure(opt Options) (Outcome, error) {
	opt = opt.withDefaults()
	tbl := trace.NewTable("F1 — scaling series (Theorem 4: rounds track h; families separate by h(N))",
		"family", "N", "h", "rounds", "bound 5h+5", "moves/cycle", "ok")
	out := Outcome{Table: tbl}
	sizes := []int{8, 16, 32, 64, 128, 256}
	if opt.Quick {
		sizes = []int{8, 16}
	}
	families := []struct {
		name  string
		build func(n int) (*graph.Graph, error)
	}{
		{name: "line", build: graph.Line},
		{name: "grid", build: func(n int) (*graph.Graph, error) {
			side := 1
			for side*side < n {
				side++
			}
			return graph.Grid(side, side)
		}},
		{name: "random-dense", build: func(n int) (*graph.Graph, error) {
			return graph.RandomConnected(n, 0.3, rand.New(rand.NewSource(opt.Seed)))
		}},
	}
	type cell struct {
		rounds          trace.Sample
		n, h            int
		movesPerCycle   int
		exceeded, viols int
	}
	ns := len(sizes)
	cells, err := runGrid(opt, len(families)*ns,
		func(i int) (cell, error) {
			fam, n := families[i/ns], sizes[i%ns]
			var c cell
			g, err := fam.build(n)
			if err != nil {
				return c, err
			}
			c.n = g.N()
			pr, err := core.New(g, 0)
			if err != nil {
				return c, err
			}
			cfg := sim.NewConfiguration(g, pr)
			obs := check.NewCycleObserver(pr)
			res, err := sim.Run(cfg, pr, sim.Synchronous{}, sim.Options{
				MaxSteps:  20_000_000,
				Seed:      opt.Seed,
				Observers: []sim.Observer{obs},
				StopWhen:  obs.StopAfterCycles(opt.Trials),
			})
			if err != nil {
				return c, fmt.Errorf("exp: F1 %s N=%d: %w", fam.name, n, err)
			}
			for _, rec := range obs.Cycles {
				c.rounds.Add(rec.Rounds())
				if rec.Height > c.h {
					c.h = rec.Height
				}
				if rec.Rounds() > 5*rec.Height+5 {
					c.exceeded++
				}
				if !rec.OK() {
					c.viols++
				}
			}
			c.movesPerCycle = res.Moves / len(obs.Cycles)
			return c, nil
		})
	if err != nil {
		return out, err
	}
	for i, c := range cells {
		out.BoundExceeded += c.exceeded
		out.SnapViolations += c.viols
		ok := c.rounds.Max() <= 5*c.h+5
		tbl.AddRow(families[i/ns].name, c.n, c.h, c.rounds.Mean(), 5*c.h+5,
			c.movesPerCycle, verdict(ok))
	}
	return out, nil
}

// LmaxSensitivity is experiment F2 (the "figure" companion of Theorems
// 1–3): the paper's error-correction and stabilization bounds scale with
// Lmax, the *domain* of the level variable — so at fixed N, inflating Lmax
// inflates the bounds linearly. The measured series shows the other side:
// recovery stays flat, because an abnormal ParentPath can involve at most
// N distinct processors no matter how large the level domain is, so the
// correction wave's real length is O(N). The experiment therefore
// quantifies the proof slack in the Lmax dependence (a finding, recorded
// in EXPERIMENTS.md) while asserting that the bounds themselves always
// hold and that clean-cycle cost is Lmax-independent.
func LmaxSensitivity(opt Options) (Outcome, error) {
	opt = opt.withDefaults()
	tbl := trace.NewTable("F2 — Lmax sensitivity at fixed N (bounds grow with Lmax; measured recovery stays O(N))",
		"topology", "Lmax", "rounds→SBN(mean)", "rounds→SBN(max)", "bound 13·Lmax+12", "clean cycle rounds", "ok")
	out := Outcome{Table: tbl}
	g, err := graph.Ring(12)
	if err != nil {
		return out, err
	}
	factors := []int{1, 2, 4, 8}
	if opt.Quick {
		factors = []int{1, 4}
	}
	for _, k := range factors {
		lmax := k * (g.N() - 1)
		pr, err := core.New(g, 0, core.WithLmax(lmax))
		if err != nil {
			return out, err
		}
		var sbn trace.Sample
		for trial := 0; trial < opt.Trials; trial++ {
			cfg := sim.NewConfiguration(g, pr)
			// Deep phantom levels: everyone broadcasting near Lmax with a
			// long consistent chain, the worst case for level dismantling.
			fault.MaxLevels().Apply(cfg, pr, rand.New(rand.NewSource(opt.Seed+int64(trial))))
			tracker := &abnormalTracker{pr: pr}
			if _, err := sim.Run(cfg, pr, sim.DistributedRandom{P: 0.5}, sim.Options{
				MaxSteps:  20_000_000,
				Seed:      opt.Seed + int64(trial) + 1,
				Observers: []sim.Observer{tracker},
				StopWhen:  func(*sim.RunState) bool { return tracker.sawSBN },
			}); err != nil {
				return out, fmt.Errorf("exp: F2 Lmax=%d: %w", lmax, err)
			}
			sbn.Add(tracker.sbnRound)
		}
		// Clean-cycle cost must be Lmax-independent.
		recs, err := runCyclesWith(pr, g, sim.Synchronous{}, 2, opt.Seed)
		if err != nil {
			return out, err
		}
		clean := recs[0].Rounds()
		bound := 13*lmax + 12
		ok := sbn.Max() <= bound
		if !ok {
			out.BoundExceeded++
		}
		tbl.AddRow(g.Name(), lmax, sbn.Mean(), sbn.Max(), bound, clean, verdict(ok))
	}
	return out, nil
}

// runCyclesWith runs k clean-start cycles with a pre-built protocol.
func runCyclesWith(pr *core.Protocol, g *graph.Graph, d sim.Daemon, k int, seed int64) ([]check.CycleRecord, error) {
	cfg := sim.NewConfiguration(g, pr)
	obs := check.NewCycleObserver(pr)
	if _, err := sim.Run(cfg, pr, d, sim.Options{
		MaxSteps:  20_000_000,
		Seed:      seed,
		Observers: []sim.Observer{obs},
		StopWhen:  obs.StopAfterCycles(k),
	}); err != nil {
		return nil, err
	}
	return obs.Cycles, nil
}

// MoveComplexity is experiment F3: move (work) complexity per wave and per
// recovery, a dimension the paper leaves unanalyzed. Measured per topology:
// total action executions per clean cycle (split by action) and per
// recovery from uniform corruption.
func MoveComplexity(opt Options) (Outcome, error) {
	opt = opt.withDefaults()
	tbl := trace.NewTable("F3 — move complexity (per clean cycle / per recovery; not analyzed in the paper)",
		"topology", "N", "moves/cycle", "B", "Count", "Fok", "F", "C", "recovery moves(mean)")
	out := Outcome{Table: tbl}
	for _, tp := range selectTopologies(opt) {
		pr, err := core.New(tp.g, 0)
		if err != nil {
			return out, err
		}
		cfg := sim.NewConfiguration(tp.g, pr)
		obs := check.NewCycleObserver(pr)
		res, err := sim.Run(cfg, pr, sim.Synchronous{}, sim.Options{
			MaxSteps:  20_000_000,
			Seed:      opt.Seed,
			Observers: []sim.Observer{obs},
			StopWhen:  obs.StopAfterCycles(opt.Trials),
		})
		if err != nil {
			return out, err
		}
		cycles := len(obs.Cycles)
		per := func(name string) int { return res.MovesPerAction[name] / cycles }

		var recovery trace.Sample
		for trial := 0; trial < opt.Trials; trial++ {
			rcfg := sim.NewConfiguration(tp.g, pr)
			fault.UniformRandom().Apply(rcfg, pr, rand.New(rand.NewSource(opt.Seed+int64(trial))))
			rres, err := sim.Run(rcfg, pr, sim.DistributedRandom{P: 0.5}, sim.Options{
				MaxSteps: 20_000_000,
				Seed:     opt.Seed + int64(trial) + 1,
				StopWhen: func(rs *sim.RunState) bool { return check.IsSBN(rs.Config, pr) },
			})
			if err != nil {
				return out, err
			}
			recovery.Add(rres.Moves)
		}
		tbl.AddRow(tp.g.Name(), tp.g.N(), res.Moves/cycles,
			per("B-action"), per("Count-action"), per("Fok-action"),
			per("F-action"), per("C-action"), recovery.Mean())
	}
	return out, nil
}
