package exp

import (
	"fmt"
	"math/rand"

	"snappif/internal/check"
	"snappif/internal/core"
	"snappif/internal/fault"
	"snappif/internal/sim"
	"snappif/internal/trace"
)

// abnormalTracker watches round boundaries and records the last round at
// which any abnormal processor existed and the first round at which the
// system was in an SBN configuration.
type abnormalTracker struct {
	pr *core.Protocol

	lastAbnormalRound int
	sbnRound          int
	sawSBN            bool
	initialAbnormal   int
}

var (
	_ sim.Observer      = (*abnormalTracker)(nil)
	_ sim.RoundObserver = (*abnormalTracker)(nil)
)

func (a *abnormalTracker) OnStep(int, []sim.Choice, *sim.Configuration) {}

func (a *abnormalTracker) OnRound(round int, c *sim.Configuration) {
	if len(check.Abnormal(c, a.pr)) > 0 {
		a.lastAbnormalRound = round
	}
	if !a.sawSBN && check.IsSBN(c, a.pr) {
		a.sbnRound = round
		a.sawSBN = true
	}
}

// stabilizeOnce injects inj into a fresh configuration and runs until an
// SBN configuration is reached, returning (rounds until no abnormal
// processor remains, rounds until SBN).
func stabilizeOnce(tp topology, inj fault.Injector, d sim.Daemon, seed int64) (normal, sbn int, err error) {
	pr, err := core.New(tp.g, 0)
	if err != nil {
		return 0, 0, err
	}
	cfg := sim.NewConfiguration(tp.g, pr)
	inj.Apply(cfg, pr, rand.New(rand.NewSource(seed)))
	tracker := &abnormalTracker{pr: pr}
	tracker.initialAbnormal = len(check.Abnormal(cfg, pr))
	if tracker.initialAbnormal == 0 && check.IsSBN(cfg, pr) {
		return 0, 0, nil
	}
	stop := func(rs *sim.RunState) bool { return tracker.sawSBN }
	if _, err := sim.Run(cfg, pr, d, sim.Options{
		MaxSteps:  20_000_000,
		Seed:      seed + 1,
		Observers: []sim.Observer{tracker},
		StopWhen:  stop,
	}); err != nil {
		return 0, 0, fmt.Errorf("stabilize on %s after %s: %w", tp.g, inj.Name, err)
	}
	if !tracker.sawSBN {
		return 0, 0, fmt.Errorf("stabilize on %s after %s: SBN never reached", tp.g, inj.Name)
	}
	return tracker.lastAbnormalRound, tracker.sbnRound, nil
}

// ErrorCorrection is experiment E2 (Property 3 + Theorem 1): starting from
// any configuration, every processor is normal within 3·Lmax+3 rounds. The
// table reports, per topology × fault pattern, the measured rounds until
// the last abnormal processor disappeared versus the bound.
func ErrorCorrection(opt Options) (Outcome, error) {
	opt = opt.withDefaults()
	tbl := trace.NewTable("E2 — error correction (Theorem 1: all processors normal within 3·Lmax+3 rounds)",
		"topology", "fault", "trials", "rounds→normal(mean)", "rounds→normal(max)", "bound 3·Lmax+3", "ok")
	out := Outcome{Table: tbl}
	tops := selectTopologies(opt)
	injs := injectors()
	ni := len(injs)
	cells, err := runGrid(opt, len(tops)*ni,
		func(i int) (trace.Sample, error) {
			tp, inj := tops[i/ni], injs[i%ni]
			var s trace.Sample
			for trial := 0; trial < opt.Trials; trial++ {
				normal, _, err := stabilizeOnce(tp, inj, sim.DistributedRandom{P: 0.5}, opt.Seed+int64(trial))
				if err != nil {
					return s, fmt.Errorf("exp: E2: %w", err)
				}
				s.Add(normal)
			}
			return s, nil
		})
	if err != nil {
		return out, err
	}
	for i, s := range cells {
		tp := tops[i/ni]
		lmax := tp.g.N() - 1
		if lmax < 1 {
			lmax = 1
		}
		bound := 3*lmax + 3
		ok := s.Max() <= bound
		if !ok {
			out.BoundExceeded++
		}
		tbl.AddRow(tp.g.Name(), injs[i%ni].Name, s.N(), s.Mean(), s.Max(), bound, verdict(ok))
	}
	return out, nil
}

// Stabilization is experiment E3 (Theorems 2–3): starting from any
// configuration, the system reaches a Start-Broadcast-Normal configuration
// (root clean, everyone clean and normal — ready for a guaranteed-correct
// wave) within a bounded number of rounds. Theorem 3 bounds GLT creation by
// 8·Lmax+7 rounds; a full in-flight cycle may then need to drain, adding
// the Theorem 4 cost with h ≤ Lmax, for a derived end-to-end bound of
// (8·Lmax+7) + (5·Lmax+5) = 13·Lmax+12 rounds to SBN.
func Stabilization(opt Options) (Outcome, error) {
	opt = opt.withDefaults()
	tbl := trace.NewTable("E3 — stabilization to SBN (Theorems 2–3; derived bound 13·Lmax+12 rounds)",
		"topology", "fault", "trials", "rounds→SBN(mean)", "rounds→SBN(max)", "ref 8·Lmax+7", "bound 13·Lmax+12", "ok")
	out := Outcome{Table: tbl}
	tops := selectTopologies(opt)
	injs := injectors()
	ni := len(injs)
	cells, err := runGrid(opt, len(tops)*ni,
		func(i int) (trace.Sample, error) {
			tp, inj := tops[i/ni], injs[i%ni]
			var s trace.Sample
			for trial := 0; trial < opt.Trials; trial++ {
				_, sbn, err := stabilizeOnce(tp, inj, sim.DistributedRandom{P: 0.5}, opt.Seed+int64(trial)*7)
				if err != nil {
					return s, fmt.Errorf("exp: E3: %w", err)
				}
				s.Add(sbn)
			}
			return s, nil
		})
	if err != nil {
		return out, err
	}
	for i, s := range cells {
		tp := tops[i/ni]
		lmax := tp.g.N() - 1
		if lmax < 1 {
			lmax = 1
		}
		ref := 8*lmax + 7
		bound := 13*lmax + 12
		ok := s.Max() <= bound
		if !ok {
			out.BoundExceeded++
		}
		tbl.AddRow(tp.g.Name(), injs[i%ni].Name, s.N(), s.Mean(), s.Max(), ref, bound, verdict(ok))
	}
	return out, nil
}

// selectTopologies picks a representative subset for the per-fault
// experiment grids (full grids are Trials × faults × topologies runs).
func selectTopologies(opt Options) []topology {
	tops := topologies(opt.Quick, opt.Seed)
	if opt.Quick {
		return []topology{tops[0], tops[1], tops[4], tops[9]} // line, ring, grid, random
	}
	return []topology{tops[0], tops[2], tops[6], tops[9], tops[14]}
}
