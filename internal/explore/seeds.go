package explore

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"snappif/internal/baseline/selfstab"
	"snappif/internal/core"
	"snappif/internal/fault"
	"snappif/internal/graph"
	"snappif/internal/sim"
)

// maxDomainVectors caps the "domain" init mode: the full per-processor
// domain product grows as (3·deg·Lmax·N'·2)^n and is only meant for tiny
// instances where exploration from EVERY configuration — the literal
// quantifier of snap-stabilization — is affordable.
const maxDomainVectors = 1 << 20

// Inits builds the initial state vectors for one exploration from a mode
// string:
//
//	clean      — the single normal starting configuration
//	faults     — every fault-injector pattern (internal/fault) on 3 seeds
//	faults:K   — the same on K deterministic seeds per injector
//	domain     — the full product of per-processor variable domains
//	             (message bits normalized to 0), i.e. every configuration
//	             snap-stabilization quantifies over
//
// All vectors are later normalized onto the explored quotient by Run; the
// generation itself is deterministic (seeded rngs only).
func Inits(mode string, g *graph.Graph, root int, copts []core.Option) ([][]core.State, error) {
	pr, err := core.New(g, root, copts...)
	if err != nil {
		return nil, err
	}
	switch {
	case mode == "" || mode == "clean":
		return [][]core.State{cleanVector(g, pr)}, nil
	case mode == "faults":
		return faultVectors(g, pr, 3), nil
	case strings.HasPrefix(mode, "faults:"):
		k, err := strconv.Atoi(strings.TrimPrefix(mode, "faults:"))
		if err != nil || k < 1 {
			return nil, fmt.Errorf("explore: bad init mode %q (want faults:K with K ≥ 1)", mode)
		}
		return faultVectors(g, pr, k), nil
	case mode == "domain":
		counts := make([]int, pr.NPrime)
		for i := range counts {
			counts[i] = i + 1
		}
		return domainVectors(g, root, pr.Lmax, counts, []bool{false, true})
	}
	return nil, fmt.Errorf("explore: unknown init mode %q (want clean, faults[:K], or domain)", mode)
}

// cleanVector is the protocol's normal starting configuration.
func cleanVector(g *graph.Graph, pr *core.Protocol) []core.State {
	cfg := sim.NewConfiguration(g, pr)
	return vectorOf(cfg)
}

// BaselineDomain enumerates the self-stabilizing baseline's full domain
// product, Pif × Par × L per processor with Msg = 0, as vectors for an
// explorer with Protocol ProtocolSelfStab (Count and Fok stay zero).
func BaselineDomain(g *graph.Graph, root int) ([][]core.State, error) {
	pr, err := selfstab.New(g, root)
	if err != nil {
		return nil, err
	}
	return domainVectors(g, root, pr.Lmax, []int{0}, []bool{false})
}

// faultVectors applies every adversarial injector plus the clean control on
// seeds 0..k-1 each.
func faultVectors(g *graph.Graph, pr *core.Protocol, k int) [][]core.State {
	injectors := append(fault.All(), fault.Clean())
	out := make([][]core.State, 0, len(injectors)*k)
	for _, inj := range injectors {
		for seed := int64(0); seed < int64(k); seed++ {
			cfg := sim.NewConfiguration(g, pr)
			inj.Apply(cfg, pr, rand.New(rand.NewSource(seed)))
			out = append(out, vectorOf(cfg))
		}
	}
	return out
}

// domainVectors enumerates the full domain product by odometer: for every
// processor, Pif × Par × L × Count × Fok over the declared domains
// (root: Par = ⊥, L = 0; elsewhere L ∈ [1, lmax]), with Msg = Val = Agg = 0.
func domainVectors(g *graph.Graph, root, lmax int, counts []int, foks []bool) ([][]core.State, error) {
	n := g.N()
	domains := make([][]core.State, n)
	total := 1
	for p := 0; p < n; p++ {
		domains[p] = stateDomain(g, root, lmax, p, counts, foks)
		if total > maxDomainVectors/len(domains[p]) {
			return nil, fmt.Errorf("explore: domain product exceeds %d vectors; use faults:K on this instance", maxDomainVectors)
		}
		total *= len(domains[p])
	}
	out := make([][]core.State, 0, total)
	idx := make([]int, n)
	for {
		v := make([]core.State, n)
		for p := 0; p < n; p++ {
			v[p] = domains[p][idx[p]]
		}
		out = append(out, v)
		p := n - 1
		for p >= 0 {
			idx[p]++
			if idx[p] < len(domains[p]) {
				break
			}
			idx[p] = 0
			p--
		}
		if p < 0 {
			return out, nil
		}
	}
}

// stateDomain enumerates processor p's local domain in deterministic order.
func stateDomain(g *graph.Graph, root, lmax, p int, counts []int, foks []bool) []core.State {
	parents := []int{core.ParNone}
	levels := []int{0}
	if p != root {
		parents = g.Neighbors(p)
		levels = levels[:0]
		for l := 1; l <= lmax; l++ {
			levels = append(levels, l)
		}
	}
	var out []core.State
	for _, pif := range []core.Phase{core.B, core.F, core.C} {
		for _, par := range parents {
			for _, l := range levels {
				for _, cnt := range counts {
					for _, fok := range foks {
						out = append(out, core.State{Pif: pif, Par: par, L: l, Count: cnt, Fok: fok})
					}
				}
			}
		}
	}
	return out
}

// vectorOf snapshots a boxed configuration into a plain state vector.
func vectorOf(cfg *sim.Configuration) []core.State {
	v := make([]core.State, cfg.N())
	for p := 0; p < cfg.N(); p++ {
		v[p] = core.At(cfg, p)
	}
	return v
}
