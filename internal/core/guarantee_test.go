package core

import (
	"math"
	"testing"

	"gbc/internal/exact"
	"gbc/internal/gen"
	"gbc/internal/graph"
	"gbc/internal/xrand"
)

// TestApproximationGuaranteeSuccessRate validates the paper's Theorem 1
// empirically: over many independent runs, the fraction achieving
// B(C) >= (1-1/e-ε)·opt must be at least 1-γ (up to binomial noise).
// In practice greedy lands far above the bound, so the observed failure
// rate should be zero. The weighted graph runs the Dijkstra sampler, and
// OPT comes from the weighted exact evaluator.
func TestApproximationGuaranteeSuccessRate(t *testing.T) {
	r := xrand.New(301)
	graphs := []struct {
		name string
		gen  func() *gencase
	}{
		{"er", func() *gencase {
			g := gen.ErdosRenyiGNM(22, 55, false, r.Split())
			_, opt := exact.BruteForceOptimal(g, 2)
			return &gencase{g: g, opt: opt}
		}},
		{"directed", func() *gencase {
			g := gen.ErdosRenyiGNM(20, 70, true, r.Split())
			_, opt := exact.BruteForceOptimal(g, 2)
			return &gencase{g: g, opt: opt}
		}},
		{"weighted", func() *gencase {
			g := randomWeighted(20, 302)
			_, opt := exact.BruteForceOptimal(g, 2)
			return &gencase{g: g, opt: opt}
		}},
	}
	const (
		eps    = 0.3
		gamma  = 0.1
		runs   = 15
		thresh = 1 - 1/math.E - eps
	)
	for _, tc := range graphs {
		c := tc.gen()
		failures := 0
		for i := 0; i < runs; i++ {
			res, err := AdaAlg(c.g, Options{K: 2, Epsilon: eps, Gamma: gamma, Seed: uint64(1000 + i)})
			if err != nil {
				t.Fatal(err)
			}
			if exact.GBC(c.g, res.Group) < thresh*c.opt {
				failures++
			}
		}
		// Even at the theoretical γ = 0.1 we'd expect <= ~4 failures at
		// 4σ; greedy's slack means zero in practice.
		if failures > 3 {
			t.Fatalf("%s: %d/%d runs below the (1-1/e-ε) guarantee", tc.name, failures, runs)
		}
	}
}

type gencase struct {
	g   *graph.Graph
	opt float64
}
