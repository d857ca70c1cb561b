package core

import (
	"context"
	"fmt"

	"gbc/internal/graph"
)

// Algorithm selects one of the implemented top-K GBC algorithms.
type Algorithm int

const (
	// AlgAdaAlg is the paper's adaptive sampling algorithm (Algorithm 1).
	AlgAdaAlg Algorithm = iota
	// AlgHEDGE is the static baseline of Mahmoody et al. (KDD 2016).
	AlgHEDGE
	// AlgCentRa is the static state of the art of Pellegrina (KDD 2023).
	AlgCentRa
	// AlgEXHAUST is HEDGE with tiny ε and γ — the quality reference.
	AlgEXHAUST
	// AlgPairSampling is the pair-sampling baseline of Yoshida (KDD 2014);
	// see PairSampling for its caveats.
	AlgPairSampling
	// AlgBudgeted is the budgeted generalization (Fink & Spoerhase): node v
	// costs Options.Costs[v] and the group's total cost must stay within
	// Options.Budget; Options.K is ignored. See BudgetedGBC for the weaker
	// end-to-end guarantee.
	AlgBudgeted
)

// String returns the algorithm name as used in the paper.
func (a Algorithm) String() string {
	switch a {
	case AlgAdaAlg:
		return "AdaAlg"
	case AlgHEDGE:
		return "HEDGE"
	case AlgCentRa:
		return "CentRa"
	case AlgEXHAUST:
		return "EXHAUST"
	case AlgPairSampling:
		return "PairSampling"
	case AlgBudgeted:
		return "Budgeted"
	}
	return fmt.Sprintf("Algorithm(%d)", int(a))
}

// MarshalText encodes the algorithm as its String name — the stable wire
// encoding ("AdaAlg", "HEDGE", …) shared by the CLI and the server.
func (a Algorithm) MarshalText() ([]byte, error) {
	return []byte(a.String()), nil
}

// UnmarshalText parses an algorithm name; see ParseAlgorithm.
func (a *Algorithm) UnmarshalText(text []byte) error {
	parsed, err := ParseAlgorithm(string(text))
	if err != nil {
		return err
	}
	*a = parsed
	return nil
}

// ParseAlgorithm resolves a case-sensitive algorithm name.
func ParseAlgorithm(name string) (Algorithm, error) {
	switch name {
	case "AdaAlg", "adaalg", "ada":
		return AlgAdaAlg, nil
	case "HEDGE", "hedge":
		return AlgHEDGE, nil
	case "CentRa", "centra":
		return AlgCentRa, nil
	case "EXHAUST", "exhaust":
		return AlgEXHAUST, nil
	case "PairSampling", "pairsampling", "yoshida":
		return AlgPairSampling, nil
	case "Budgeted", "budgeted":
		return AlgBudgeted, nil
	}
	return 0, fmt.Errorf("core: unknown algorithm %q (want AdaAlg, HEDGE, CentRa, EXHAUST, PairSampling or Budgeted)", name)
}

// Solve is the canonical entry point: it runs the algorithm selected by
// opts.Algorithm (AdaAlg for the zero value) under ctx. The gbc package's
// Solve forwards here. All configuration, including the
// per-run Observer, Metrics and SamplerSet hooks, travels in opts, so
// concurrent Solve calls with different configurations never share mutable
// state. Options are validated up front (Options.Validate plus the
// graph-dependent checks), so every surface — library, CLI, server —
// rejects a bad K/ε/γ/workers with the same typed *OptionError before any
// solver-specific code runs.
func Solve(ctx context.Context, g *graph.Graph, opts Options) (*Result, error) {
	if err := opts.validate(g); err != nil {
		return nil, err
	}
	return RunCtx(ctx, opts.Algorithm, g, opts)
}

// Run dispatches to the selected algorithm.
func Run(alg Algorithm, g *graph.Graph, opts Options) (*Result, error) {
	return RunCtx(context.Background(), alg, g, opts)
}

// RunCtx dispatches to the selected algorithm under a context: every
// algorithm honors cancellation, context deadlines and Options.MaxDuration
// by returning its best-so-far result with Result.StopReason set (see
// AdaAlgCtx).
func RunCtx(ctx context.Context, alg Algorithm, g *graph.Graph, opts Options) (*Result, error) {
	switch alg {
	case AlgAdaAlg:
		return AdaAlgCtx(ctx, g, opts)
	case AlgHEDGE:
		return HEDGECtx(ctx, g, opts)
	case AlgCentRa:
		return CentRaCtx(ctx, g, opts)
	case AlgEXHAUST:
		return EXHAUSTCtx(ctx, g, opts)
	case AlgPairSampling:
		return PairSamplingCtx(ctx, g, opts)
	case AlgBudgeted:
		return BudgetedGBCCtx(ctx, g, BudgetedOptions{
			Costs: opts.Costs, Budget: opts.Budget,
			Epsilon: opts.Epsilon, Gamma: opts.Gamma, Seed: opts.Seed,
			MaxSamples: opts.MaxSamples, MaxDuration: opts.MaxDuration,
			Workers: opts.Workers, Metrics: opts.Metrics,
			SamplerSet: opts.SamplerSet,
		})
	}
	return nil, fmt.Errorf("core: unknown algorithm %v", alg)
}
