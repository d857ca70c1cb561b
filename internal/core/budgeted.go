package core

import (
	"context"
	"fmt"
	"math"
	"time"

	"gbc/internal/graph"
	"gbc/internal/obs"
	"gbc/internal/sampling"
	"gbc/internal/xrand"
)

// BudgetedOptions configures BudgetedGBC.
type BudgetedOptions struct {
	// Costs[v] is the (positive) cost of selecting node v.
	Costs []float64
	// Budget is the total cost allowed.
	Budget float64
	// Epsilon, Gamma, Seed as in Options (same defaults).
	Epsilon float64
	Gamma   float64
	Seed    uint64
	// MaxSamples caps the sample count (0 = no cap).
	MaxSamples int
	// MaxDuration bounds the wall-clock time of the run (0 = no bound), as
	// in Options.MaxDuration.
	MaxDuration time.Duration
	// Workers sets the sampling goroutine count, as in Options.Workers.
	Workers int
	// Metrics, when non-nil, receives counter updates as in Options.Metrics.
	Metrics *obs.Metrics
	// SamplerSet, when non-nil, replaces the default sampler-set
	// construction, as in Options.SamplerSet. The hook must return a set
	// whose sample distribution matches sampling.NewSetFor for the
	// guarantee to hold.
	SamplerSet func(*graph.Graph, *xrand.Rand) *sampling.Set
}

// BudgetedGBC solves the budgeted generalization of the top-K GBC problem
// (Fink & Spoerhase, the paper's related work [10]): find a group whose
// total node cost respects Budget and whose group betweenness centrality is
// as large as possible. Sampling follows the HEDGE-style static bound with
// the effective group cardinality K̂ = min(n, ⌊Budget/min cost⌋); on the
// samples a Khuller-Moss-Naor cost-benefit greedy picks the group. The
// greedy's max-coverage guarantee is (1-1/e)/2, so the end-to-end guarantee
// is correspondingly weaker than AdaAlg's — this is an extension, not part
// of the paper's Algorithm 1.
func BudgetedGBC(g *graph.Graph, opts BudgetedOptions) (*Result, error) {
	return BudgetedGBCCtx(context.Background(), g, opts)
}

// BudgetedGBCCtx is BudgetedGBC under a context; see AdaAlgCtx for the
// cancellation semantics.
func BudgetedGBCCtx(ctx context.Context, g *graph.Graph, opts BudgetedOptions) (*Result, error) {
	if g == nil || g.N() < 2 {
		return nil, fmt.Errorf("core: graph needs at least 2 nodes")
	}
	if len(opts.Costs) != g.N() {
		return nil, fmt.Errorf("core: costs length %d != n %d", len(opts.Costs), g.N())
	}
	minCost := math.Inf(1)
	for v, c := range opts.Costs {
		if c <= 0 {
			return nil, fmt.Errorf("core: node %d has non-positive cost %g", v, c)
		}
		if c < minCost {
			minCost = c
		}
	}
	if opts.Budget < minCost {
		return nil, fmt.Errorf("core: budget %g cannot afford any node (min cost %g)", opts.Budget, minCost)
	}
	if opts.Epsilon == 0 {
		opts.Epsilon = 0.3
	}
	if opts.Gamma == 0 {
		opts.Gamma = 0.01
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	if opts.Epsilon <= 0 || opts.Epsilon >= 1-invE {
		return nil, fmt.Errorf("core: epsilon %g out of (0, 1-1/e)", opts.Epsilon)
	}
	if opts.MaxDuration < 0 {
		return nil, fmt.Errorf("core: negative MaxDuration")
	}
	ctx, cancel := withMaxDuration(ctx, opts.MaxDuration)
	defer cancel()

	start := time.Now()
	opts.Metrics.RunStarted()
	defer opts.Metrics.RunDone()
	n := float64(g.N())
	nn := n * (n - 1)
	kHat := math.Min(n, math.Floor(opts.Budget/minCost))
	eps, gamma := opts.Epsilon, opts.Gamma

	r := xrand.New(opts.Seed)
	var set *sampling.Set
	if opts.SamplerSet != nil {
		set = opts.SamplerSet(g, r)
	} else {
		set = sampling.NewSetFor(g, r)
	}
	set.Workers = opts.Workers
	set.Label = "S"
	set.Metrics = opts.Metrics
	res := &Result{}
	finish := func() *Result {
		res.SamplesS = set.Len()
		res.Samples = res.SamplesS
		res.NormalizedEstimate = res.Estimate / nn
		res.Elapsed = time.Since(start)
		return res
	}
	salvage := func() {
		if res.Group == nil && set.Len() > 0 {
			group, covered := set.Coverage().GreedyBudgeted(opts.Costs, opts.Budget)
			res.Group = group
			res.Estimate = set.Estimate(covered)
			res.BiasedEstimate = res.Estimate
		}
	}
	interrupted := func(err error) (*Result, error) {
		reason, ok := stopReasonFor(err)
		if !ok {
			return nil, err
		}
		salvage()
		res.StopReason = reason
		return finish(), nil
	}

	res.StopReason = StopIterationsExhausted
	qMax := int(math.Ceil(math.Log2(nn))) + 1
	for q := 1; q <= qMax; q++ {
		guess := nn / math.Pow(2, float64(q))
		lq := int(math.Ceil((kHat*math.Log(n) + math.Log(2/gamma)) * (2 + eps) / (eps * eps) * nn / guess))
		if opts.MaxSamples > 0 && lq > opts.MaxSamples {
			res.StopReason = StopSampleCap
			break
		}
		if err := set.GrowToCtx(ctx, lq); err != nil {
			return interrupted(err)
		}
		group, covered := set.Coverage().GreedyBudgeted(opts.Costs, opts.Budget)
		biased := set.Estimate(covered)

		res.Group = group
		res.Estimate = biased
		res.BiasedEstimate = biased
		res.Iterations = q
		if biased >= guess {
			res.Converged = true
			res.StopReason = StopConverged
			break
		}
	}
	if res.Group == nil && opts.MaxSamples > 0 {
		if err := set.GrowToCtx(ctx, opts.MaxSamples); err != nil {
			return interrupted(err)
		}
		salvage()
	}
	return finish(), nil
}
