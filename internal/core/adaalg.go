package core

import (
	"context"
	"math"
	"time"

	"gbc/internal/graph"
	"gbc/internal/sampling"
	"gbc/internal/xrand"
)

// newSamplerSet builds the sampler set an algorithm run draws from,
// honoring the ablation switches and the per-run sampler hook in opts
// (Options.SamplerSet replaced the former package-level hook so concurrent
// runs with different sampler configurations cannot race), and wires the
// run's observability sinks into the set. label names the set in growth
// events ("S" for the optimization set, "T" for AdaAlg's validation set).
func newSamplerSet(g *graph.Graph, opts Options, r *xrand.Rand, label string) *sampling.Set {
	var set *sampling.Set
	switch {
	case opts.SamplerSet != nil:
		set = opts.SamplerSet(g, r)
	case g.Weighted():
		set = sampling.NewWeightedSet(g, r)
	case opts.UseForwardSampler:
		set = sampling.NewForwardSet(g, r)
	default:
		set = sampling.NewBidirectionalSet(g, r)
	}
	set.Workers = opts.Workers
	set.Label = label
	set.Metrics = opts.Metrics
	if opts.Observer != nil {
		set.Observer = opts.Observer
	}
	return set
}

// AdaAlg runs Algorithm 1 of the paper: the adaptive sampling algorithm for
// the top-K group betweenness centrality problem. It returns a group that
// is a (1-1/e-ε)-approximation with probability at least 1-γ.
// AdaAlg is AdaAlgCtx with a background context.
func AdaAlg(g *graph.Graph, opts Options) (*Result, error) {
	return AdaAlgCtx(context.Background(), g, opts)
}

// AdaAlgCtx runs Algorithm 1 under a context.
//
// The algorithm keeps two independently grown sample sets of shortest
// paths: S, on which the greedy max-coverage group C_q and its biased
// estimate B̂(C_q) are computed, and T, which yields the unbiased estimate
// B̄(C_q). Over iterations q = 1..Qmax the guess g_q = n(n-1)/b^q of the
// optimum decreases geometrically while both sets grow to L_q = θ·b^q.
// A counter cnt tracks how often the event B̄(C_q) >= g_q has occurred; from
// cnt >= 2 on, the error split ε₁ (Eq. 10) and the observed relative error
// β between the two estimates are combined into ε_sum (Ineq. 11), and the
// algorithm stops as soon as ε_sum <= ε.
//
// The grow → greedy → validate cadence runs on the flat coverage engine:
// growth appends into S's and T's arenas and commits the inverted index
// once per growth (on stored samples it only moves the length cursor),
// the per-iteration Greedy on S is a lazy (CELF) greedy that scans only
// the rows of the candidates it evaluates, seeded from an order of the
// nodes by stored row length that is sorted once per index state, and the
// CoveredBy behind T's B̄ estimate is allocation-free — so the hot loop's
// cost is sampling and coverage arithmetic, not allocator and GC work.
//
// Cancelling ctx, or exceeding its deadline or Options.MaxDuration, does
// not produce an error: the best group found so far is returned with
// Converged == false and Result.StopReason saying what happened.
// Cancellation is checked between outer iterations and every few thousand
// samples inside one, so even a single huge L_q round stops promptly. A
// panic in a sampling worker goroutine is recovered and returned as an
// error instead of crashing the process.
func AdaAlgCtx(ctx context.Context, g *graph.Graph, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	if err := opts.validate(g); err != nil {
		return nil, err
	}
	ctx, cancel := withMaxDuration(ctx, opts.MaxDuration)
	defer cancel()
	start := time.Now()
	opts.Metrics.RunStarted()
	defer opts.Metrics.RunDone()
	r := opts.rng()
	n := float64(g.N())
	nn := n * (n - 1)

	b := opts.FixedBase
	if b == 0 {
		b = BaseB(opts.Epsilon, opts.MinBase)
	}
	qMax := int(math.Ceil(math.Log(nn) / math.Log(b)))
	if qMax < 1 {
		qMax = 1
	}
	theta := Theta(opts.Epsilon, opts.Gamma, qMax)

	// Independent streams for S and T: the unbiasedness of B̄ requires that
	// T is independent of the group chosen from S.
	setS := newSamplerSet(g, opts, r.Split(), "S")
	setT := newSamplerSet(g, opts, r.Split(), "T")

	res := &Result{Base: b, Theta: theta}
	// done finalizes res and fires the observer's OnDone — the single exit
	// point of every successful (or gracefully interrupted) return.
	done := func() (*Result, error) {
		res.SamplesS = setS.Len()
		res.SamplesT = setT.Len()
		res.Samples = res.SamplesS + res.SamplesT
		res.NormalizedEstimate = res.Estimate / nn
		res.Elapsed = time.Since(start)
		if err := emitDone(opts.Observer, "AdaAlg", res); err != nil {
			return nil, err
		}
		return res, nil
	}
	// interrupted absorbs a cancellation/deadline from a growth call into a
	// graceful partial result, salvaging a best-so-far group from whatever
	// samples were committed if no iteration completed yet. Worker panics —
	// and observer panics, which arrive as *obs.ObserverPanicError — pass
	// through as errors.
	interrupted := func(err error) (*Result, error) {
		reason, ok := stopReasonFor(err)
		if !ok {
			return nil, err
		}
		if res.Group == nil && setS.Len() > 0 {
			group, covered := setS.Greedy(opts.K)
			res.Group = group
			res.BiasedEstimate = setS.Estimate(covered)
			if setT.Len() > 0 {
				res.Estimate = setT.EstimateGroup(group)
			} else {
				res.Estimate = res.BiasedEstimate
			}
		}
		res.StopReason = reason
		return done()
	}

	cnt := 0
	res.StopReason = StopIterationsExhausted
	for q := 1; q <= qMax; q++ {
		guess := nn / math.Pow(b, float64(q))
		lq := int(math.Ceil(theta * math.Pow(b, float64(q))))
		if opts.MaxSamples > 0 && 2*lq > opts.MaxSamples {
			// Cap reached; fall through with the best group so far.
			res.StopReason = StopSampleCap
			break
		}
		if err := setS.GrowToCtx(ctx, lq); err != nil {
			return interrupted(err)
		}
		group, covered := setS.Greedy(opts.K)
		biased := setS.Estimate(covered)
		if err := setT.GrowToCtx(ctx, lq); err != nil {
			return interrupted(err)
		}
		unbiased := setT.EstimateGroup(group)

		res.Group = group
		res.Estimate = unbiased
		res.BiasedEstimate = biased
		res.Iterations = q

		if unbiased >= guess {
			cnt++
		}
		var beta, eps1, epsSum float64
		if cnt >= 2 {
			eps1 = Epsilon1(opts.Gamma, theta, b, cnt)
			if biased > 0 {
				beta = 1 - unbiased/biased
			}
			epsSum = EpsilonSum(beta, eps1)
		}
		if opts.CollectTrace {
			res.Trace = append(res.Trace, Iteration{
				Q: q, Guess: guess, L: lq, Biased: biased, Unbiased: unbiased,
				Cnt: cnt, Beta: beta, Epsilon1: eps1, EpsilonSum: epsSum,
				Group: append([]int32(nil), group...),
			})
		}
		opts.Metrics.SetIteration(q, guess, epsSum)
		if err := emitIteration(opts.Observer, "AdaAlg", Iteration{
			Q: q, Guess: guess, L: lq, Biased: biased, Unbiased: unbiased,
			Cnt: cnt, Beta: beta, Epsilon1: eps1, EpsilonSum: epsSum,
			Group: group,
		}); err != nil {
			return nil, err
		}
		if cnt >= 2 {
			res.Cnt = cnt
			res.Beta = beta
			res.Epsilon1 = eps1
			res.EpsilonSum = epsSum
			if epsSum <= opts.Epsilon {
				res.Converged = true
				res.StopReason = StopConverged
				break
			}
		}
	}
	return done()
}
