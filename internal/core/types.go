// Package core implements the paper's contribution and its baselines:
//
//   - AdaAlg — Algorithm 1, the adaptive sampling algorithm for top-K group
//     betweenness centrality with a (1-1/e-ε)-approximation guarantee at
//     success probability 1-γ.
//   - HEDGE — Mahmoody, Tsourakakis, Upfal (KDD 2016), sample count
//     Θ((K·log n + log(1/γ))/(ε²·μ_opt)).
//   - CentRa — Pellegrina (KDD 2023), sample count
//     Θ((K·log K + log(1/γ))/(ε²·μ_opt)) (the form quoted in §VI of the
//     paper).
//   - EXHAUST — HEDGE with a tiny error ratio, the paper's near-ground-truth
//     reference.
//
// All three sampling baselines share the unknown-optimum guess-halving
// harness; AdaAlg follows the paper's equations exactly (base b from
// Eq. 12/13, θ and L_q from Eq. 7, ε₁ from Eq. 10 and the ε_sum stopping
// rule from Ineq. 11).
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"gbc/internal/graph"
	"gbc/internal/obs"
	"gbc/internal/sampling"
	"gbc/internal/xrand"
)

// E is the base of the natural logarithm; 1-1/e is the greedy guarantee.
const invE = 1 / math.E

// Options configures a top-K GBC computation.
type Options struct {
	// Algorithm selects the algorithm Solve runs. The zero value is
	// AlgAdaAlg, the paper's adaptive algorithm.
	Algorithm Algorithm
	// K is the group size to find. Required, 1 <= K <= n.
	K int
	// Epsilon is the error ratio ε, 0 < ε < 1-1/e. Default 0.3.
	Epsilon float64
	// Gamma is the failure probability γ in (0, 1). Default 0.01.
	Gamma float64
	// Seed seeds the deterministic RNG. Default 1. Ignored if Rand is set.
	Seed uint64
	// Rand supplies randomness explicitly (overrides Seed).
	Rand *xrand.Rand

	// MinBase is b_min of Eq. 13 (default 1.1). AdaAlg only.
	MinBase float64
	// FixedBase, when > 1, overrides the base chosen by Eq. 13 — used by
	// the base-choice ablation. AdaAlg only.
	FixedBase float64
	// UseForwardSampler swaps the balanced bidirectional path sampler for
	// the plain truncated forward-BFS sampler — used by the sampler-cost
	// ablation.
	UseForwardSampler bool
	// MaxSamples caps the total number of sampled paths (0 = no cap). When
	// the cap is hit the current best group is returned with
	// Converged == false and StopReason == StopSampleCap.
	MaxSamples int
	// MaxDuration bounds the wall-clock time of the run (0 = no bound).
	// When it expires the best group found so far is returned with
	// Converged == false and StopReason == StopDeadline. Equivalent to
	// passing a context with that deadline to the *Ctx entry point.
	MaxDuration time.Duration
	// CollectTrace records per-iteration statistics in Result.Trace.
	CollectTrace bool
	// Workers sets the number of goroutines used to draw samples (< 2 =
	// sequential). Results are identical for any worker count: each sample
	// index has its own deterministic RNG stream.
	Workers int

	// Observer, when non-nil, receives progress callbacks on the run's
	// coordinating goroutine: OnGrowth after every committed sample chunk,
	// OnIteration after every outer iteration, OnDone once at the end.
	// Callback boundaries are deterministic, so an observed run computes
	// bit-identical results to an unobserved one for any Workers value. A
	// panicking Observer aborts the run with an *obs.ObserverPanicError.
	// Each run reads its own Options.Observer — unlike the former global
	// hook, concurrent runs with different observers never interact.
	Observer obs.Observer
	// Metrics, when non-nil, receives atomic counter and gauge updates
	// (samples drawn, arena bytes, busy sampling lanes, adaptive-loop state)
	// from the run's hot paths. Several concurrent runs may share one
	// Metrics; a nil Metrics costs only nil checks.
	Metrics *obs.Metrics
	// SamplerSet, when non-nil, replaces the sampler-set construction of
	// the run — the ablation/test hook for injecting custom samplers (e.g.
	// faulty ones to exercise worker-panic recovery). It is consulted
	// before the weighted/forward/bidirectional choice. Per-Options rather
	// than a package global, so concurrent runs with different sampler
	// configurations cannot race.
	SamplerSet func(*graph.Graph, *xrand.Rand) *sampling.Set

	// Costs and Budget configure the budgeted generalization of top-K GBC
	// (Fink & Spoerhase) selected by Algorithm == AlgBudgeted: Costs[v] is
	// the positive cost of selecting node v (length n) and Budget is the
	// total cost allowed; K is ignored. Both are ignored by every other
	// algorithm.
	Costs  []float64
	Budget float64
}

func (o Options) withDefaults() Options {
	if o.Epsilon == 0 {
		o.Epsilon = 0.3
	}
	if o.Gamma == 0 {
		o.Gamma = 0.01
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.MinBase == 0 {
		o.MinBase = 1.1
	}
	return o
}

// OptionError reports one invalid Options field. Every entry point —
// library, CLI and server — rejects a bad configuration with the same typed
// error, so a caller can match on the field programmatically (errors.As)
// while the message stays identical across surfaces.
type OptionError struct {
	// Field is the Options field name, e.g. "K" or "Epsilon".
	Field string
	// Value is the rejected value.
	Value any
	// Reason says what constraint the value violated.
	Reason string
}

func (e *OptionError) Error() string {
	return fmt.Sprintf("gbc: invalid option %s = %v (%s)", e.Field, e.Value, e.Reason)
}

func optErr(field string, value any, reason string) *OptionError {
	return &OptionError{Field: field, Value: value, Reason: reason}
}

// Validate checks every graph-independent constraint on o and returns a
// typed *OptionError for the first violation, or nil. Zero values that have
// defaults (Epsilon, Gamma, Seed, MinBase) validate as those defaults, so a
// partially filled Options that Solve would accept also passes Validate.
// Solve calls it first; the CLI and the server call it before queueing work
// so a bad request fails fast with the same message everywhere. Constraints
// that need the graph — K ≤ n, len(Costs) == n — are checked by Solve once
// the graph is known.
func (o Options) Validate() error {
	o = o.withDefaults()
	if o.Algorithm < AlgAdaAlg || o.Algorithm > AlgBudgeted {
		return optErr("Algorithm", int(o.Algorithm), "unknown algorithm")
	}
	if o.Algorithm != AlgBudgeted && o.K < 1 {
		return optErr("K", o.K, "group size must be at least 1")
	}
	if !(o.Epsilon > 0 && o.Epsilon < 1-invE) {
		return optErr("Epsilon", o.Epsilon, "error ratio must be in (0, 1-1/e)")
	}
	if !(o.Gamma > 0 && o.Gamma < 1) {
		return optErr("Gamma", o.Gamma, "failure probability must be in (0, 1)")
	}
	if o.FixedBase != 0 && !(o.FixedBase > 1) {
		return optErr("FixedBase", o.FixedBase, "base override must exceed 1")
	}
	if o.Workers < 0 {
		return optErr("Workers", o.Workers, "worker count cannot be negative")
	}
	if o.MaxSamples < 0 {
		return optErr("MaxSamples", o.MaxSamples, "sample cap cannot be negative")
	}
	if o.MaxDuration < 0 {
		return optErr("MaxDuration", o.MaxDuration, "duration bound cannot be negative")
	}
	if o.Algorithm == AlgBudgeted {
		if !(o.Budget > 0) {
			return optErr("Budget", o.Budget, "budget must be positive")
		}
		if len(o.Costs) == 0 {
			return optErr("Costs", nil, "budgeted runs need per-node costs")
		}
		for v, c := range o.Costs {
			if !(c > 0) {
				return optErr("Costs", c, fmt.Sprintf("node %d needs a positive cost", v))
			}
		}
	}
	return nil
}

func (o Options) validate(g *graph.Graph) error {
	if g == nil {
		return fmt.Errorf("core: nil graph")
	}
	if g.N() < 2 {
		return fmt.Errorf("core: graph needs at least 2 nodes, has %d", g.N())
	}
	if err := o.Validate(); err != nil {
		return err
	}
	if o.Algorithm != AlgBudgeted && o.K > g.N() {
		return optErr("K", o.K, fmt.Sprintf("group size out of range [1, %d]", g.N()))
	}
	if o.Algorithm == AlgBudgeted && len(o.Costs) != g.N() {
		return optErr("Costs", len(o.Costs), fmt.Sprintf("need one cost per node (n = %d)", g.N()))
	}
	return nil
}

// withMaxDuration layers Options.MaxDuration onto ctx as a deadline. The
// returned cancel func must be called to release the timer.
func withMaxDuration(ctx context.Context, d time.Duration) (context.Context, context.CancelFunc) {
	if d <= 0 {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, d)
}

// stopReasonFor classifies an error from a cancelled growth: context
// cancellation and deadline expiry map to a StopReason (ok true) and are
// absorbed into a graceful partial result; anything else — in practice a
// recovered worker panic — is a real error the caller must surface.
func stopReasonFor(err error) (StopReason, bool) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return StopDeadline, true
	case errors.Is(err, context.Canceled):
		return StopCancelled, true
	}
	return StopNone, false
}

func (o Options) rng() *xrand.Rand {
	if o.Rand != nil {
		return o.Rand
	}
	return xrand.New(o.Seed)
}

// Iteration records the state of one outer iteration (for traces/figures).
type Iteration struct {
	Q          int     // iteration number, 1-based
	Guess      float64 // g_q
	L          int     // samples per set after this iteration
	Biased     float64 // B̂_{L_q}(C_q)
	Unbiased   float64 // B̄_{L_q}(C_q)
	Cnt        int     // counter value after this iteration
	Beta       float64 // relative error β
	Epsilon1   float64 // ε₁ (0 when cnt < 2)
	EpsilonSum float64 // ε_sum (0 when cnt < 2)
	Group      []int32 // the group selected in this iteration
}

// StopReason states why a run returned when it did. Any reason other than
// StopConverged means the algorithm's own stopping rule had not yet fired:
// the result is the best group found so far but carries no (1-1/e-ε)
// guarantee.
type StopReason int

const (
	// StopNone is the zero value: the run has not stopped (never set on a
	// returned Result).
	StopNone StopReason = iota
	// StopConverged: the algorithm's stopping rule fired; the approximation
	// guarantee holds with probability 1-γ.
	StopConverged
	// StopSampleCap: Options.MaxSamples was reached first.
	StopSampleCap
	// StopDeadline: Options.MaxDuration or the context deadline expired.
	StopDeadline
	// StopCancelled: the context was cancelled.
	StopCancelled
	// StopIterationsExhausted: every outer iteration ran without the
	// stopping rule firing (possible only on pathological inputs — the
	// guess g_q eventually falls below any positive optimum).
	StopIterationsExhausted
)

// String returns the reason name as used in Result reports.
func (s StopReason) String() string {
	switch s {
	case StopNone:
		return "None"
	case StopConverged:
		return "Converged"
	case StopSampleCap:
		return "SampleCap"
	case StopDeadline:
		return "Deadline"
	case StopCancelled:
		return "Cancelled"
	case StopIterationsExhausted:
		return "IterationsExhausted"
	}
	return fmt.Sprintf("StopReason(%d)", int(s))
}

// MarshalText encodes the reason as its String name, so JSON payloads carry
// "Converged"/"Deadline"/… instead of bare integers — the stable wire
// encoding shared by the CLI's -json output and the server.
func (s StopReason) MarshalText() ([]byte, error) {
	return []byte(s.String()), nil
}

// UnmarshalText parses the String name back; see ParseStopReason.
func (s *StopReason) UnmarshalText(text []byte) error {
	r, err := ParseStopReason(string(text))
	if err != nil {
		return err
	}
	*s = r
	return nil
}

// ParseStopReason resolves a StopReason name as produced by String.
func ParseStopReason(name string) (StopReason, error) {
	for r := StopNone; r <= StopIterationsExhausted; r++ {
		if r.String() == name {
			return r, nil
		}
	}
	return 0, fmt.Errorf("core: unknown stop reason %q", name)
}

// Result is the outcome of a top-K GBC computation.
type Result struct {
	// Group holds the K chosen nodes in greedy selection order, so its
	// length-k prefix is exactly the group the same run would return for a
	// smaller budget k — one run yields the whole nested chain of groups.
	Group []int32
	// Estimate is the algorithm's centrality estimate for Group: the
	// unbiased estimate for AdaAlg, the biased greedy estimate for the
	// single-set baselines.
	Estimate float64
	// NormalizedEstimate is Estimate / (n(n-1)).
	NormalizedEstimate float64
	// BiasedEstimate is B̂(C) from the optimization set.
	BiasedEstimate float64

	// SamplesS and SamplesT count the sampled paths in the optimization
	// and validation sets (SamplesT is 0 for the baselines); Samples is
	// their sum — the quantity plotted in Figs. 4 and 5.
	SamplesS, SamplesT, Samples int

	// Iterations is the number of outer iterations executed.
	Iterations int
	// Cnt is AdaAlg's final event counter (0 for baselines).
	Cnt int
	// Beta, Epsilon1, EpsilonSum are AdaAlg's final stopping quantities.
	Beta, Epsilon1, EpsilonSum float64
	// Base and Theta are AdaAlg's b (Eq. 13) and θ constants.
	Base, Theta float64

	// Converged reports whether the algorithm stopped by its own rule
	// rather than exhausting iterations, hitting MaxSamples, or being
	// cancelled. Equivalent to StopReason == StopConverged.
	Converged bool
	// StopReason states why the run returned: converged, sample cap,
	// deadline, cancellation, or exhausted iterations.
	StopReason StopReason
	// Elapsed is the wall-clock duration of the run.
	Elapsed time.Duration
	// Trace holds per-iteration statistics when Options.CollectTrace.
	Trace []Iteration
}

// Alpha returns α = ε/(2-1/e) (Section IV).
func Alpha(epsilon float64) float64 { return epsilon / (2 - invE) }

// BaseB returns the base b of Eq. (13): max(b', minBase) with b' from
// Eq. (12), where c₂ = (2+α)/α².
func BaseB(epsilon, minBase float64) float64 {
	alpha := Alpha(epsilon)
	c2 := (2 + alpha) / (alpha * alpha)
	bPrime := (3*c2 + 2 + math.Sqrt(18*c2+4)) / (3*c2 - 2)
	return math.Max(bPrime, minBase)
}

// Theta returns θ = (ln(2/γ) + ln Qmax)·(2+α)/α² (Section IV-A).
func Theta(epsilon, gamma float64, qMax int) float64 {
	alpha := Alpha(epsilon)
	return (math.Log(2/gamma) + math.Log(float64(qMax))) * (2 + alpha) / (alpha * alpha)
}

// Epsilon1 returns ε₁ of Eq. (10) for c₁ = ln(4/γ)/(θ·b^(cnt-2)): the
// positive root of x²/(2+2x/3) = c₁.
func Epsilon1(gamma, theta, b float64, cnt int) float64 {
	c1 := math.Log(4/gamma) / (theta * math.Pow(b, float64(cnt-2)))
	return (2*c1/3 + math.Sqrt(4*c1*c1/9+8*c1)) / 2
}

// EpsilonSum returns ε_sum = β(1-1/e)(1-ε₁) + (2-1/e)ε₁ (Ineq. 11).
func EpsilonSum(beta, eps1 float64) float64 {
	return beta*(1-invE)*(1-eps1) + (2-invE)*eps1
}
