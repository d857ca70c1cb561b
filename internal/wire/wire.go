// Package wire defines the stable JSON encoding of a solver result — the
// one shape shared verbatim by `cmd/gbc -json` output and the gbcd server's
// /v1/topk responses. Field names and meanings are an API commitment:
// additions are allowed, renames and removals are not. Enumerations
// (algorithm, stop reason) travel as their String names via the core
// types' TextMarshaler implementations, so a payload reads the same in a
// shell pipeline and in a typed client.
//
// The server's response envelope around a Result (graph name,
// graphVersion, servedFrom, timeoutMillis) is internal/server's to
// evolve; only the "result" object inside it is this package's frozen
// shape. Cached and coalesced responses reuse a previous run's Result
// verbatim, which is sound exactly because this encoding carries no
// per-request state.
package wire

import (
	"encoding/json"
	"math"

	"gbc/internal/core"
)

// Result is the wire form of a core.Result plus the identifying run
// parameters a consumer needs to interpret it.
type Result struct {
	// Algorithm is the algorithm that produced the result ("AdaAlg", …).
	Algorithm core.Algorithm `json:"algorithm"`
	// K is the requested group size (0 for budgeted runs, which are bounded
	// by cost instead).
	K int `json:"k"`
	// Group is the chosen group in greedy selection order. Node ids are
	// dense by default; FromResult's label hook substitutes original labels.
	Group []int64 `json:"group"`
	// Estimate is the centrality estimate B(C) of Group; Normalized is
	// Estimate / (n(n-1)); Biased is the optimization-set estimate B̂(C).
	Estimate           float64 `json:"estimate"`
	NormalizedEstimate float64 `json:"normalizedEstimate"`
	BiasedEstimate     float64 `json:"biasedEstimate"`
	// Samples counts all sampled paths; Optimize/Validate split it into the
	// S and T sets (Validate is 0 for single-set algorithms).
	Samples         int `json:"samples"`
	SamplesOptimize int `json:"samplesOptimize"`
	SamplesValidate int `json:"samplesValidate"`
	// Iterations is the number of outer iterations executed.
	Iterations int `json:"iterations"`
	// Converged reports the algorithm stopped by its own rule; Partial is
	// its complement (deadline, cancellation, sample cap, exhausted
	// iterations — the group is best-so-far without the (1-1/e-ε)
	// guarantee) and StopReason names the exact cause.
	Converged  bool            `json:"converged"`
	Partial    bool            `json:"partial"`
	StopReason core.StopReason `json:"stopReason"`
	// ElapsedMillis is the solver's wall-clock time in milliseconds.
	ElapsedMillis float64 `json:"elapsedMillis"`
	// SamplingMode names the growth execution mode of the run. It is
	// always "deterministic": a run is bit-reproducible for a given (graph,
	// algorithm, k, seed) at any worker count. The key is frozen, so it
	// stays although "deterministic" is the only mode left.
	SamplingMode string `json:"samplingMode"`
	// Trace summarizes the outer iterations when the run collected one.
	Trace []TraceEntry `json:"trace,omitempty"`
}

// TraceEntry is the wire summary of one outer iteration.
type TraceEntry struct {
	Q     int     `json:"q"`
	Guess float64 `json:"guess"`
	L     int     `json:"l"`
	// Biased is B̂ on the optimization set; Unbiased is B̄ on the validation
	// set and is omitted by algorithms that keep no validation set.
	Biased     float64  `json:"biased"`
	Unbiased   *float64 `json:"unbiased,omitempty"`
	Cnt        int      `json:"cnt"`
	EpsilonSum float64  `json:"epsilonSum"`
}

// resultAlias strips Result's methods so the Marshal/Unmarshal pair below
// can delegate to encoding/json without recursing.
type resultAlias Result

// MarshalJSON freezes the wire encoding of Result: exactly the struct's
// tagged fields, in declared order. It exists so the encoding is an
// explicit API surface with a round-trip contract rather than an accident
// of the struct layout.
func (r Result) MarshalJSON() ([]byte, error) { return json.Marshal(resultAlias(r)) }

// UnmarshalJSON is the inverse of MarshalJSON: unmarshal(marshal(r))
// reproduces r field for field (enumerations round-trip through their
// names).
func (r *Result) UnmarshalJSON(data []byte) error { return json.Unmarshal(data, (*resultAlias)(r)) }

// FromResult converts a solver result into its wire form. alg and k echo
// the run's request parameters. label, when non-nil, maps dense node ids to
// the caller's original labels (the CLI's -labels flag); nil keeps dense
// ids. The Group field is always non-nil so an empty group marshals as []
// rather than null.
func FromResult(alg core.Algorithm, k int, res *core.Result, label func(int32) int64) Result {
	group := make([]int64, 0, len(res.Group))
	for _, v := range res.Group {
		if label != nil {
			group = append(group, label(v))
		} else {
			group = append(group, int64(v))
		}
	}
	w := Result{
		Algorithm:          alg,
		K:                  k,
		Group:              group,
		Estimate:           res.Estimate,
		NormalizedEstimate: res.NormalizedEstimate,
		BiasedEstimate:     res.BiasedEstimate,
		Samples:            res.Samples,
		SamplesOptimize:    res.SamplesS,
		SamplesValidate:    res.SamplesT,
		Iterations:         res.Iterations,
		Converged:          res.Converged,
		Partial:            res.StopReason != core.StopConverged,
		StopReason:         res.StopReason,
		ElapsedMillis:      float64(res.Elapsed.Microseconds()) / 1000,
		SamplingMode:       "deterministic",
	}
	for _, it := range res.Trace {
		e := TraceEntry{
			Q: it.Q, Guess: it.Guess, L: it.L, Biased: it.Biased,
			Cnt: it.Cnt, EpsilonSum: it.EpsilonSum,
		}
		// Single-set algorithms record NaN for the missing validation
		// estimate; JSON has no NaN, so the field is omitted instead.
		if !math.IsNaN(it.Unbiased) {
			u := it.Unbiased
			e.Unbiased = &u
		}
		w.Trace = append(w.Trace, e)
	}
	return w
}
