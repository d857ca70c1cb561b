package wire

import (
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"gbc/internal/core"
)

func sampleResult() *core.Result {
	return &core.Result{
		Group:              []int32{4, 1, 7},
		Estimate:           123.5,
		NormalizedEstimate: 0.0125,
		BiasedEstimate:     130.25,
		Samples:            4200,
		SamplesS:           2100,
		SamplesT:           2100,
		Iterations:         3,
		Converged:          true,
		StopReason:         core.StopConverged,
		Elapsed:            1500 * time.Microsecond,
		Trace: []core.Iteration{
			{Q: 1, Guess: 512, L: 100, Biased: 120, Unbiased: 118, Cnt: 2, EpsilonSum: 0.1},
			{Q: 2, Guess: 256, L: 200, Biased: 125, Unbiased: math.NaN(), Cnt: 3, EpsilonSum: 0.2},
		},
	}
}

func TestRoundTrip(t *testing.T) {
	w := FromResult(core.AlgAdaAlg, 3, sampleResult(), nil)
	data, err := json.Marshal(w)
	if err != nil {
		t.Fatal(err)
	}
	var back Result
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(w, back) {
		t.Fatalf("round trip mismatch:\n  in:  %+v\n  out: %+v", w, back)
	}
}

// TestStableFieldNames pins the wire field names — the API commitment. A
// failure here means a rename or removal, which is a breaking change.
func TestStableFieldNames(t *testing.T) {
	w := FromResult(core.AlgHEDGE, 3, sampleResult(), nil)
	data, err := json.Marshal(w)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		"algorithm", "k", "group", "estimate", "normalizedEstimate",
		"biasedEstimate", "samples", "samplesOptimize", "samplesValidate",
		"iterations", "converged", "partial", "stopReason", "elapsedMillis",
		"samplingMode", "trace",
	} {
		if _, ok := m[key]; !ok {
			t.Errorf("wire key %q missing from %s", key, data)
		}
	}
	if m["algorithm"] != "HEDGE" {
		t.Errorf("algorithm must travel as its name, got %v", m["algorithm"])
	}
	if m["stopReason"] != "Converged" {
		t.Errorf("stopReason must travel as its name, got %v", m["stopReason"])
	}
	if m["samplingMode"] != "deterministic" {
		t.Errorf("samplingMode must read deterministic, got %v", m["samplingMode"])
	}
}

// TestNaNUnbiasedOmitted: single-set algorithms record NaN for the missing
// validation estimate; JSON has no NaN, so the entry must omit the field
// instead of failing to encode.
func TestNaNUnbiasedOmitted(t *testing.T) {
	w := FromResult(core.AlgCentRa, 3, sampleResult(), nil)
	if w.Trace[0].Unbiased == nil || *w.Trace[0].Unbiased != 118 {
		t.Fatalf("finite unbiased estimate lost: %+v", w.Trace[0])
	}
	if w.Trace[1].Unbiased != nil {
		t.Fatalf("NaN unbiased estimate must be omitted: %+v", w.Trace[1])
	}
	data, err := json.Marshal(w)
	if err != nil {
		t.Fatalf("trace with NaN must still encode: %v", err)
	}
	if strings.Contains(string(data), "NaN") {
		t.Fatalf("NaN leaked into wire output: %s", data)
	}
}

func TestEmptyGroupMarshalsAsArray(t *testing.T) {
	res := sampleResult()
	res.Group = nil
	w := FromResult(core.AlgAdaAlg, 3, res, nil)
	data, err := json.Marshal(w)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"group":[]`) {
		t.Fatalf("empty group must marshal as [], got %s", data)
	}
}

func TestLabelHook(t *testing.T) {
	w := FromResult(core.AlgAdaAlg, 3, sampleResult(), func(v int32) int64 {
		return int64(v) * 10
	})
	if !reflect.DeepEqual(w.Group, []int64{40, 10, 70}) {
		t.Fatalf("label hook not applied: %v", w.Group)
	}
}

func TestPartialComplementConverged(t *testing.T) {
	res := sampleResult()
	res.Converged = false
	res.StopReason = core.StopDeadline
	w := FromResult(core.AlgAdaAlg, 3, res, nil)
	if !w.Partial || w.Converged {
		t.Fatalf("deadline stop must be partial: %+v", w)
	}
	var m map[string]any
	data, _ := json.Marshal(w)
	json.Unmarshal(data, &m)
	if m["stopReason"] != "Deadline" {
		t.Fatalf("stop reason name wrong: %v", m["stopReason"])
	}
}

func TestUnmarshalRejectsUnknownEnums(t *testing.T) {
	var r Result
	if err := json.Unmarshal([]byte(`{"algorithm":"NotAnAlg"}`), &r); err == nil {
		t.Fatal("unknown algorithm name must fail to decode")
	}
	if err := json.Unmarshal([]byte(`{"stopReason":"NotAReason"}`), &r); err == nil {
		t.Fatal("unknown stop reason name must fail to decode")
	}
}
