package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"expvar"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestNilMetricsIsSafe exercises every mutator and Snapshot on a nil
// receiver — the disabled state the hot paths thread through.
func TestNilMetricsIsSafe(t *testing.T) {
	var m *Metrics
	m.AddSamples(10, 1)
	m.SetIteration(3, 100, 0.5)
	m.IncGreedy()
	m.AddArenaBytes(1 << 20)
	m.WorkerBusy(1)
	m.RunStarted()
	m.RunDone()
	m.QueueDepth(1)
	m.IncCoalesced()
	m.RegistryHit()
	m.RegistryMiss()
	m.RegistryEviction()
	m.RequestAdmitted()
	m.RequestCompleted()
	m.RequestShed()
	m.RequestFailed()
	if s := m.Snapshot(); s != (Stats{}) {
		t.Fatalf("nil snapshot = %+v, want zero", s)
	}
}

// TestServingCounters checks the gbcd serving counters land in the
// matching Stats fields.
func TestServingCounters(t *testing.T) {
	m := &Metrics{}
	m.QueueDepth(3)
	m.QueueDepth(-1)
	m.IncCoalesced()
	m.IncCoalesced()
	m.RegistryHit()
	m.RegistryHit()
	m.RegistryHit()
	m.RegistryMiss()
	m.RegistryEviction()
	// Overload accounting: 4 admitted = 2 completed + 1 shed + 1 failed, the
	// invariant the chaos test asserts end to end.
	for i := 0; i < 4; i++ {
		m.RequestAdmitted()
	}
	m.RequestCompleted()
	m.RequestCompleted()
	m.RequestShed()
	m.RequestFailed()

	s := m.Snapshot()
	if s.QueueDepth != 2 || s.RunsCoalesced != 2 {
		t.Fatalf("queue/coalesced = %d/%d", s.QueueDepth, s.RunsCoalesced)
	}
	if s.RegistryHits != 3 || s.RegistryMisses != 1 || s.RegistryEvictions != 1 {
		t.Fatalf("registry hits/misses/evictions = %d/%d/%d",
			s.RegistryHits, s.RegistryMisses, s.RegistryEvictions)
	}
	if s.RequestsAdmitted != 4 || s.RequestsCompleted != 2 || s.RequestsShed != 1 ||
		s.RequestsFailed != 1 {
		t.Fatalf("request counters = %+v", s)
	}
	if s.RequestsAdmitted != s.RequestsCompleted+s.RequestsShed+s.RequestsFailed {
		t.Fatalf("admitted != completed + shed + failed: %+v", s)
	}

	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"queueDepth", "runsCoalesced", "registryHits",
		"registryMisses", "registryEvictions", "requestsAdmitted",
		"requestsCompleted", "requestsShed", "requestsFailed"} {
		if !strings.Contains(string(data), `"`+key+`"`) {
			t.Errorf("stats JSON missing %q: %s", key, data)
		}
	}
}

// TestMetricsRoundTrip checks each mutator lands in the matching Stats
// field, including the float gauges' bit round trip.
func TestMetricsRoundTrip(t *testing.T) {
	m := &Metrics{}
	m.AddSamples(4096, 7)
	m.AddSamples(1024, 3)
	m.SetIteration(5, 812.25, 0.3125)
	m.IncGreedy()
	m.IncGreedy()
	m.AddArenaBytes(2048)
	m.AddArenaBytes(-48)
	m.WorkerBusy(2)
	m.WorkerBusy(-1)
	m.RunStarted()

	s := m.Snapshot()
	if s.Samples != 5120 || s.NullSamples != 10 || s.Chunks != 2 {
		t.Fatalf("samples/nulls/chunks = %d/%d/%d", s.Samples, s.NullSamples, s.Chunks)
	}
	if s.Iteration != 5 || s.Guess != 812.25 || s.EpsilonSum != 0.3125 {
		t.Fatalf("iteration gauges = %d/%g/%g", s.Iteration, s.Guess, s.EpsilonSum)
	}
	if s.GreedyRuns != 2 || s.ArenaBytes != 2000 {
		t.Fatalf("greedy/arena = %d/%d", s.GreedyRuns, s.ArenaBytes)
	}
	if s.BusyWorkers != 1 || s.ActiveRuns != 1 {
		t.Fatalf("busy/active = %d/%d", s.BusyWorkers, s.ActiveRuns)
	}
	if s.SamplesPerSec <= 0 {
		t.Fatalf("samplesPerSec = %g, want > 0 after committed chunks", s.SamplesPerSec)
	}
	m.RunDone()
	if got := m.Snapshot().ActiveRuns; got != 0 {
		t.Fatalf("active runs after RunDone = %d", got)
	}
}

// TestMetricsConcurrentUpdates hammers a Metrics from many goroutines; the
// counters must add up exactly (and the race detector gets a workout).
func TestMetricsConcurrentUpdates(t *testing.T) {
	m := &Metrics{}
	var wg sync.WaitGroup
	const goroutines, rounds = 8, 1000
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < rounds; j++ {
				m.AddSamples(2, 1)
				m.IncGreedy()
				m.WorkerBusy(1)
				m.WorkerBusy(-1)
			}
		}()
	}
	wg.Wait()
	s := m.Snapshot()
	if s.Samples != 2*goroutines*rounds || s.NullSamples != goroutines*rounds {
		t.Fatalf("samples/nulls = %d/%d", s.Samples, s.NullSamples)
	}
	if s.GreedyRuns != goroutines*rounds || s.BusyWorkers != 0 {
		t.Fatalf("greedy/busy = %d/%d", s.GreedyRuns, s.BusyWorkers)
	}
}

// TestPublished pins the expvar bridge: one process-wide Metrics under the
// "gbc" key, same instance on every call, JSON-decodable snapshot.
func TestPublished(t *testing.T) {
	m := Published()
	if m == nil || Published() != m {
		t.Fatal("Published must return one stable instance")
	}
	v := expvar.Get("gbc")
	if v == nil {
		t.Fatal("expvar var \"gbc\" not registered")
	}
	before := m.Snapshot().Samples
	m.AddSamples(123, 0)
	var s Stats
	if err := json.Unmarshal([]byte(v.String()), &s); err != nil {
		t.Fatalf("expvar JSON: %v", err)
	}
	if s.Samples != before+123 {
		t.Fatalf("expvar samples = %d, want %d", s.Samples, before+123)
	}
}

// TestEmitHelpers checks nil-observer no-ops, normal delivery, and panic
// conversion for all three callbacks.
func TestEmitHelpers(t *testing.T) {
	if err := EmitGrowth(nil, GrowthEvent{}); err != nil {
		t.Fatal(err)
	}
	if err := EmitIteration(nil, IterationEvent{}); err != nil {
		t.Fatal(err)
	}
	if err := EmitDone(nil, DoneEvent{}); err != nil {
		t.Fatal(err)
	}

	var got []string
	o := ObserverFuncs{
		Growth:    func(ev GrowthEvent) { got = append(got, "growth") },
		Iteration: func(ev IterationEvent) { got = append(got, "iteration") },
		Done:      func(ev DoneEvent) { got = append(got, "done") },
	}
	if err := EmitGrowth(o, GrowthEvent{}); err != nil {
		t.Fatal(err)
	}
	if err := EmitIteration(o, IterationEvent{}); err != nil {
		t.Fatal(err)
	}
	if err := EmitDone(o, DoneEvent{}); err != nil {
		t.Fatal(err)
	}
	if strings.Join(got, ",") != "growth,iteration,done" {
		t.Fatalf("callbacks = %v", got)
	}
	// ObserverFuncs with nil fields implements Observer as a no-op.
	if err := EmitIteration(ObserverFuncs{}, IterationEvent{}); err != nil {
		t.Fatal(err)
	}

	boom := ObserverFuncs{Iteration: func(IterationEvent) { panic("boom") }}
	err := EmitIteration(boom, IterationEvent{})
	var pe *ObserverPanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v (%T), want *ObserverPanicError", err, err)
	}
	if pe.Callback != "OnIteration" || pe.Value != "boom" || len(pe.Stack) == 0 {
		t.Fatalf("panic error = %+v", pe)
	}
	if !strings.Contains(pe.Error(), "OnIteration") {
		t.Fatalf("Error() = %q", pe.Error())
	}
}

// TestStartProgress drives the reporter against a buffer: periodic lines
// while running, one final newline-terminated line on stop, no writes after
// stop, and an idempotent stop function.
func TestStartProgress(t *testing.T) {
	m := &Metrics{}
	m.AddSamples(8192, 5)
	m.SetIteration(2, 1234.5, 0.71)
	m.WorkerBusy(2)

	var mu sync.Mutex
	var buf bytes.Buffer
	w := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return buf.Write(p)
	})
	stop := StartProgress(w, m, time.Millisecond)
	deadline := time.Now().Add(2 * time.Second)
	for {
		mu.Lock()
		n := buf.Len()
		mu.Unlock()
		if n > 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	stop()
	stop() // idempotent
	out := buf.String()
	if !strings.Contains(out, "samples=8192") || !strings.Contains(out, "iter=2") {
		t.Fatalf("progress output %q", out)
	}
	if !strings.Contains(out, "eps_sum=0.7100") || !strings.Contains(out, "busy=2") {
		t.Fatalf("progress output %q", out)
	}
	if !strings.HasSuffix(out, "\n") {
		t.Fatalf("final line not newline-terminated: %q", out)
	}
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// TestFormatBytes pins the unit thresholds of the progress line.
func TestFormatBytes(t *testing.T) {
	cases := []struct {
		in   int64
		want string
	}{
		{512, "512B"},
		{2048, "2.0KiB"},
		{3 << 20, "3.0MiB"},
		{1 << 31, "2.0GiB"},
	}
	for _, c := range cases {
		if got := formatBytes(c.in); got != c.want {
			t.Errorf("formatBytes(%d) = %q, want %q", c.in, got, c.want)
		}
	}
}
