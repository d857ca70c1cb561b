package obs

import (
	"fmt"
	"io"
	"time"
)

// StartProgress starts a goroutine that renders a one-line live status of m
// to w every interval, overwriting itself with a carriage return — the
// -progress reporter of cmd/gbc. Call the returned stop function to render
// one final line (newline-terminated) and release the goroutine; stop is
// idempotent and blocks until the last write finished, so w is not written
// to after stop returns.
func StartProgress(w io.Writer, m *Metrics, interval time.Duration) (stop func()) {
	if interval <= 0 {
		interval = 200 * time.Millisecond
	}
	quit := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				writeProgressLine(w, m.Snapshot(), '\r')
			case <-quit:
				writeProgressLine(w, m.Snapshot(), '\n')
				return
			}
		}
	}()
	stopped := false
	return func() {
		if !stopped {
			stopped = true
			close(quit)
			<-done
		}
	}
}

// writeProgressLine renders one status line. The fixed field order matches
// the counter inventory in DESIGN.md; the trailing spaces wipe leftovers of
// a longer previous line when the new one is shorter.
func writeProgressLine(w io.Writer, s Stats, end byte) {
	fmt.Fprintf(w, "samples=%d (%.0f/s) iter=%d guess=%.1f eps_sum=%.4f greedy=%d arena=%s busy=%d    %c",
		s.Samples, s.SamplesPerSec, s.Iteration, s.Guess, s.EpsilonSum,
		s.GreedyRuns, formatBytes(s.ArenaBytes), s.BusyWorkers, end)
}

// formatBytes renders a byte count with a binary unit suffix.
func formatBytes(b int64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.1fGiB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(b)/(1<<10))
	}
	return fmt.Sprintf("%dB", b)
}
