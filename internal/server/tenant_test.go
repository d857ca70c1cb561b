package server

import (
	"testing"
	"time"
)

func TestTenantLimiter(t *testing.T) {
	l := newTenantLimiter(1) // 1 rps, burst 2
	now := time.Unix(2000, 0)
	for i := 0; i < 2; i++ {
		if ok, _ := l.allow("a", now); !ok {
			t.Fatalf("burst request %d rejected", i)
		}
	}
	ok, wait := l.allow("a", now)
	if ok {
		t.Fatal("third request within the burst window must be rejected")
	}
	if wait < time.Second {
		t.Fatalf("rejected request got wait %v, want >= 1s", wait)
	}
	// A near-zero rate's true wait is hours; the hint clamps at 5m.
	slow := newTenantLimiter(0.0001) // burst 1
	slow.allow("a", now)
	if ok, wait := slow.allow("a", now); ok || wait != 5*time.Minute {
		t.Fatalf("wait hint not clamped: ok=%v wait=%v", ok, wait)
	}
	// A different tenant has its own bucket.
	if ok, _ := l.allow("b", now); !ok {
		t.Fatal("tenant b must not share tenant a's bucket")
	}
	// Tokens accrue with time.
	if ok, _ := l.allow("a", now.Add(1500*time.Millisecond)); !ok {
		t.Fatal("token did not accrue after 1.5s at 1 rps")
	}
	// Rate 0 disables limiting.
	open := newTenantLimiter(0)
	for i := 0; i < 100; i++ {
		if ok, _ := open.allow("a", now); !ok {
			t.Fatal("rate 0 must never limit")
		}
	}
}
