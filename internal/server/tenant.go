package server

import (
	"sync"
	"time"
)

// tenantLimiter enforces per-tenant request quotas with one token bucket
// per tenant (keyed on the X-Tenant header; requests without the header
// share the "default" bucket). Rate 0 disables limiting entirely — the
// default, so single-tenant deployments pay one branch.
type tenantLimiter struct {
	rate  float64 // tokens per second; 0 = unlimited
	burst float64

	mu      sync.Mutex
	buckets map[string]*tokenBucket
}

type tokenBucket struct {
	tokens float64
	last   time.Time
}

// maxTenantBuckets bounds the bucket map so a header-spraying client
// cannot grow it without limit; at the cap the map is reset, which only
// briefly refills every tenant's burst.
const maxTenantBuckets = 10000

// newTenantLimiter allows rate requests per second per tenant, with a
// burst of 2 seconds of quota, at least one request.
func newTenantLimiter(rate float64) *tenantLimiter {
	return &tenantLimiter{rate: rate, burst: max(2*rate, 1), buckets: make(map[string]*tokenBucket)}
}

// allow spends one token from tenant's bucket. When the bucket is empty it
// reports false plus how long until the next token accrues — the
// Retry-After a 429 should carry.
func (l *tenantLimiter) allow(tenant string, now time.Time) (bool, time.Duration) {
	if l.rate <= 0 {
		return true, 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	b := l.buckets[tenant]
	if b == nil {
		if len(l.buckets) >= maxTenantBuckets {
			l.buckets = make(map[string]*tokenBucket)
		}
		b = &tokenBucket{tokens: l.burst, last: now}
		l.buckets[tenant] = b
	}
	b.tokens += now.Sub(b.last).Seconds() * l.rate
	b.last = now
	if b.tokens > l.burst {
		b.tokens = l.burst
	}
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	// Clamp to the same [1s, 5m] window as the drain tracker's hint: at a
	// very low rate the true wait can be hours, but a Retry-After that far
	// out just makes clients give up instead of backing off.
	wait := time.Duration((1 - b.tokens) / l.rate * float64(time.Second))
	switch {
	case wait < time.Second:
		wait = time.Second
	case wait > 5*time.Minute:
		wait = 5 * time.Minute
	}
	return false, wait
}
