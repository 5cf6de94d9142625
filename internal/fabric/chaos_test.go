package fabric

import (
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"time"
)

// ChaosTransport is a deterministic fault-injection http.RoundTripper: the
// test harness the fabric's failure semantics are proven against. Faults
// are drawn from a seeded RNG under a mutex, so a test's fault schedule is
// reproducible run to run (per RNG draw order, which serialization fixes),
// and counters record exactly which faults fired.
//
// Fault points, in order per request:
//
//   - a partitioned destination host fails immediately (no RNG draw),
//   - DropRate fails the request before it is sent — the receiver never
//     sees it (a connection that never established),
//   - DelayRate stalls the request up to MaxDelay before sending,
//   - LossRate fails the request after the response arrived — the
//     receiver did the work, the caller never learns (the fault that
//     proves lease retries are idempotent).
type ChaosTransport struct {
	// Base performs the real round trips (nil = http.DefaultTransport).
	Base http.RoundTripper

	// DropRate is the probability a request fails before being sent.
	DropRate float64

	// LossRate is the probability a completed response is thrown away and
	// reported as a transport error.
	LossRate float64

	// DelayRate is the probability a request is delayed; MaxDelay bounds
	// the delay (0 = 50ms).
	DelayRate float64
	MaxDelay  time.Duration

	mu          sync.Mutex
	rng         *rand.Rand
	partitioned map[string]bool

	// Fault counters, read with Counters.
	drops, losses, delays, blocked int64
}

// NewChaosTransport returns a chaos transport drawing faults from seed.
func NewChaosTransport(seed int64) *ChaosTransport {
	return &ChaosTransport{rng: rand.New(rand.NewSource(seed)), partitioned: map[string]bool{}}
}

// Partition blocks all requests to host (a "host:port" as it appears in
// request URLs) from here on.
func (t *ChaosTransport) Partition(host string) {
	t.mu.Lock()
	t.partitioned[host] = true
	t.mu.Unlock()
}

// Counters reports how many faults of each kind fired: drops (failed
// before send), losses (response thrown away), delays, and blocked
// (partitioned destination).
func (t *ChaosTransport) Counters() (drops, losses, delays, blocked int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.drops, t.losses, t.delays, t.blocked
}

// chaosError is the transport error injected faults surface as.
type chaosError struct{ kind, host string }

func (e *chaosError) Error() string { return fmt.Sprintf("chaos: %s (%s)", e.kind, e.host) }

// RoundTrip implements http.RoundTripper.
func (t *ChaosTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	host := req.URL.Host
	t.mu.Lock()
	if t.partitioned[host] {
		t.blocked++
		t.mu.Unlock()
		return nil, &chaosError{kind: "partitioned", host: host}
	}
	drop := t.DropRate > 0 && t.rng.Float64() < t.DropRate
	var delay time.Duration
	if !drop && t.DelayRate > 0 && t.rng.Float64() < t.DelayRate {
		max := t.MaxDelay
		if max <= 0 {
			max = 50 * time.Millisecond
		}
		delay = time.Duration(t.rng.Int63n(int64(max) + 1))
	}
	lose := !drop && t.LossRate > 0 && t.rng.Float64() < t.LossRate
	if drop {
		t.drops++
	}
	if delay > 0 {
		t.delays++
	}
	t.mu.Unlock()

	if drop {
		return nil, &chaosError{kind: "request dropped", host: host}
	}
	if delay > 0 {
		select {
		case <-time.After(delay):
		case <-req.Context().Done():
			return nil, req.Context().Err()
		}
	}
	base := t.Base
	if base == nil {
		base = http.DefaultTransport
	}
	resp, err := base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	if lose {
		resp.Body.Close()
		t.mu.Lock()
		t.losses++
		t.mu.Unlock()
		return nil, &chaosError{kind: "response lost", host: host}
	}
	return resp, nil
}
