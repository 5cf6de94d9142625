package fabric

import (
	"sort"
	"sync"
	"time"
)

// Registry tracks the coordinator's worker fleet: which dfarmd workers are
// alive (heartbeating within the TTL), how loaded each is (in-flight
// leases), and which are cooling down after a transport failure. It is the
// dispatcher's scheduling oracle and the liveness half of the fabric's
// failure detector — a worker that dies simply stops heartbeating and ages
// out; nothing has to observe the death directly.
type Registry struct {
	ttl time.Duration
	now func() time.Time // injectable clock for tests

	mu      sync.Mutex
	workers map[string]*workerEntry
}

type workerEntry struct {
	url      string
	lastSeen time.Time
	coolOff  time.Time // zero = not cooling down
	inflight int
}

// WorkerInfo is one worker's registry snapshot (GET /v1/workers).
type WorkerInfo struct {
	URL      string `json:"url"`
	Alive    bool   `json:"alive"`
	Cooling  bool   `json:"cooling,omitempty"`
	Inflight int    `json:"inflight,omitempty"`
	AgeMS    int64  `json:"age_ms"` // since last heartbeat
}

// NewRegistry returns a registry whose workers expire ttl after their last
// heartbeat (ttl <= 0 means 15s).
func NewRegistry(ttl time.Duration) *Registry {
	if ttl <= 0 {
		ttl = 15 * time.Second
	}
	//dvet:walltime-ok the approved default for the registry's injected clock seam
	return &Registry{ttl: ttl, now: time.Now, workers: map[string]*workerEntry{}}
}

// Register records a heartbeat from the worker at url, adding it to the
// fleet if new. A heartbeat clears any cooldown: the worker is reachable
// again by definition.
func (r *Registry) Register(url string) {
	now := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	w := r.workers[url]
	if w == nil {
		w = &workerEntry{url: url}
		r.workers[url] = w
	}
	w.lastSeen = now
	w.coolOff = time.Time{}
}

// Pick acquires the least-loaded alive worker not in exclude, increments
// its in-flight count, and returns its URL; "" means no eligible worker
// (the caller degrades to local execution or backs off). Ties break
// lexicographically so scheduling is stable under test.
func (r *Registry) Pick(exclude map[string]bool) string {
	now := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	var best *workerEntry
	//dvet:nondeterministic-ok min-reduction with lexicographic total tie-break, order-free
	for _, w := range r.workers {
		if exclude[w.url] || now.Sub(w.lastSeen) > r.ttl || now.Before(w.coolOff) {
			continue
		}
		if best == nil || w.inflight < best.inflight || (w.inflight == best.inflight && w.url < best.url) {
			best = w
		}
	}
	if best == nil {
		return ""
	}
	best.inflight++
	return best.url
}

// Done releases one in-flight lease on the worker.
func (r *Registry) Done(url string) {
	r.mu.Lock()
	if w := r.workers[url]; w != nil && w.inflight > 0 {
		w.inflight--
	}
	r.mu.Unlock()
}

// Fail puts the worker in cooldown after a transport failure: it stays
// registered (the next heartbeat clears the cooldown early) but is not
// picked until the cooldown elapses, so a dead or partitioned worker
// doesn't eat every retry of every shard while it ages out.
func (r *Registry) Fail(url string, cooldown time.Duration) {
	now := r.now()
	r.mu.Lock()
	if w := r.workers[url]; w != nil {
		w.coolOff = now.Add(cooldown)
	}
	r.mu.Unlock()
}

// AliveCount returns the number of workers within their heartbeat TTL
// (cooling workers count: they are alive, just deprioritized).
func (r *Registry) AliveCount() int {
	now := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	//dvet:nondeterministic-ok pure count, order-free
	for _, w := range r.workers {
		if now.Sub(w.lastSeen) <= r.ttl {
			n++
		}
	}
	return n
}

// Snapshot returns every registered worker's state, sorted by URL.
func (r *Registry) Snapshot() []WorkerInfo {
	now := r.now()
	r.mu.Lock()
	out := make([]WorkerInfo, 0, len(r.workers))
	//dvet:nondeterministic-ok rows are fully sorted by URL before returning
	for _, w := range r.workers {
		out = append(out, WorkerInfo{
			URL:      w.url,
			Alive:    now.Sub(w.lastSeen) <= r.ttl,
			Cooling:  now.Before(w.coolOff),
			Inflight: w.inflight,
			AgeMS:    now.Sub(w.lastSeen).Milliseconds(),
		})
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].URL < out[j].URL })
	return out
}
