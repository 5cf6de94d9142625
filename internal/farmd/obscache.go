package farmd

import (
	"druzhba/internal/campaign"
	"druzhba/internal/obs"
)

// Cache tier names used as the "tier" label on the shared cache metric
// families.
const (
	TierMem    = "mem"
	TierDisk   = "disk"
	TierRemote = "remote"
)

// InstrumentedCache wraps a campaign.ShardCache with tier-labeled hit,
// miss and put counters on the shared cache metric families
// (druzhba_cache_gets_total{tier,outcome}, druzhba_cache_puts_total{tier}).
// Wrapping a MemCache or DirCache also wires its eviction counters
// (druzhba_cache_evictions_total{tier}, druzhba_cache_evicted_bytes_total).
//
// Instrumentation is observability only: the wrapper forwards results
// unchanged, so cached replays stay byte-identical.
type InstrumentedCache struct {
	inner              campaign.ShardCache
	hits, misses, puts *obs.Counter
}

// InstrumentCache registers the shared cache families on reg (idempotent
// across tiers) and returns inner wrapped with the given tier's series.
// A nil inner or registry returns nil — callers only wrap live tiers.
func InstrumentCache(inner campaign.ShardCache, tier string, reg *obs.Registry) *InstrumentedCache {
	if inner == nil || reg == nil {
		return nil
	}
	gets := cacheGets(reg)
	puts := reg.CounterVec("druzhba_cache_puts_total", "shard cache writes by tier", "tier")
	evictions := reg.CounterVec("druzhba_cache_evictions_total", "shard cache entries evicted by tier", "tier")
	evictedBytes := reg.CounterVec("druzhba_cache_evicted_bytes_total", "shard cache bytes evicted by tier", "tier")
	switch t := inner.(type) {
	case *MemCache:
		t.SetEvictionCounter(evictions.With(tier))
	case *DirCache:
		t.SetEvictionCounters(evictions.With(tier), evictedBytes.With(tier))
	}
	return &InstrumentedCache{
		inner:  inner,
		hits:   gets.With(tier, "hit"),
		misses: gets.With(tier, "miss"),
		puts:   puts.With(tier),
	}
}

// cacheGets registers (idempotently) the shared lookup family; the server
// reads its tier="remote" series back for /v1/stats.
func cacheGets(reg *obs.Registry) *obs.CounterVec {
	return reg.CounterVec("druzhba_cache_gets_total", "shard cache lookups by tier and outcome", "tier", "outcome")
}

// Get implements campaign.ShardCache.
func (c *InstrumentedCache) Get(key string) (*campaign.ShardResult, bool) {
	res, ok := c.inner.Get(key)
	if ok {
		c.hits.Inc()
	} else {
		c.misses.Inc()
	}
	return res, ok
}

// Put implements campaign.ShardCache.
func (c *InstrumentedCache) Put(key string, res *campaign.ShardResult) {
	c.puts.Inc()
	c.inner.Put(key, res)
}

// Flush implements Flusher, forwarding to the inner tier when it buffers
// state.
func (c *InstrumentedCache) Flush() error {
	if f, ok := c.inner.(Flusher); ok {
		return f.Flush()
	}
	return nil
}
