package main

import (
	"context"
	"net/http"
	"strings"
	"sync"
	"time"

	"druzhba/internal/campaign"
)

// Boundary wrappers: the only places spans come from. Each implements an
// interface the program already accepts, forwards every call unchanged and
// brackets it with a span, so a traced campaign produces the same report
// bytes as an untraced one (the harness checks that it does).

// Span names. The prefix up to the last dot is the layer (a package of the
// repo); ledgerClass groups them for the ledger.* metrics.
const (
	spanBuild     = "campaign.target_build" // Target.Build: core.Build / drmt.NewDiffFuzzer / verify tables
	spanNewRunner = "campaign.new_runner"   // Instance.NewRunner: pipeline clone + spec instance
	spanRunShard  = "campaign.run_shard"    // Runner.RunShard: the kernel (gen → execute → spec → compare) or one SAT cell
	spanShardExec = "campaign.shard_exec"   // inferred: cache miss → cache put on one key (runner clone + kernel)
)

// tracedTarget wraps a campaign.Target so Build, NewRunner and RunShard
// show up as spans. It forwards the optional interfaces the engine probes
// for (Fingerprinter, Moder, BenchmarkNamer, ShardSizer) so shard plans,
// cache keys and report rows are unchanged.
type tracedTarget struct {
	inner campaign.Target
	rec   *recorder
}

func (t *tracedTarget) Arch() string   { return t.inner.Arch() }
func (t *tracedTarget) Engine() string { return t.inner.Engine() }

func (t *tracedTarget) Build() (campaign.Instance, error) {
	id := t.rec.begin(spanBuild)
	inst, err := t.inner.Build()
	t.rec.end(id)
	if err != nil {
		return nil, err
	}
	return &tracedInstance{inner: inst, rec: t.rec}, nil
}

func (t *tracedTarget) Fingerprint() string {
	if f, ok := t.inner.(campaign.Fingerprinter); ok {
		return f.Fingerprint()
	}
	return ""
}

func (t *tracedTarget) Mode() string {
	if m, ok := t.inner.(campaign.Moder); ok {
		return m.Mode()
	}
	return campaign.ModeFuzz
}

func (t *tracedTarget) BenchmarkName() string {
	if b, ok := t.inner.(campaign.BenchmarkNamer); ok {
		return b.BenchmarkName()
	}
	return ""
}

func (t *tracedTarget) ShardSize(dflt int) int {
	if s, ok := t.inner.(campaign.ShardSizer); ok {
		return s.ShardSize(dflt)
	}
	return dflt
}

type tracedInstance struct {
	inner campaign.Instance
	rec   *recorder
}

func (in *tracedInstance) NewRunner() (campaign.Runner, error) {
	id := in.rec.begin(spanNewRunner)
	r, err := in.inner.NewRunner()
	in.rec.end(id)
	if err != nil {
		return nil, err
	}
	return &tracedRunner{inner: r, rec: in.rec}, nil
}

// tracedRunner always offers the context-aware entry point and falls back
// to RunShard for runners without one — the same choice the engine makes.
type tracedRunner struct {
	inner campaign.Runner
	rec   *recorder
}

func (r *tracedRunner) RunShard(seed int64, n int) campaign.ShardResult {
	return r.RunShardContext(context.Background(), seed, n)
}

func (r *tracedRunner) RunShardContext(ctx context.Context, seed int64, n int) campaign.ShardResult {
	id := r.rec.begin(spanRunShard)
	defer r.rec.end(id)
	if cr, ok := r.inner.(campaign.ContextRunner); ok {
		return cr.RunShardContext(ctx, seed, n)
	}
	return r.inner.RunShard(seed, n)
}

func (r *tracedRunner) SetBatchSize(n int) {
	if b, ok := r.inner.(campaign.BatchSizer); ok {
		b.SetBatchSize(n)
	}
}

// traceJobs returns jobs with every target wrapped (rec nil: jobs as is).
func traceJobs(jobs []campaign.Job, rec *recorder) []campaign.Job {
	if rec == nil {
		return jobs
	}
	out := make([]campaign.Job, len(jobs))
	for i, j := range jobs {
		j.Target = &tracedTarget{inner: j.Target, rec: rec}
		out[i] = j
	}
	return out
}

// tracedCache brackets one cache tier's Get and Put. nest is set for tiers
// that are reached from inside an HTTP handler's span (a worker's lease
// handler, the coordinator's shard store).
type tracedCache struct {
	inner campaign.ShardCache
	rec   *recorder
	name  string // span prefix, e.g. "farmd.memcache"
	nest  bool
}

func traceCache(inner campaign.ShardCache, rec *recorder, name string, nest bool) campaign.ShardCache {
	if rec == nil {
		return inner
	}
	return &tracedCache{inner: inner, rec: rec, name: name, nest: nest}
}

func (c *tracedCache) open(op string) int {
	if c.nest {
		return c.rec.beginNested(c.name+op, false)
	}
	return c.rec.begin(c.name + op)
}

func (c *tracedCache) Get(key string) (*campaign.ShardResult, bool) {
	id := c.open(".get")
	res, ok := c.inner.Get(key)
	c.rec.end(id)
	return res, ok
}

func (c *tracedCache) Put(key string, res *campaign.ShardResult) {
	id := c.open(".put")
	c.inner.Put(key, res)
	c.rec.end(id)
}

// execCache sits on top of a server's whole cache stack and infers the
// span the program gives no hook for: a server probes its cache, executes
// the shard on a miss and stores the result, so miss → put on one key is
// the execution (runner clone included). It records nothing else.
type execCache struct {
	inner campaign.ShardCache
	rec   *recorder
	nest  bool

	mu     sync.Mutex
	missed map[string]time.Time
}

func traceExec(inner campaign.ShardCache, rec *recorder, nest bool) campaign.ShardCache {
	if rec == nil {
		return inner
	}
	return &execCache{inner: inner, rec: rec, nest: nest, missed: map[string]time.Time{}}
}

func (c *execCache) Get(key string) (*campaign.ShardResult, bool) {
	res, ok := c.inner.Get(key)
	if !ok {
		now := time.Now()
		c.mu.Lock()
		c.missed[key] = now
		c.mu.Unlock()
	}
	return res, ok
}

func (c *execCache) Put(key string, res *campaign.ShardResult) {
	now := time.Now()
	c.mu.Lock()
	since, ok := c.missed[key]
	delete(c.missed, key)
	c.mu.Unlock()
	if ok {
		c.rec.add(spanShardExec, since, now, c.nest)
	}
	c.inner.Put(key, res)
}

// traceHandler brackets every request a server handles. Streaming
// endpoints (campaign submission) only wait on the engine's workers, so
// they are recorded as waiting spans.
func traceHandler(h http.Handler, rec *recorder, prefix string) http.Handler {
	if rec == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		name, wait := prefix+".other", false
		switch {
		case r.URL.Path == "/v1/campaigns":
			name, wait = prefix+".campaigns", true
		case r.URL.Path == "/v1/leases":
			name = prefix + ".lease"
		case strings.HasPrefix(r.URL.Path, "/v1/shards/") && r.Method == http.MethodGet:
			name = prefix + ".shard_get"
		case strings.HasPrefix(r.URL.Path, "/v1/shards/"):
			name = prefix + ".shard_put"
		}
		id := rec.beginNested(name, wait)
		h.ServeHTTP(w, r)
		rec.end(id)
	})
}

// ledgerClass maps a span name onto one of the ledger.* metric classes.
func ledgerClass(name string) string {
	switch name {
	case spanBuild:
		return "build"
	case spanNewRunner:
		return "runner"
	case spanRunShard, spanShardExec:
		return "kernel"
	}
	for _, p := range []string{"farmd.memcache.", "farmd.dircache.", "farmd.remotecache.", "fabric.store."} {
		if strings.HasPrefix(name, p) {
			return "cache"
		}
	}
	return "wire" // HTTP handlers' own time: decode, encode, expansion, engine bookkeeping behind the socket
}
