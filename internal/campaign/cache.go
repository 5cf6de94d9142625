// cache.go is the engine's content-addressed shard-result cache hook.
//
// Because a shard result is a pure function of (target configuration, shard
// seed, shard size), it can be cached under a key derived from nothing but
// those inputs and replayed byte-identically into later reports: the engine
// consults Options.Cache before executing a shard and stores every clean
// result after executing one. Re-submitting an unchanged campaign against a
// warm cache therefore executes zero shards while producing the exact same
// report.
//
// Keys are content-addressed, never name-addressed: a target contributes a
// Fingerprint hashing the specification source, the machine code or program
// under test, the architecture, the engine variant and the traffic regime.
// Editing any of those changes the key and silently invalidates stale
// entries; renaming a benchmark does not.
package campaign

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"io"
	"os"
	"runtime/debug"
	"strconv"
	"sync"
)

// ShardCache is the engine's pluggable shard-result store. Implementations
// must be safe for concurrent use; Get must return results that no caller
// ever mutates (the engine treats cached results as immutable). Package
// farmd provides an in-memory LRU, an on-disk directory store and a tiered
// combination.
type ShardCache interface {
	// Get returns the result cached under key, or (nil, false). A cache
	// that cannot trust an entry (corrupt, truncated, mislabeled) must
	// report a miss — the engine then re-executes the shard, so a damaged
	// cache can cost time but never a wrong row.
	Get(key string) (*ShardResult, bool)

	// Put stores res under key. The engine only stores error-free results
	// (findings included): harness errors may depend on the environment,
	// so they are always re-executed.
	Put(key string, res *ShardResult)
}

// CacheGet and CachePut are the one rule by which a shard meets a cache,
// for the engine and for a lease worker alike: a shard is probed under its
// key once, the probe is counted once on m (nil = unmetered), and only an
// error-free result is stored. A nil cache or an empty key — an
// unfingerprintable target — probes, counts and stores nothing.
func CacheGet(c ShardCache, m *Metrics, key string) (*ShardResult, bool) {
	if c == nil || key == "" {
		return nil, false
	}
	res, ok := c.Get(key)
	switch {
	case m == nil:
	case ok:
		m.CacheHits.Inc()
	default:
		m.CacheMisses.Inc()
	}
	return res, ok
}

// CachePut stores res under key if it is error-free; see CacheGet.
func CachePut(c ShardCache, key string, res *ShardResult) {
	if c != nil && key != "" && res.Err == nil {
		c.Put(key, res)
	}
}

// Fingerprinter is implemented by Targets whose configuration can be hashed
// stably. An empty fingerprint means the target is not cacheable this run
// (e.g. an opaque spec factory or an injected ISA program the engine cannot
// hash); the engine then executes its shards unconditionally.
type Fingerprinter interface {
	// Fingerprint returns a stable content hash of everything that
	// determines shard results for this target: specification, program
	// under test, engine variant, traffic regime and value bounds. Two
	// targets with equal fingerprints must produce identical ShardResults
	// for every (seed, n).
	Fingerprint() string
}

// CacheStats counts shard-cache outcomes of one campaign run: Hits is the
// number of shards replayed from the cache, Misses the number executed with
// caching enabled. Shards of non-fingerprintable targets execute without
// touching the cache and appear in neither counter.
type CacheStats struct {
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
}

// buildSalt identifies the engine build producing shard results, so a
// persistent cache written by one binary is silently invalidated by the
// next engine change — an upgraded daemon re-executes rather than
// replaying rows a fixed (or newly broken) engine would no longer produce.
// The salt is a hash of the running executable itself, which changes with
// any code change regardless of how the binary was produced (go build,
// go run's temp binaries, dirty trees); VCS build metadata is only the
// fallback when the executable cannot be read. Computed once, lazily, when
// the first keyed job is planned.
var buildSalt = sync.OnceValue(func() string {
	if exe, err := os.Executable(); err == nil {
		if f, err := os.Open(exe); err == nil {
			defer f.Close()
			h := sha256.New()
			if _, err := io.Copy(h, f); err == nil {
				return hex.EncodeToString(h.Sum(nil))
			}
		}
	}
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return ""
	}
	salt := info.Main.Version
	for _, s := range info.Settings {
		if s.Key == "vcs.revision" || s.Key == "vcs.modified" {
			salt += "|" + s.Key + "=" + s.Value
		}
	}
	return salt
})

// ShardKey derives the content-addressed cache key of one shard from the
// target fingerprint, the shard's derived traffic seed and the shard size,
// salted with the engine build identity. The fingerprint folds in the spec
// and machine-code/program digests, the architecture and the engine level,
// so the key covers every input a shard result depends on. It is the
// one-shot form of the keyer the engine plans per job.
func ShardKey(fingerprint string, seed int64, n int) string {
	return newShardKeyer(buildSalt(), fingerprint).key(seed, n)
}

// shardKeyer derives the keys of one target's shards. The job's part of a
// key, the SHA-256 of "salt\x00len(fp)\x00fp\x00", is hashed once, when the
// job is planned; a key is then 64 lowercase hex characters with no hash
// behind them: the big-endian hex of uint64(seed), of uint64(n), and the
// first 32 hex characters (128 bits) of the job's digest. The seed leads,
// so the derived seed spreads keys over a directory cache's buckets. It is
// immutable, so the workers of a campaign share one per job.
type shardKeyer struct{ job [32]byte }

func newShardKeyer(salt, fingerprint string) shardKeyer {
	b := make([]byte, 0, len(salt)+len(fingerprint)+24)
	b = append(append(b, salt...), 0)
	b = append(strconv.AppendInt(b, int64(len(fingerprint)), 10), 0)
	sum := sha256.Sum256(append(append(b, fingerprint...), 0))
	var k shardKeyer
	hex.Encode(k.job[:], sum[:len(k.job)/2])
	return k
}

// key returns the shard key of (seed, n); the string is its only
// allocation.
//
//dvet:hotpath allocs=1
func (k shardKeyer) key(seed int64, n int) string {
	var b [64]byte
	var u [8]byte
	binary.BigEndian.PutUint64(u[:], uint64(seed))
	hex.Encode(b[:16], u[:])
	binary.BigEndian.PutUint64(u[:], uint64(n))
	hex.Encode(b[16:32], u[:])
	copy(b[32:], k.job[:])
	return string(b[:]) //dvet:alloc-ok the key itself
}

// fingerprintOf hashes length-framed parts, "len(part)\x00part\x00" each,
// into a stable hex string; targets build their fingerprints from it.
func fingerprintOf(parts ...string) string {
	h := sha256.New()
	var buf []byte // a part's bytes on their way into h
	for _, p := range parts {
		buf = append(strconv.AppendInt(buf[:0], int64(len(p)), 10), 0)
		buf = append(append(buf, p...), 0)
		h.Write(buf)
	}
	return hex.EncodeToString(h.Sum(nil))
}
