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
	"encoding"
	"encoding/hex"
	"fmt"
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
// and machine-code/program hashes, the architecture and the engine level,
// so the key covers every input a shard result depends on. It is the
// one-shot form of the keyer the engine plans per job.
func ShardKey(fingerprint string, seed int64, n int) string {
	return newShardKeyer(buildSalt(), fingerprint).key(seed, n)
}

// shardKeyer derives the keys of one target's shards. A key is the
// SHA-256 of "salt\x00len(fp)\x00fp\x00seed\x00n"; everything before the
// seed is the same for every shard of a job, so the keyer hashes it once
// and keeps the digest's marshalled state, and each key restores that
// state and hashes only the seed and size — one block instead of three.
// It is immutable, so the workers of a campaign share one per job.
type shardKeyer struct{ state []byte }

func newShardKeyer(salt, fingerprint string) shardKeyer {
	h := sha256.New()
	b := make([]byte, 0, len(salt)+len(fingerprint)+24)
	b = append(append(b, salt...), 0)
	b = append(strconv.AppendInt(b, int64(len(fingerprint)), 10), 0)
	b = append(append(b, fingerprint...), 0)
	h.Write(b)
	state, err := h.(encoding.BinaryMarshaler).MarshalBinary()
	if err != nil {
		panic("campaign: sha256 state: " + err.Error()) // the crypto hashes always marshal
	}
	return shardKeyer{state}
}

func (k shardKeyer) key(seed int64, n int) string {
	h := sha256.New()
	if err := h.(encoding.BinaryUnmarshaler).UnmarshalBinary(k.state); err != nil {
		panic("campaign: sha256 state: " + err.Error()) // the state newShardKeyer marshalled
	}
	var buf [2 * sha256.Size]byte // "seed\x00n" fits; then the sum
	b := strconv.AppendInt(buf[:0], seed, 10)
	b = strconv.AppendInt(append(b, 0), int64(n), 10)
	h.Write(b)
	return hex.EncodeToString(h.Sum(buf[:0]))
}

// fingerprintParts hashes length-framed parts into a stable hex string;
// targets build their fingerprints from it.
func fingerprintParts(parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		fmt.Fprintf(h, "%d\x00%s\x00", len(p), p)
	}
	return hex.EncodeToString(h.Sum(nil))
}
