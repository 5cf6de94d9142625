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
	"encoding/hex"
	"hash"
	"io"
	"os"
	"runtime/debug"
	"strconv"
	"sync"

	"druzhba/internal/machinecode"
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
// seed is the same for every shard of a job, so the keyer keeps those bytes,
// and each key copies them and the shard's seed and size into a buffer on
// its stack and hashes that with one sha256.Sum256. It is immutable, so the
// workers of a campaign share one per job.
type shardKeyer struct{ prefix []byte }

// keyStack is the stack buffer a key is hashed from: a 64-hex salt, a 64-hex
// fingerprint, their framing and the longest seed and size take 173 bytes.
// A longer prefix hashes from the heap.
const keyStack = 256

// keyTail is the most "seed\x00n" takes: two signed 64-bit decimals and a NUL.
const keyTail = 20 + 1 + 20

func newShardKeyer(salt, fingerprint string) shardKeyer {
	b := make([]byte, 0, len(salt)+len(fingerprint)+24)
	b = append(append(b, salt...), 0)
	b = append(strconv.AppendInt(b, int64(len(fingerprint)), 10), 0)
	return shardKeyer{append(append(b, fingerprint...), 0)}
}

// key returns the shard key of (seed, n); the hex string is its only
// allocation.
//
//dvet:hotpath allocs=1
func (k shardKeyer) key(seed int64, n int) string {
	var stack [keyStack]byte
	b := stack[:0]
	if len(k.prefix)+keyTail > len(stack) {
		b = make([]byte, 0, len(k.prefix)+keyTail) //dvet:alloc-ok a salt or fingerprint longer than any this build makes
	}
	b = strconv.AppendInt(append(b, k.prefix...), seed, 10) //dvet:alloc-ok b holds the prefix and keyTail
	b = strconv.AppendInt(append(b, 0), int64(n), 10)       //dvet:alloc-ok b holds the prefix and keyTail
	sum := sha256.Sum256(b)
	var digits [2 * sha256.Size]byte
	hex.Encode(digits[:], sum[:])
	return string(digits[:]) //dvet:alloc-ok the key itself
}

// fingerprint hashes length-framed parts, "len(part)\x00part\x00" each, into
// a stable hex string; targets build their fingerprints from it.
type fingerprint struct {
	h   hash.Hash
	buf []byte // a part's bytes on their way into h
}

func newFingerprint() *fingerprint { return &fingerprint{h: sha256.New()} }

// add hashes each of parts as one part.
func (f *fingerprint) add(parts ...string) *fingerprint {
	for _, p := range parts {
		f.buf = append(strconv.AppendInt(f.buf[:0], int64(len(p)), 10), 0)
		f.buf = append(append(f.buf, p...), 0)
		f.h.Write(f.buf)
	}
	return f
}

// code hashes p's text (machinecode.Program.String) as one part, streamed
// into the hash a few pairs at a time: the text is never rendered whole.
func (f *fingerprint) code(p *machinecode.Program) *fingerprint {
	f.buf = append(strconv.AppendInt(f.buf[:0], int64(p.TextLen()), 10), 0)
	f.h.Write(f.buf)
	p.Write(f.h)                    // a hash never fails a write
	f.h.Write(f.buf[len(f.buf)-1:]) // the NUL that closes the part
	return f
}

// sum returns the hex digest of the parts added so far.
func (f *fingerprint) sum() string { return hex.EncodeToString(f.h.Sum(nil)) }
