package farmd

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"syscall"
	"time"

	"druzhba/internal/campaign"
	"druzhba/internal/obs"
)

// MemCache is a bounded in-memory LRU campaign.ShardCache: the hot tier of
// a long-running daemon. It is safe for concurrent use.
type MemCache struct {
	lru       *lru[*campaign.ShardResult] // every entry weighs 1
	evictions *obs.Counter                // nil = uncounted; guarded by lru.mu
}

// NewMemCache returns an LRU cache holding at most capacity shard results
// (capacity <= 0 means 4096).
func NewMemCache(capacity int) *MemCache {
	if capacity <= 0 {
		capacity = 4096
	}
	c := &MemCache{}
	c.lru = newLRU[*campaign.ShardResult](int64(capacity), func(string, int64) { c.evictions.Inc() })
	return c
}

// Get implements campaign.ShardCache.
func (c *MemCache) Get(key string) (*campaign.ShardResult, bool) { return c.lru.get(key) }

// Put implements campaign.ShardCache, evicting the least recently used
// entry when the cache is full.
func (c *MemCache) Put(key string, res *campaign.ShardResult) {
	if res == nil || res.Err != nil {
		return
	}
	c.lru.put(key, res, 1)
}

// SetEvictionCounter wires the tier's eviction counter (observability
// only; nil disables counting).
func (c *MemCache) SetEvictionCounter(evictions *obs.Counter) {
	c.lru.mu.Lock()
	c.evictions = evictions
	c.lru.mu.Unlock()
}

// Len returns the number of cached entries.
func (c *MemCache) Len() int {
	n, _ := c.lru.size()
	return n
}

// diskEntry is DirCache's on-disk form of one shard result: the wire form
// under the key it was stored at. The embedded key lets Get detect renamed
// or cross-copied files; results with harness errors are never persisted,
// so a written entry carries no error field and one that does is damage.
// Verify cells serialize all their deterministic fields; solve wall time is
// excluded at the type level (VerifyCell.SolveMS is json:"-"), so cached
// replays never leak one run's timing into another's report.
type diskEntry struct {
	Key string `json:"key"`
	WireShardResult
}

// DirCache is an on-disk campaign.ShardCache: one JSON file per shard
// result, fanned into 256 prefix buckets under a root directory, written
// atomically (temp file + rename) and read back with one bounded read. A
// corrupt, truncated, mislabeled or oversized entry reads as a miss and is
// deleted, so damage costs re-execution, never a wrong row.
//
// With a byte cap (NewDirCacheLimit) the directory is a size-bounded LRU:
// opening the cache scans existing entries (oldest-modified = least
// recent), Get refreshes recency, and Put evicts the least recently used
// entries once the cap is exceeded — so a long-running daemon's disk
// footprint stays bounded. Without a cap the directory only grows; it is
// the persistent tier a daemon restart warms from.
type DirCache struct {
	dir string

	// LRU accounting by entry-file bytes, nil without a cap. Eviction
	// removes the file under the list's lock, so it never races a
	// concurrent Put's accounting.
	lru *lru[struct{}]

	evictions, evictedBytes *obs.Counter // nil = uncounted; guarded by lru.mu
}

// NewDirCache opens (creating if needed) an unbounded on-disk cache rooted
// at dir.
func NewDirCache(dir string) (*DirCache, error) {
	return NewDirCacheLimit(dir, 0)
}

// NewDirCacheLimit opens (creating if needed) an on-disk cache rooted at
// dir, holding at most maxBytes of entry files (0 = unbounded). Existing
// entries are scanned in modification-time order to seed the recency list,
// and evicted oldest-first if they already exceed the cap.
func NewDirCacheLimit(dir string, maxBytes int64) (*DirCache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("farmd: cache dir: %w", err)
	}
	c := &DirCache{dir: dir}
	if maxBytes > 0 {
		c.lru = newLRU[struct{}](maxBytes, func(key string, size int64) {
			os.Remove(c.Path(key))
			c.evictions.Inc()
			c.evictedBytes.Add(float64(size))
		})
		if err := c.scan(); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// scan seeds the LRU accounting from the files already on disk: entries
// sorted by modification time, oldest first, so the least recently written
// survivors of the previous process are the first eviction candidates.
func (c *DirCache) scan() error {
	type stat struct {
		key   string
		size  int64
		mtime time.Time
	}
	var stats []stat
	buckets, err := os.ReadDir(c.dir)
	if err != nil {
		return fmt.Errorf("farmd: cache dir: %w", err)
	}
	for _, b := range buckets {
		if !b.IsDir() {
			continue
		}
		files, err := os.ReadDir(filepath.Join(c.dir, b.Name()))
		if err != nil {
			continue
		}
		for _, f := range files {
			name := f.Name()
			if f.IsDir() || !strings.HasSuffix(name, ".json") {
				continue
			}
			info, err := f.Info()
			if err != nil {
				continue
			}
			stats = append(stats, stat{key: strings.TrimSuffix(name, ".json"), size: info.Size(), mtime: info.ModTime()})
		}
	}
	sort.Slice(stats, func(i, j int) bool { return stats[i].mtime.Before(stats[j].mtime) })
	for _, s := range stats {
		c.lru.put(s.key, struct{}{}, s.size)
	}
	return nil
}

// SetEvictionCounters wires the tier's eviction count and byte counters
// (observability only; nil disables counting).
func (c *DirCache) SetEvictionCounters(evictions, evictedBytes *obs.Counter) {
	if c.lru == nil {
		return // an unbounded cache never evicts
	}
	c.lru.mu.Lock()
	c.evictions = evictions
	c.evictedBytes = evictedBytes
	c.lru.mu.Unlock()
}

// Len returns the number of tracked entries (bounded caches only).
func (c *DirCache) Len() int {
	if c.lru == nil {
		return 0
	}
	n, _ := c.lru.size()
	return n
}

// Size returns the tracked entry bytes (bounded caches only).
func (c *DirCache) Size() int64 {
	if c.lru == nil {
		return 0
	}
	_, bytes := c.lru.size()
	return bytes
}

// shardKeyRe is the shard-store key space: engine-issued hex digests.
var shardKeyRe = regexp.MustCompile(`^[0-9a-f]{16,128}$`)

// ValidShardKey is the one guard on a cache key that arrives from outside
// (a lease body, a shard-store URL): the disk tier maps keys to file paths,
// so anything but an engine-issued hex digest is refused before it reaches
// a cache. The empty key is not valid; where it is allowed it means
// "uncacheable" and the caller checks for it first.
func ValidShardKey(key string) bool { return shardKeyRe.MatchString(key) }

// pathSafe reports whether key can name an entry file under the cache
// root: no path separator and no leading dot, so Path(key) stays inside
// its bucket whatever a caller passes.
func pathSafe(key string) bool {
	return !strings.ContainsAny(key, `/\`) && !strings.HasPrefix(key, ".")
}

// Dir returns the cache's root directory.
func (c *DirCache) Dir() string { return c.dir }

// Path returns the entry file a key maps to (the key's first two hex
// digits name the bucket).
func (c *DirCache) Path(key string) string {
	bucket := "00"
	if len(key) >= 2 {
		bucket = key[:2]
	}
	return filepath.Join(c.dir, bucket, key+".json")
}

// Get implements campaign.ShardCache. A hit is one bounded read of the
// entry file (readEntry) and one json.Unmarshal. Every failure mode —
// unreadable file, an entry at or over MaxShardResultBytes, invalid JSON,
// a key mismatch from a renamed or partially written entry — is a miss;
// the damaged file is removed best-effort so the next Put heals it.
func (c *DirCache) Get(key string) (*campaign.ShardResult, bool) {
	if !pathSafe(key) {
		return nil, false
	}
	path := c.Path(key)
	data, err := readEntry(path)
	if err != nil && !errors.Is(err, errEntryTooLarge) {
		return nil, false
	}
	var ent diskEntry
	if err != nil || json.Unmarshal(data, &ent) != nil || ent.Key != key || ent.Error != "" {
		os.Remove(path)
		if c.lru != nil {
			c.lru.remove(key)
		}
		return nil, false
	}
	if c.lru != nil {
		c.lru.put(key, struct{}{}, int64(len(data)))
	}
	return ent.Result(), true
}

// entryReadSize is readEntry's first buffer: a clean shard's entry is
// about 100 bytes, so nearly every read fits it and never sizes the file.
const entryReadSize = 512

// errEntryTooLarge marks an entry file of MaxShardResultBytes or more:
// no Put writes one, so it is damage.
var errEntryTooLarge = errors.New("farmd: cache entry over MaxShardResultBytes")

// readEntry reads a whole entry file through package syscall — open,
// reads until one returns 0, close — without the os.File set-up, stat and
// second read os.ReadFile pays for a ~100-byte file. Only a file that
// fills the first buffer is sized (by seeking to its end: package syscall
// has no fstat on every platform), and the buffer never grows past
// MaxShardResultBytes, so a planted or damaged file of any size costs at
// most the cap in memory. Interrupted calls are retried as package os does.
func readEntry(path string) ([]byte, error) {
	fd, err := syscall.Open(path, syscall.O_RDONLY|syscall.O_CLOEXEC, 0)
	for err == syscall.EINTR {
		fd, err = syscall.Open(path, syscall.O_RDONLY|syscall.O_CLOEXEC, 0)
	}
	if err != nil {
		return nil, err
	}
	defer syscall.Close(fd)
	buf := make([]byte, 0, entryReadSize)
	sized := false
	for {
		if len(buf) == cap(buf) {
			if len(buf) >= MaxShardResultBytes {
				return nil, errEntryTooLarge
			}
			grow := 2 * len(buf) // the file grew since it was sized
			if !sized {
				sized = true
				size, err := syscall.Seek(fd, 0, io.SeekEnd)
				if err == nil {
					_, err = syscall.Seek(fd, int64(len(buf)), io.SeekStart)
				}
				if err != nil {
					return nil, err
				}
				if size >= MaxShardResultBytes {
					return nil, errEntryTooLarge
				}
				grow = max(int(size)+1, len(buf)+1) // +1: the read that returns 0 needs room
			}
			buf = append(make([]byte, 0, min(grow, MaxShardResultBytes)), buf...)
		}
		n, err := syscall.Read(fd, buf[len(buf):cap(buf)])
		switch {
		case err == syscall.EINTR:
		case err != nil:
			return nil, err
		case n == 0:
			return buf, nil
		default:
			buf = buf[:len(buf)+n]
		}
	}
}

// Put implements campaign.ShardCache with an atomic write: concurrent
// writers race benignly (last rename wins, every version is a valid
// entry), and readers never observe a partial file.
func (c *DirCache) Put(key string, res *campaign.ShardResult) {
	if res == nil || res.Err != nil || !pathSafe(key) {
		return
	}
	data, err := json.Marshal(diskEntry{Key: key, WireShardResult: WireResult(res)})
	if err != nil {
		return
	}
	path := c.Path(key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), key+".tmp*")
	if err != nil {
		return
	}
	_, werr := tmp.Write(data)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		return
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return
	}
	if c.lru != nil {
		c.lru.put(key, struct{}{}, int64(len(data)))
	}
}

// Flusher is the optional cache interface graceful shutdown drives:
// caches that buffer state (the disk tier's directory metadata) persist it
// durably before the process exits.
type Flusher interface {
	Flush() error
}

// Flush implements Flusher: it fsyncs the root and bucket directories so
// every rename Put ever performed is durable, not just visible. Entry
// files themselves are written atomically by Put; what a crash can lose
// without the directory syncs is the rename itself.
func (c *DirCache) Flush() error {
	dirs := []string{c.dir}
	if buckets, err := os.ReadDir(c.dir); err == nil {
		for _, b := range buckets {
			if b.IsDir() {
				dirs = append(dirs, filepath.Join(c.dir, b.Name()))
			}
		}
	}
	var firstErr error
	for _, dir := range dirs {
		d, err := os.Open(dir)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if err := d.Sync(); err != nil && firstErr == nil {
			firstErr = err
		}
		d.Close()
	}
	return firstErr
}

// Tiered layers a fast cache (typically MemCache) over a slow one
// (typically DirCache): reads promote slow-tier hits into the fast tier,
// writes go to both. It is how dfarmd combines a bounded hot set with
// unbounded persistence.
type Tiered struct {
	fast campaign.ShardCache
	slow campaign.ShardCache
}

// NewTiered returns a two-tier cache over fast and slow.
func NewTiered(fast, slow campaign.ShardCache) *Tiered {
	return &Tiered{fast: fast, slow: slow}
}

// Get implements campaign.ShardCache.
func (c *Tiered) Get(key string) (*campaign.ShardResult, bool) {
	if res, ok := c.fast.Get(key); ok {
		return res, true
	}
	res, ok := c.slow.Get(key)
	if ok {
		c.fast.Put(key, res)
	}
	return res, ok
}

// Put implements campaign.ShardCache.
func (c *Tiered) Put(key string, res *campaign.ShardResult) {
	c.slow.Put(key, res)
	c.fast.Put(key, res)
}

// Flush implements Flusher, flushing whichever tiers buffer state.
func (c *Tiered) Flush() error {
	var firstErr error
	for _, tier := range []campaign.ShardCache{c.fast, c.slow} {
		if f, ok := tier.(Flusher); ok {
			if err := f.Flush(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	return firstErr
}
