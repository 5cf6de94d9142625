package farmd

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
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

// diskEntry is DirCache's form of one shard result: the wire form under the
// key it was stored at, one line of a segment. The embedded key lets Get
// skip a line copied from another key or another segment; results with
// harness errors are never persisted, so a written line carries no error
// field and one that does is damage. Verify cells serialize all their
// deterministic fields; solve wall time is excluded at the type level
// (VerifyCell.SolveMS is json:"-"), so cached replays never leak one run's
// timing into another's report.
type diskEntry struct {
	Key string `json:"key"`
	WireShardResult
}

// Bounds of the disk tier.
const (
	// maxSegmentBytes caps a segment file: a Put that would take its segment
	// to the cap is not persisted, and a segment at or over it is damage —
	// a miss that removes the file without reading it. About 300 000 clean
	// shard results fit under it.
	maxSegmentBytes = 32 << 20

	// readAhead is how many segments, the ones read last, DirCache keeps
	// decoded in memory.
	readAhead = 8
)

// DirCache is an on-disk campaign.ShardCache that keeps each job's shard
// results in one append-only segment file, <job>.seg in a root directory:
// the job part of an engine-issued key is its last 32 hex digits
// (campaign.ShardKey), and any other key is a segment of its own. The root
// holds one file per job, not one per shard, so it needs no bucket
// directories, whose creation would cost a fresh cache a mkdir per job.
//
// A Put appends one line — a newline, then the shard's diskEntry — in one
// O_APPEND write, under the segment's lock, so a torn tail never swallows
// the next record. A Get reads its segment once, with one bounded read, and
// keeps the records of the readAhead segments read last, so the job's
// other shards cost no system call; Puts go through the same read-ahead.
// A line that does not decode, names another key or carries an error is
// skipped, and of a key's valid lines the last wins: damage costs
// re-execution, never a wrong row. So does a record the read-ahead misses (another process
// appended it after the read), because keys are content addresses.
//
// With a byte cap (NewDirCacheLimit) the directory is a size-bounded LRU of
// segments: opening the cache scans existing segments (oldest-modified =
// least recent), Get and Put refresh a segment's recency, and a Put evicts
// whole least recently used segments once the cap is exceeded — so a
// long-running daemon's disk footprint stays bounded. Without a cap the
// directory only grows; it is the persistent tier a daemon restart warms
// from.
type DirCache struct {
	dir string

	ahead *lru[*segment] // the readAhead segments used last, by name

	mu    sync.Mutex
	dirty map[string]bool // the paths of segments appended since the last Flush; guarded by mu

	// LRU accounting by segment-file bytes, nil without a cap.
	lru *lru[struct{}]

	evictions, evictedBytes *obs.Counter // nil = uncounted; guarded by lru.mu
}

// segment is what the read-ahead holds of one segment file. Its lock
// serializes the file's read and appends, and guards recs, so Gets and Puts
// of different jobs never wait for one another.
type segment struct {
	mu   sync.Mutex
	read bool  // the file has been read into recs
	size int64 // bytes of the file as read, plus this process's appends
	recs map[string]record
}

// record is one key's last valid line: decoded, or as Put wrote it until a
// Get decodes it.
type record struct {
	res  *campaign.ShardResult
	line []byte
}

// NewDirCache opens (creating if needed) an unbounded on-disk cache rooted
// at dir.
func NewDirCache(dir string) (*DirCache, error) {
	return NewDirCacheLimit(dir, 0)
}

// NewDirCacheLimit opens (creating if needed) an on-disk cache rooted at
// dir, holding at most maxBytes of segment files (0 = unbounded). Existing
// segments are scanned in modification-time order to seed the recency
// list, and evicted oldest-first if they already exceed the cap.
func NewDirCacheLimit(dir string, maxBytes int64) (*DirCache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("farmd: cache dir: %w", err)
	}
	c := &DirCache{dir: dir, ahead: newLRU[*segment](readAhead, nil), dirty: map[string]bool{}}
	if maxBytes > 0 {
		// Eviction runs under the list's lock from a Get or Put holding
		// another segment's lock. A goroutine still holding the evicted
		// segment appends to a new file: a later miss, never a wrong row.
		c.lru = newLRU[struct{}](maxBytes, func(name string, size int64) {
			os.Remove(c.segmentPath(name))
			c.ahead.remove(name)
			c.evictions.Inc()
			c.evictedBytes.Add(float64(size))
		})
		if err := c.scan(); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// scan seeds the LRU accounting from the segments already on disk, sorted
// by modification time, oldest first, so the least recently written
// survivors of the previous process are the first eviction candidates. It
// also removes the bucket directories earlier binaries left (legacyBucket).
func (c *DirCache) scan() error {
	type stat struct {
		name  string
		size  int64
		mtime time.Time
	}
	var stats []stat
	files, err := os.ReadDir(c.dir)
	if err != nil {
		return fmt.Errorf("farmd: cache dir: %w", err)
	}
	for _, f := range files {
		if f.IsDir() && legacyBucket.MatchString(f.Name()) {
			c.removeLegacyBucket(f.Name())
			continue
		}
		name, ok := strings.CutSuffix(f.Name(), ".seg")
		if f.IsDir() || !ok || !pathSafe(name) {
			continue
		}
		info, err := f.Info()
		if err != nil {
			continue
		}
		stats = append(stats, stat{name: name, size: info.Size(), mtime: info.ModTime()})
	}
	sort.Slice(stats, func(i, j int) bool { return stats[i].mtime.Before(stats[j].mtime) })
	for _, s := range stats {
		c.lru.put(s.name, struct{}{}, s.size)
	}
	return nil
}

// legacyBucket names the directories earlier binaries fanned per-shard
// <key>.json files into: the first two hex digits of the key. The build salt
// in every key makes those files unreachable.
var legacyBucket = regexp.MustCompile(`^[0-9a-f]{2}$`)

// removeLegacyBucket removes the bucket's <key>.json files whose key is a
// shard key, then the directory if that left it empty; anything else in it
// stays, and so does the directory.
func (c *DirCache) removeLegacyBucket(bucket string) {
	dir := filepath.Join(c.dir, bucket)
	files, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, f := range files {
		if key, ok := strings.CutSuffix(f.Name(), ".json"); ok && !f.IsDir() && ValidShardKey(key) {
			os.Remove(filepath.Join(dir, f.Name()))
		}
	}
	os.Remove(dir) // refused unless empty
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

// Len returns the number of tracked segments (bounded caches only).
func (c *DirCache) Len() int {
	if c.lru == nil {
		return 0
	}
	n, _ := c.lru.size()
	return n
}

// Size returns the tracked segment bytes (bounded caches only).
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

// pathSafe reports whether key can name a segment file in the cache root:
// not empty, no path separator and no leading dot, so Path(key) stays in
// the root whatever a caller passes.
func pathSafe(key string) bool {
	return key != "" && !strings.ContainsAny(key, `/\`) && !strings.HasPrefix(key, ".")
}

// segmentOf returns the name of the segment key's record lives in: the job
// part of a 64-hex-digit key, its last 32 digits, and any other key itself.
// A segment name is as path-safe as its key.
func segmentOf(key string) string {
	if len(key) != 64 {
		return key
	}
	for i := 0; i < len(key); i++ {
		if c := key[i]; (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return key
		}
	}
	return key[32:]
}

// Dir returns the cache's root directory.
func (c *DirCache) Dir() string { return c.dir }

// Path returns the segment file that holds key's record.
func (c *DirCache) Path(key string) string { return c.segmentPath(segmentOf(key)) }

func (c *DirCache) segmentPath(name string) string {
	return filepath.Join(c.dir, name+".seg")
}

// Get implements campaign.ShardCache. The first Get or Put of a segment
// reads it (segment); later ones are answered from the read-ahead. A record
// a Put appended is decoded on its first Get, so a replay reads back
// exactly what a restarted daemon would.
func (c *DirCache) Get(key string) (*campaign.ShardResult, bool) {
	if !pathSafe(key) {
		return nil, false
	}
	name := segmentOf(key)
	seg := c.segment(name)
	defer seg.mu.Unlock()
	rec, ok := seg.recs[key]
	if !ok {
		return nil, false
	}
	if rec.res == nil {
		var ent diskEntry
		if json.Unmarshal(rec.line, &ent) != nil { // Put marshaled it: cannot happen
			delete(seg.recs, key)
			return nil, false
		}
		rec = record{res: ent.Result()}
		seg.recs[key] = rec
	}
	if c.lru != nil {
		c.lru.get(name)
	}
	return rec.res, true
}

// segment returns the named segment locked, from the read-ahead, reading
// its file when it is not there yet. A segment that does not exist or
// cannot be read is empty; one at or over maxSegmentBytes is damage, and
// its file is removed.
func (c *DirCache) segment(name string) *segment {
	seg, ok := c.ahead.get(name)
	if !ok {
		seg = c.ahead.getOrPut(name, &segment{recs: map[string]record{}}, 1)
	}
	seg.mu.Lock()
	if seg.read {
		return seg
	}
	seg.read = true
	path := c.segmentPath(name)
	data, err := readSegment(path)
	switch {
	case errors.Is(err, errSegmentTooLarge):
		os.Remove(path)
		if c.lru != nil {
			c.lru.remove(name)
		}
	case err == nil:
		seg.size = int64(len(data))
		seg.decode(name, data)
		if c.lru != nil {
			c.lru.put(name, struct{}{}, seg.size)
		}
	}
	return seg
}

// decode keeps, of every key of the named segment, the last line of data
// that decodes under that key with no error.
func (seg *segment) decode(name string, data []byte) {
	for len(data) > 0 {
		var line []byte
		line, data, _ = bytes.Cut(data, []byte{'\n'})
		if len(line) == 0 {
			continue
		}
		var ent diskEntry
		if json.Unmarshal(line, &ent) != nil || ent.Error != "" || !pathSafe(ent.Key) || segmentOf(ent.Key) != name {
			continue
		}
		seg.recs[ent.Key] = record{res: ent.Result()}
	}
}

// errSegmentTooLarge marks a segment file of maxSegmentBytes or more: no
// Put writes one, so it is damage.
var errSegmentTooLarge = errors.New("farmd: cache segment over maxSegmentBytes")

// readSegment reads a segment file with one read of the size it has when
// opened; the bytes an append adds after that are not seen. A file of
// maxSegmentBytes or more is not read, so a planted or damaged file of any
// size costs nothing near its size in memory.
func readSegment(path string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if info.Size() >= maxSegmentBytes {
		return nil, errSegmentTooLarge
	}
	data := make([]byte, info.Size())
	n, err := io.ReadFull(f, data)
	if err == io.ErrUnexpectedEOF { // the file shrank since it was sized
		err = nil
	}
	return data[:n], err
}

// Put implements campaign.ShardCache: it appends key's line to its segment
// and records it in the read-ahead. A write that fails, or would take the
// segment to maxSegmentBytes, is dropped: the shard is re-executed next
// time.
func (c *DirCache) Put(key string, res *campaign.ShardResult) {
	if res == nil || res.Err != nil || !pathSafe(key) {
		return
	}
	data, err := json.Marshal(diskEntry{Key: key, WireShardResult: WireResult(res)})
	if err != nil {
		return
	}
	line := append(append(make([]byte, 0, len(data)+1), '\n'), data...)
	name := segmentOf(key)
	seg := c.segment(name)
	defer seg.mu.Unlock()
	if seg.size+int64(len(line)) >= maxSegmentBytes {
		return
	}
	path := c.segmentPath(name)
	if appendFile(path, line) != nil {
		return
	}
	seg.size += int64(len(line))
	seg.recs[key] = record{line: line[1:]}
	c.mu.Lock()
	c.dirty[path] = true
	c.mu.Unlock()
	if c.lru != nil {
		c.lru.put(name, struct{}{}, seg.size)
	}
}

// appendFile writes data to the end of the file at path in one write,
// creating the file when it does not exist.
func appendFile(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Flusher is the optional cache interface graceful shutdown drives:
// caches that buffer state (the disk tier's appends and directory
// metadata) persist it durably before the process exits.
type Flusher interface {
	Flush() error
}

// Flush implements Flusher: it fsyncs the segments appended since the last
// Flush, then the root directory, so every record Put appended and every
// segment it created is durable, not just visible.
func (c *DirCache) Flush() error {
	c.mu.Lock()
	paths := make([]string, 0, len(c.dirty))
	for path := range c.dirty {
		paths = append(paths, path)
	}
	clear(c.dirty)
	c.mu.Unlock()
	var firstErr error
	fsync := func(path string, flag int) {
		f, err := os.OpenFile(path, flag, 0)
		if err == nil {
			err = f.Sync()
			f.Close()
		}
		if err != nil && firstErr == nil && !(flag == os.O_WRONLY && errors.Is(err, fs.ErrNotExist)) { // an evicted segment is gone
			firstErr = err
		}
	}
	for _, path := range paths {
		fsync(path, os.O_WRONLY)
	}
	fsync(c.dir, os.O_RDONLY)
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
