package farmd

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"druzhba/internal/campaign"
	"druzhba/internal/core"
	"druzhba/internal/spec"
)

func res(checked int) *campaign.ShardResult {
	return &campaign.ShardResult{Checked: checked, Ticks: int64(checked) * 3,
		Findings: []campaign.Finding{{Index: 1, Input: "{in}", Got: "{g}", Want: "{w}"}}}
}

func TestMemCacheLRUEviction(t *testing.T) {
	c := NewMemCache(2)
	c.Put("a", res(1))
	c.Put("b", res(2))
	if _, ok := c.Get("a"); !ok { // touch a: b becomes LRU
		t.Fatal("a missing before eviction")
	}
	c.Put("c", res(3))
	if _, ok := c.Get("b"); ok {
		t.Fatal("b survived eviction despite being least recently used")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("recently used a was evicted")
	}
	if _, ok := c.Get("c"); !ok {
		t.Fatal("newest entry c missing")
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d, want 2", c.Len())
	}
}

func TestMemCacheRejectsErroredResults(t *testing.T) {
	c := NewMemCache(4)
	c.Put("err", &campaign.ShardResult{Err: errors.New("boom")})
	if _, ok := c.Get("err"); ok {
		t.Fatal("errored result was cached")
	}
}

func TestDirCacheRoundtrip(t *testing.T) {
	c, err := NewDirCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	want := res(42)
	c.Put("deadbeef", want)
	got, ok := c.Get("deadbeef")
	if !ok {
		t.Fatal("entry missing after Put")
	}
	if got.Checked != want.Checked || got.Ticks != want.Ticks || len(got.Findings) != 1 || got.Findings[0] != want.Findings[0] {
		t.Fatalf("roundtrip mismatch: %+v != %+v", got, want)
	}
	if got.Err != nil {
		t.Fatalf("roundtrip grew an error: %v", got.Err)
	}
	if _, ok := c.Get("cafebabe"); ok {
		t.Fatal("phantom hit for unknown key")
	}
}

// jobKey returns the engine-shaped key of shard seed of the job whose digest
// part is job (32 hex digits): its records share one segment.
func jobKey(job string, seed int) string { return fmt.Sprintf("%016x%016x%s", seed, 128, job) }

// segmentLines returns a segment file's lines, the empty one before the
// first record dropped.
func segmentLines(t *testing.T, path string) [][]byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Split(bytes.TrimPrefix(data, []byte{'\n'}), []byte{'\n'})
}

// writeSegment writes lines as a segment file, each after a newline.
func writeSegment(t *testing.T, path string, lines ...[]byte) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	var data []byte
	for _, l := range lines {
		data = append(append(data, '\n'), l...)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// reopen returns a new DirCache over c's directory: a restarted daemon,
// whose read-ahead holds nothing.
func reopen(t *testing.T, c *DirCache) *DirCache {
	t.Helper()
	c2, err := NewDirCache(c.Dir())
	if err != nil {
		t.Fatal(err)
	}
	return c2
}

// TestDirCacheDamagedEntriesAreMisses: a garbage, truncated or mislabeled
// line of a segment reads as a miss to a restarted cache, the segment's
// other records still read back, and a Put after the damage is served
// again, so a damaged cache can never replay a wrong row.
func TestDirCacheDamagedEntriesAreMisses(t *testing.T) {
	job, other := strings.Repeat("ab", 16), strings.Repeat("cd", 16)
	damage := map[string]func(t *testing.T, c *DirCache){ // each damages jobKey(job, 1)
		"garbage": func(t *testing.T, c *DirCache) {
			lines := segmentLines(t, c.Path(jobKey(job, 1)))
			lines[1] = []byte("not json at all")
			writeSegment(t, c.Path(jobKey(job, 1)), lines...)
		},
		"truncated": func(t *testing.T, c *DirCache) {
			lines := segmentLines(t, c.Path(jobKey(job, 1)))
			lines[1] = lines[1][:len(lines[1])/2]
			writeSegment(t, c.Path(jobKey(job, 1)), lines...)
		},
		"mislabeled": func(t *testing.T, c *DirCache) {
			// The record moves to another job's segment, under its own key.
			lines := segmentLines(t, c.Path(jobKey(job, 1)))
			writeSegment(t, c.Path(jobKey(other, 1)), lines[1])
			writeSegment(t, c.Path(jobKey(job, 1)), lines[0], lines[2])
		},
	}
	for name, corrupt := range damage {
		t.Run(name, func(t *testing.T) {
			c, err := NewDirCache(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			for i := range 3 {
				c.Put(jobKey(job, i), res(7+i))
			}
			corrupt(t, c)
			c = reopen(t, c)
			for _, key := range []string{jobKey(job, 1), jobKey(other, 1)} {
				if got, ok := c.Get(key); ok {
					t.Fatalf("%s line served as a hit under %s: %+v", name, key, got)
				}
			}
			for _, i := range []int{0, 2} {
				if got, ok := c.Get(jobKey(job, i)); !ok || got.Checked != 7+i {
					t.Fatalf("record %d beside the %s line reads %+v, %v", i, name, got, ok)
				}
			}
			c.Put(jobKey(job, 1), res(8))
			if got, ok := reopen(t, c).Get(jobKey(job, 1)); !ok || got.Checked != 8 {
				t.Fatalf("record put after the damage reads %+v, %v", got, ok)
			}
		})
	}
}

// TestDirCacheNeverLeavesItsRoot: a key with a path separator or a leading
// dot maps to no segment file — Get misses without reading (or deleting) what
// the traversed path names, Put drops the write — for the bounded and the
// unbounded cache alike.
func TestDirCacheNeverLeavesItsRoot(t *testing.T) {
	for _, limit := range []int64{0, 1 << 20} {
		root := t.TempDir()
		c, err := NewDirCacheLimit(filepath.Join(root, "a", "cache"), limit)
		if err != nil {
			t.Fatal(err)
		}
		for _, key := range []string{"../victim", "..", "../../a/victim", `..\victim`, "ab/../../../victim", ".hidden", "/etc/victim"} {
			// Where the traversed path stays under the test's own directory,
			// plant a file there; it must survive.
			victim := c.Path(key)
			if !strings.HasPrefix(victim, root+string(filepath.Separator)) {
				victim = ""
			} else if err := os.MkdirAll(filepath.Dir(victim), 0o755); err != nil {
				t.Fatal(err)
			} else if err := os.WriteFile(victim, []byte("precious"), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, ok := c.Get(key); ok {
				t.Fatalf("limit %d: Get(%q) hit", limit, key)
			}
			c.Put(key, res(7))
			if _, ok := c.Get(key); ok {
				t.Fatalf("limit %d: Put(%q) stored an entry", limit, key)
			}
			if victim == "" {
				continue
			}
			if got, err := os.ReadFile(victim); err != nil || string(got) != "precious" {
				t.Fatalf("limit %d: key %q touched %s: %q, %v", limit, key, victim, got, err)
			}
		}
		if c.Len() != 0 {
			t.Fatalf("limit %d: %d entries tracked for keys that map to no file", limit, c.Len())
		}
	}
}

func TestTieredPromotesDiskHits(t *testing.T) {
	mem := NewMemCache(4)
	disk, err := NewDirCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c := NewTiered(mem, disk)
	c.Put("k", res(5))
	if mem.Len() != 1 {
		t.Fatal("Put did not reach the fast tier")
	}
	if _, ok := disk.Get("k"); !ok {
		t.Fatal("Put did not reach the slow tier")
	}

	// A fresh fast tier (daemon restart) warms from disk on first Get.
	mem2 := NewMemCache(4)
	c2 := NewTiered(mem2, disk)
	if _, ok := c2.Get("k"); !ok {
		t.Fatal("disk entry not served after restart")
	}
	if mem2.Len() != 1 {
		t.Fatal("disk hit not promoted into the fast tier")
	}
}

// TestDirCacheCorruptionFallsBackToExecution drives the recovery path
// through the real engine: damage one record of one job's segment between
// a cold run and a restarted cache's warm run, and the warm run must
// re-execute exactly that shard while producing a byte-identical report.
func TestDirCacheCorruptionFallsBackToExecution(t *testing.T) {
	cache, err := NewDirCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	req := &MatrixRequest{Arch: "all", Run: "counter", Packets: 600, ShardSize: 128}
	jobs, err := req.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	opts := campaign.Options{Workers: 2, ShardSize: 128, Cache: cache}

	cold, err := campaign.Run(context.Background(), jobs, opts)
	if err != nil {
		t.Fatal(err)
	}
	var segments []string
	records := 0
	filepath.Walk(cache.Dir(), func(path string, info os.FileInfo, err error) error { //nolint:errcheck // test walk
		if err == nil && !info.IsDir() {
			segments = append(segments, path)
			records += len(segmentLines(t, path))
		}
		return nil
	})
	if int64(records) != cold.Cache.Misses || len(segments) != len(jobs) {
		t.Fatalf("disk holds %d records in %d segments after %d executed shards of %d jobs", records, len(segments), cold.Cache.Misses, len(jobs))
	}
	lines := segmentLines(t, segments[0])
	var victim diskEntry
	if err := json.Unmarshal(lines[0], &victim); err != nil {
		t.Fatal(err)
	}
	lines[0] = []byte(`{"key":"tampered"`)
	writeSegment(t, segments[0], lines...)

	opts.Cache = reopen(t, cache)
	warm, err := campaign.Run(context.Background(), jobs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Cache.Misses != 1 || warm.Cache.Hits != cold.Cache.Misses-1 {
		t.Fatalf("warm stats %+v after corrupting one of %d records", warm.Cache, cold.Cache.Misses)
	}
	if warm.Text(false) != cold.Text(false) {
		t.Fatal("warm report differs after corruption fallback")
	}
	// The re-execution healed the damaged record.
	if _, ok := reopen(t, cache).Get(victim.Key); !ok {
		t.Fatal("corrupted record not rewritten by the warm run")
	}
}

// TestDirCacheEntryBytesGolden pins the disk tier's record format: each line
// Put appends to a segment is byte for byte the entry file the per-shard
// layout wrote (the strings below were captured from it), after the newline
// that starts every record, and reads back to the result it was written
// from. A line carrying an error field was not written by Put (errored
// results are never persisted) and is damage.
func TestDirCacheEntryBytesGolden(t *testing.T) {
	golden := []struct {
		key, line string
		res       *campaign.ShardResult
	}{
		{"aa01", `{"key":"aa01","checked":128,"ticks":640}`,
			&campaign.ShardResult{Checked: 128, Ticks: 640}},
		{"bb02", `{"key":"bb02","checked":64,"ticks":320,"findings":[{"index":3,"input":"[1 2]","got":"[1 3]","want":"[1 2]"}]}`,
			&campaign.ShardResult{Checked: 64, Ticks: 320, Findings: []campaign.Finding{{Index: 3, Input: "[1 2]", Got: "[1 3]", Want: "[1 2]"}}}},
		{"cc03", `{"key":"cc03","checked":1,"ticks":0,"cells":[{"bits":4,"steps":2,"verdict":"equivalent","vars":10,"clauses":20,"conflicts":3},{"bits":6,"steps":1,"verdict":"counterexample","vars":7,"clauses":9,"conflicts":0,"trace":[[1,2]],"fail_step":1}]}`,
			&campaign.ShardResult{Checked: 1, Cells: []campaign.VerifyCell{
				{Bits: 4, Steps: 2, Verdict: "equivalent", Vars: 10, Clauses: 20, Conflicts: 3, SolveMS: 1.5},
				{Bits: 6, Steps: 1, Verdict: "counterexample", Vars: 7, Clauses: 9, Trace: [][]int64{{1, 2}}, FailStep: 1},
			}}},
	}
	c, err := NewDirCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range golden {
		c.Put(g.key, g.res)
		data, err := os.ReadFile(c.Path(g.key))
		if err != nil {
			t.Fatal(err)
		}
		if string(data) != "\n"+g.line {
			t.Errorf("Put(%s) wrote\n %q\nwant a newline, then the per-shard layout's bytes\n %s", g.key, data, g.line)
		}
		got, ok := reopen(t, c).Get(g.key)
		if !ok {
			t.Fatalf("record %s reads as a miss", g.key)
		}
		want := *g.res
		want.Cells = append([]campaign.VerifyCell(nil), want.Cells...)
		for i := range want.Cells {
			want.Cells[i].SolveMS = 0 // never serialized
		}
		if !reflect.DeepEqual(got, &want) {
			t.Errorf("record %s reads back %+v, want %+v", g.key, got, &want)
		}
	}

	writeSegment(t, c.Path("dd04"), []byte(`{"key":"dd04","checked":9,"ticks":9,"error":"boom"}`))
	if res, ok := c.Get("dd04"); ok {
		t.Fatalf("record with an error field served as a hit: %+v", res)
	}
}

// TestDirCacheOversizedEntryIsAMiss: a segment of maxSegmentBytes or more
// was not written by Put, so it is damage — a miss whose file is removed —
// and reading it costs nothing near its size: Get allocates well under the
// cap for a sparse file of the cap's size. A Put that would take a segment
// to the cap is dropped.
func TestDirCacheOversizedEntryIsAMiss(t *testing.T) {
	c, err := NewDirCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const key = "aa01"
	c.Put(key, res(7))
	path := c.Path(key)
	if err := os.Truncate(path, maxSegmentBytes); err != nil {
		t.Fatal(err)
	}
	c = reopen(t, c)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got, ok := c.Get(key)
	runtime.ReadMemStats(&after)
	if ok {
		t.Fatalf("oversized segment served as a hit: %+v", got)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("oversized segment not removed")
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Fatalf("Get of an oversized segment allocated %d bytes", alloc)
	}

	writeSegment(t, path, bytes.Repeat([]byte{'x'}, maxSegmentBytes-32))
	c = reopen(t, c)
	c.Put(key, res(7))
	if info, err := os.Stat(path); err != nil || info.Size() != maxSegmentBytes-31 {
		t.Fatalf("a Put past the cap grew the segment: %v, %v", info, err)
	}
	if got, ok := c.Get(key); ok {
		t.Fatalf("a Put past the cap is served: %+v", got)
	}
}

// TestDirCacheGrowthRoundTrip: records of every size up to a quarter MiB —
// one, many short ones, ones over 64 KiB — share one segment and read back
// to the results Put wrote, to the cache that wrote them and to a
// restarted one.
func TestDirCacheGrowthRoundTrip(t *testing.T) {
	c, err := NewDirCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	job := strings.Repeat("0f", 16)
	// sized returns a result whose line under key is exactly size bytes,
	// padding one finding's input.
	sized := func(key string, findings, size int) *campaign.ShardResult {
		r := &campaign.ShardResult{Checked: 4096, Ticks: 4100}
		for i := 0; i < findings; i++ {
			r.Findings = append(r.Findings, campaign.Finding{Index: i, Input: "[1 2]", Got: "[1 3]", Want: "[1 2]"})
		}
		data, err := json.Marshal(diskEntry{Key: key, WireShardResult: WireResult(r)})
		if err != nil || len(data) > size {
			t.Fatalf("%d findings already need %d bytes (%v)", findings, len(data), err)
		}
		r.Findings[0].Input += strings.Repeat("x", size-len(data))
		return r
	}
	want := map[string]*campaign.ShardResult{}
	total := 0
	for i, e := range []struct{ findings, size int }{
		{1, 512},
		{1, 513},
		{1, 64<<10 + 1},
		{2000, 256 << 10},
	} {
		key := jobKey(job, i)
		want[key] = sized(key, e.findings, e.size)
		c.Put(key, want[key])
		total += 1 + e.size
	}
	if info, err := os.Stat(c.Path(jobKey(job, 0))); err != nil || info.Size() != int64(total) {
		t.Fatalf("segment: %v, want %d bytes (%v)", info, total, err)
	}
	for _, cache := range []*DirCache{c, reopen(t, c)} {
		for key, w := range want {
			got, ok := cache.Get(key)
			if !ok {
				t.Fatalf("%s reads as a miss", key)
			}
			if !reflect.DeepEqual(got, w) {
				t.Fatalf("%s reads back differently", key)
			}
		}
	}
}

// TestDirCacheReadsAJobOnce: a restarted cache reads a job's segment on the
// first Get of the job, and answers every later Get of it from the
// read-ahead — with the file gone, they still hit.
func TestDirCacheReadsAJobOnce(t *testing.T) {
	c, err := NewDirCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	job := strings.Repeat("5a", 16)
	for i := range 49 {
		c.Put(jobKey(job, i), res(i))
	}
	c = reopen(t, c)
	if _, ok := c.Get(jobKey(job, 0)); !ok {
		t.Fatal("first shard of the job missing")
	}
	if err := os.Remove(c.Path(jobKey(job, 0))); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 49; i++ {
		if got, ok := c.Get(jobKey(job, i)); !ok || got.Checked != i {
			t.Fatalf("shard %d of a job already read: %+v, %v", i, got, ok)
		}
	}
}

// TestDirCacheConcurrentSegment runs 8 goroutines that Put and Get records
// of one job at once (run it with -race): each reads back what it put, and
// a restarted cache reads every record. A torn tail then costs only the
// torn record: a Put after it is served to the next restart.
func TestDirCacheConcurrentSegment(t *testing.T) {
	c, err := NewDirCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	job := strings.Repeat("e7", 16)
	const goroutines, each = 8, 16
	var wg sync.WaitGroup
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range each {
				key := jobKey(job, g*each+i)
				c.Put(key, res(g*each+i))
				if got, ok := c.Get(key); !ok || got.Checked != g*each+i {
					t.Errorf("%s reads back %+v, %v", key, got, ok)
				}
			}
		}()
	}
	wg.Wait()
	c = reopen(t, c)
	for i := range goroutines * each {
		if got, ok := c.Get(jobKey(job, i)); !ok || got.Checked != i {
			t.Fatalf("record %d reads %+v, %v after a restart", i, got, ok)
		}
	}

	path := c.Path(jobKey(job, 0))
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, info.Size()-5); err != nil {
		t.Fatal(err)
	}
	c = reopen(t, c)
	fresh := jobKey(job, goroutines*each)
	c.Put(fresh, res(1000))
	c = reopen(t, c)
	if got, ok := c.Get(fresh); !ok || got.Checked != 1000 {
		t.Fatalf("record put after a torn tail reads %+v, %v", got, ok)
	}
	torn := 0
	for i := range goroutines * each {
		if _, ok := c.Get(jobKey(job, i)); !ok {
			torn++
		}
	}
	if torn != 1 {
		t.Fatalf("a torn tail cost %d records, want 1", torn)
	}
}

// TestDirCacheConcurrentEviction: goroutines putting and getting records
// of four jobs into a cache capped near two segments evict segments others
// are using (run it with -race): a Get may miss, but a hit is the record
// put under its key, and the tracked size ends within the cap.
func TestDirCacheConcurrentEviction(t *testing.T) {
	const perJob = 8
	line, err := json.Marshal(diskEntry{Key: jobKey(strings.Repeat("0", 32), 0), WireShardResult: WireResult(res(perJob - 1))})
	if err != nil {
		t.Fatal(err)
	}
	segment := int64(perJob * (len(line) + 1)) // at most: no record's line is longer
	c, err := NewDirCacheLimit(t.TempDir(), 2*segment)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			job := fmt.Sprintf("%032x", g%4)
			for i := range perJob {
				key := jobKey(job, i)
				c.Put(key, res(i))
				if got, ok := c.Get(key); ok && got.Checked != i {
					t.Errorf("%s reads back %+v", key, got)
				}
			}
		}()
	}
	wg.Wait()
	if c.Size() > 2*segment {
		t.Fatalf("size %d past a cap of %d", c.Size(), 2*segment)
	}
}

// TestReplayedShardAllocations pins what a shard the cache replays costs the
// engine: campaign.Run over a matrix a MemCache fully holds, at N and at 2N
// shards per job, allocates at most 2 more per extra shard — its key, and
// nothing to claim, look up, land or merge it.
func TestReplayedShardAllocations(t *testing.T) {
	const shardSize, n = 64, 200
	cache := NewMemCache(0)
	allocs := func(shards int) float64 {
		jobs, err := campaign.Matrix(spec.Match("sampling"), []core.OptLevel{core.Compiled, core.SCCPropagation}, nil, []int64{1}, shards*shardSize)
		if err != nil {
			t.Fatal(err)
		}
		opts := campaign.Options{Workers: 2, ShardSize: shardSize, Cache: cache}
		if _, err := campaign.Run(context.Background(), jobs, opts); err != nil { // fill the cache
			t.Fatal(err)
		}
		return testing.AllocsPerRun(20, func() {
			rep, err := campaign.Run(context.Background(), jobs, opts)
			if err != nil || !rep.Passed || rep.Cache.Misses != 0 || rep.Cache.Hits != int64(len(jobs)*shards) {
				panic(fmt.Sprintf("warm run: err %v, report %+v", err, rep))
			}
		})
	}
	base, double := allocs(n), allocs(2*n)
	perShard := (double - base) / float64(2*n) // two jobs, n extra shards each
	t.Logf("%d shards: %.0f allocs; %d shards: %.0f allocs; %.2f per extra shard", 2*n, base, 4*n, double, perShard)
	if perShard > 2 {
		t.Errorf("a replayed shard allocates %.2f times, want at most 2", perShard)
	}
}

// TestDirCacheScanRemovesLegacyBuckets: earlier binaries kept one
// <key>.json file per shard in a directory named by the key's first two hex
// digits ("00" for a key of another shape). A bounded cache's open removes
// those files and then each bucket they emptied; a bucket that holds anything
// else keeps it, and an unrelated file, an unrelated directory and every
// segment stay. A second open finds nothing more to remove.
func TestDirCacheScanRemovesLegacyBuckets(t *testing.T) {
	dir := t.TempDir()
	warm, err := NewDirCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	segKeys := []string{strings.Repeat("1", 32) + strings.Repeat("a", 32), "0123456789abcdef"}
	for i, k := range segKeys {
		warm.Put(k, res(i+1))
	}
	jobKey := strings.Repeat("ab", 32)
	write := func(rel, body string) {
		path := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	gone := []string{"ab/" + jobKey + ".json", "ab/abcdef0123456789.json", "00/0123456789abcdef.json", "cd/" + strings.Repeat("cd", 32) + ".json"}
	for _, rel := range gone {
		write(rel, `{"checked":1}`)
	}
	stays := []string{
		"cd/notes.txt",            // not a shard file: its bucket stays too
		"cd/NOT-A-KEY.json",       // not a shard key
		"xyz/" + jobKey + ".json", // not a bucket
		"ABC.json",                // an unrelated file in the root
	}
	for _, rel := range stays {
		write(rel, "precious")
	}
	if err := os.MkdirAll(filepath.Join(dir, "ef", "sub"), 0o755); err != nil { // a bucket holding a directory
		t.Fatal(err)
	}
	stays = append(stays, "ef/sub")
	for _, k := range segKeys {
		stays = append(stays, strings.TrimPrefix(warm.Path(k), dir+string(filepath.Separator)))
	}
	tree := func() []string {
		var paths []string
		filepath.Walk(dir, func(path string, info os.FileInfo, err error) error { //nolint:errcheck // test walk
			if err == nil && path != dir {
				rel, _ := filepath.Rel(dir, path)
				paths = append(paths, filepath.ToSlash(rel))
			}
			return nil
		})
		return paths
	}

	c, err := NewDirCacheLimit(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	after := tree()
	for _, rel := range gone {
		if _, err := os.Stat(filepath.Join(dir, rel)); !os.IsNotExist(err) {
			t.Errorf("legacy file %s survived the open: %v", rel, err)
		}
	}
	for _, bucket := range []string{"ab", "00"} {
		if _, err := os.Stat(filepath.Join(dir, bucket)); !os.IsNotExist(err) {
			t.Errorf("emptied bucket %s survived the open: %v", bucket, err)
		}
	}
	for _, rel := range stays {
		if _, err := os.Stat(filepath.Join(dir, filepath.FromSlash(rel))); err != nil {
			t.Errorf("%s did not survive the open: %v", rel, err)
		}
	}
	if c.Len() != len(segKeys) {
		t.Errorf("%d segments tracked, want %d", c.Len(), len(segKeys))
	}
	for i, k := range segKeys {
		if got, ok := c.Get(k); !ok || got.Checked != i+1 {
			t.Errorf("segment record %s: %+v, %v", k, got, ok)
		}
	}
	if _, err := NewDirCacheLimit(dir, 1<<20); err != nil {
		t.Fatal(err)
	}
	if again := tree(); !reflect.DeepEqual(again, after) {
		t.Errorf("a second open changed the directory:\n%v\nafter the first:\n%v", again, after)
	}
}
