package farmd

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
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

// TestDirCacheDamagedEntriesAreMisses: garbage, truncated and mislabeled
// entry files all read as misses and are removed, so a damaged cache can
// never replay a wrong row.
func TestDirCacheDamagedEntriesAreMisses(t *testing.T) {
	c, err := NewDirCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	damage := map[string]func(path string){
		"garbage":   func(p string) { os.WriteFile(p, []byte("not json at all"), 0o644) },
		"truncated": func(p string) { data, _ := os.ReadFile(p); os.WriteFile(p, data[:len(data)/2], 0o644) },
		"mislabeled": func(p string) {
			other := c.Path("other-key")
			os.MkdirAll(filepath.Dir(other), 0o755)
			data, _ := os.ReadFile(p)
			os.WriteFile(other, data, 0o644) // valid entry copied under the wrong key
			os.Remove(p)
		},
	}
	for name, corrupt := range damage {
		t.Run(name, func(t *testing.T) {
			key := "key-" + name
			c.Put(key, res(7))
			if _, ok := c.Get(key); !ok {
				t.Fatal("entry missing before damage")
			}
			corrupt(c.Path(key))
			if name == "mislabeled" {
				if _, ok := c.Get("other-key"); ok {
					t.Fatal("mislabeled entry served under the wrong key")
				}
				if _, err := os.Stat(c.Path("other-key")); !os.IsNotExist(err) {
					t.Fatal("mislabeled entry not removed")
				}
				return
			}
			if _, ok := c.Get(key); ok {
				t.Fatalf("%s entry served as a hit", name)
			}
			if _, err := os.Stat(c.Path(key)); !os.IsNotExist(err) {
				t.Fatalf("%s entry not removed", name)
			}
		})
	}
}

// TestDirCacheNeverLeavesItsRoot: a key with a path separator or a leading
// dot maps to no entry file — Get misses without reading (or deleting) what
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
// through the real engine: corrupt one on-disk shard entry between a cold
// and a warm run, and the warm run must re-execute exactly that shard while
// producing a byte-identical report.
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
	var entries []string
	filepath.Walk(cache.Dir(), func(path string, info os.FileInfo, err error) error { //nolint:errcheck // test walk
		if err == nil && !info.IsDir() {
			entries = append(entries, path)
		}
		return nil
	})
	if int64(len(entries)) != cold.Cache.Misses {
		t.Fatalf("disk holds %d entries after %d executed shards", len(entries), cold.Cache.Misses)
	}
	victim := entries[0]
	victimKey := strings.TrimSuffix(filepath.Base(victim), ".json")
	if err := os.WriteFile(victim, []byte(`{"key":"tampered"`), 0o644); err != nil {
		t.Fatal(err)
	}

	warm, err := campaign.Run(context.Background(), jobs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Cache.Misses != 1 || warm.Cache.Hits != cold.Cache.Misses-1 {
		t.Fatalf("warm stats %+v after corrupting one of %d entries", warm.Cache, cold.Cache.Misses)
	}
	if warm.Text(false) != cold.Text(false) {
		t.Fatal("warm report differs after corruption fallback")
	}
	// The re-execution healed the damaged entry.
	if _, ok := cache.Get(victimKey); !ok {
		t.Fatal("corrupted entry not rewritten by the warm run")
	}
}

// TestDirCacheEntryBytesGolden pins the disk tier's file format across the
// move of diskEntry onto WireShardResult: Put writes byte for byte what the
// commit before the move wrote (the strings below were captured there), and
// those files — what a long-lived -cache-dir already holds — read back to
// the results they were written from. An entry carrying an error field was
// not written by Put (errored results are never persisted) and is damage.
func TestDirCacheEntryBytesGolden(t *testing.T) {
	golden := []struct {
		key, file string
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
	written, err := NewDirCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	inherited, err := NewDirCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range golden {
		written.Put(g.key, g.res)
		data, err := os.ReadFile(written.Path(g.key))
		if err != nil {
			t.Fatal(err)
		}
		if string(data) != g.file {
			t.Errorf("Put(%s) wrote\n %s\nwant the parent's bytes\n %s", g.key, data, g.file)
		}

		path := inherited.Path(g.key)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(g.file), 0o644); err != nil {
			t.Fatal(err)
		}
		got, ok := inherited.Get(g.key)
		if !ok {
			t.Fatalf("parent-written entry %s reads as a miss", g.key)
		}
		want := *g.res
		want.Cells = append([]campaign.VerifyCell(nil), want.Cells...)
		for i := range want.Cells {
			want.Cells[i].SolveMS = 0 // never serialized
		}
		if !reflect.DeepEqual(got, &want) {
			t.Errorf("parent-written entry %s reads back %+v, want %+v", g.key, got, &want)
		}
	}

	path := inherited.Path("dd04")
	os.MkdirAll(filepath.Dir(path), 0o755)
	os.WriteFile(path, []byte(`{"key":"dd04","checked":9,"ticks":9,"error":"boom"}`), 0o644)
	if res, ok := inherited.Get("dd04"); ok {
		t.Fatalf("entry with an error field served as a hit: %+v", res)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("entry with an error field not removed")
	}
}

// TestDirCacheOversizedEntryIsAMiss: an entry file of MaxShardResultBytes
// or more was not written by Put, so it is damage — a miss whose file is
// removed — and reading it costs nothing near its size: Get allocates well
// under the cap for a sparse file one byte over it.
func TestDirCacheOversizedEntryIsAMiss(t *testing.T) {
	c, err := NewDirCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const key = "aa01"
	c.Put(key, res(7))
	path := c.Path(key)
	if err := os.Truncate(path, MaxShardResultBytes+1); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got, ok := c.Get(key)
	runtime.ReadMemStats(&after)
	if ok {
		t.Fatalf("oversized entry served as a hit: %+v", got)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("oversized entry not removed")
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 16<<20 {
		t.Fatalf("Get of an oversized entry allocated %d bytes", alloc)
	}
}

// TestDirCacheGrowthRoundTrip: entries that fill readEntry's first buffer
// exactly, overrun it by a byte, or need many reads (over 64 KiB) read back
// to the results Put wrote.
func TestDirCacheGrowthRoundTrip(t *testing.T) {
	c, err := NewDirCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// sized returns a result whose entry under key is exactly size bytes,
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
	for i, e := range []struct{ findings, size int }{
		{1, entryReadSize},
		{1, entryReadSize + 1},
		{1, 64<<10 + 1},
		{2000, 256 << 10},
	} {
		key := fmt.Sprintf("aa%02d", i)
		want := sized(key, e.findings, e.size)
		c.Put(key, want)
		info, err := os.Stat(c.Path(key))
		if err != nil || info.Size() != int64(e.size) {
			t.Fatalf("entry %s: %v, want %d bytes (%v)", key, info, e.size, err)
		}
		got, ok := c.Get(key)
		if !ok {
			t.Fatalf("%d-byte entry reads as a miss", info.Size())
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%d-byte entry reads back differently", info.Size())
		}
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
