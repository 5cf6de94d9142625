package campaign

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"druzhba/internal/core"
	"druzhba/internal/drmt"
	"druzhba/internal/sim"
	"druzhba/internal/spec"
)

// mapCache is a minimal in-memory ShardCache for engine tests.
type mapCache struct {
	mu      sync.Mutex
	entries map[string]*ShardResult
}

func newMapCache() *mapCache { return &mapCache{entries: map[string]*ShardResult{}} }

func (c *mapCache) Get(key string) (*ShardResult, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	res, ok := c.entries[key]
	return res, ok
}

func (c *mapCache) Put(key string, res *ShardResult) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries[key] = res
}

// countingTarget is a fingerprinted stub that counts builds, runner clones
// and shard executions.
type countingTarget struct {
	fp                    string
	builds, runners, runs int64
}

func (t *countingTarget) Arch() string        { return "stub" }
func (t *countingTarget) Engine() string      { return "none" }
func (t *countingTarget) Fingerprint() string { return t.fp }
func (t *countingTarget) Build() (Instance, error) {
	atomic.AddInt64(&t.builds, 1)
	return t, nil
}
func (t *countingTarget) NewRunner() (Runner, error) {
	atomic.AddInt64(&t.runners, 1)
	return t, nil
}

func (t *countingTarget) RunShard(seed int64, n int) ShardResult {
	atomic.AddInt64(&t.runs, 1)
	return ShardResult{Checked: n, Ticks: seed % 1000}
}

// calls snapshots the three counters.
func (t *countingTarget) calls() [3]int64 {
	return [3]int64{atomic.LoadInt64(&t.builds), atomic.LoadInt64(&t.runners), atomic.LoadInt64(&t.runs)}
}

// mixedMatrix builds a small two-architecture matrix for cache tests.
func mixedMatrix(t *testing.T) []Job {
	t.Helper()
	rmtJobs, err := Matrix(spec.Match("sampling"), []core.OptLevel{core.SCCInlining, core.Compiled}, nil, nil, 600)
	if err != nil {
		t.Fatal(err)
	}
	drmtJobs, err := DRMTMatrix([]*drmt.Benchmark{mustBenchmark(t, "counter")}, nil, nil, nil, 600)
	if err != nil {
		t.Fatal(err)
	}
	return append(rmtJobs, drmtJobs...)
}

func mustBenchmark(t *testing.T, name string) *drmt.Benchmark {
	t.Helper()
	bm, err := drmt.LookupBenchmark(name)
	if err != nil {
		t.Fatal(err)
	}
	return bm
}

// TestCacheWarmRunReplaysByteIdentically: a cold cached run, warm cached
// runs at several worker counts, and an uncached run all render the exact
// same report over a real rmt+drmt matrix; the warm runs record zero
// misses (no shard executed).
func TestCacheWarmRunReplaysByteIdentically(t *testing.T) {
	jobs := mixedMatrix(t)
	opts := Options{Workers: 3, ShardSize: 256}

	base, err := Run(context.Background(), jobs, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := render(t, base)

	cache := newMapCache()
	coldOpts := opts
	coldOpts.Cache = cache
	cold, err := Run(context.Background(), jobs, coldOpts)
	if err != nil {
		t.Fatal(err)
	}
	if got := render(t, cold); got != want {
		t.Fatalf("cold cached run differs from uncached run:\n--- want ---\n%s--- got ---\n%s", want, got)
	}
	totalShards := 0
	for i := range cold.Jobs {
		totalShards += cold.Jobs[i].Shards
	}
	if cold.Cache == nil || cold.Cache.Hits != 0 || cold.Cache.Misses != int64(totalShards) {
		t.Fatalf("cold run cache stats = %+v, want 0 hits / %d misses", cold.Cache, totalShards)
	}

	for _, workers := range []int{1, 4, 7} {
		warmOpts := coldOpts
		warmOpts.Workers = workers
		warm, err := Run(context.Background(), jobs, warmOpts)
		if err != nil {
			t.Fatal(err)
		}
		if got := render(t, warm); got != want {
			t.Fatalf("warm run at workers=%d differs from uncached run", workers)
		}
		if warm.Cache == nil || warm.Cache.Misses != 0 || warm.Cache.Hits != int64(totalShards) {
			t.Fatalf("warm run at workers=%d cache stats = %+v, want %d hits / 0 misses", workers, warm.Cache, totalShards)
		}
	}
}

// TestCacheWarmRunExecutesZeroShards pins "fully cached means untouched"
// with call counters: a warm run builds no target, clones no runner and
// executes no shard, and on a half-warm cache only the job whose shards were
// evicted is built.
func TestCacheWarmRunExecutesZeroShards(t *testing.T) {
	kept, evicted := &countingTarget{fp: "kept"}, &countingTarget{fp: "evicted"}
	jobs := []Job{
		{Name: "kept", Target: kept, Seed: 7, Packets: 100},
		{Name: "evicted", Target: evicted, Seed: 7, Packets: 100},
	}
	cache := newMapCache()
	opts := Options{Workers: 2, ShardSize: 16, Cache: cache}

	if _, err := Run(context.Background(), jobs, opts); err != nil {
		t.Fatal(err)
	}
	for _, target := range []*countingTarget{kept, evicted} {
		cold := target.calls()
		if cold[0] != 1 || cold[1] < 1 || cold[1] > 2 || cold[2] != 7 { // ceil(100/16) shards on <= 2 workers
			t.Fatalf("cold run of %s: builds/runners/shards = %v, want 1, 1..2, 7", target.fp, cold)
		}
	}
	coldKept, coldEvicted := kept.calls(), evicted.calls()

	warm, err := Run(context.Background(), jobs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if kept.calls() != coldKept || evicted.calls() != coldEvicted {
		t.Fatalf("warm run touched its targets: builds/runners/shards %v -> %v, %v -> %v",
			coldKept, kept.calls(), coldEvicted, evicted.calls())
	}
	if warm.Cache.Hits != 14 || warm.Cache.Misses != 0 {
		t.Fatalf("warm run cache stats = %+v, want 14 hits", warm.Cache)
	}

	for s := 0; s < 7; s++ {
		n := 16
		if s == 6 {
			n = 100 - 6*16
		}
		delete(cache.entries, ShardKey("evicted", deriveSeed(7, s), n))
	}
	if len(cache.entries) != 7 {
		t.Fatalf("evicted %d of 14 entries, want 7", 14-len(cache.entries))
	}
	if _, err := Run(context.Background(), jobs, opts); err != nil {
		t.Fatal(err)
	}
	if kept.calls() != coldKept {
		t.Fatalf("half-warm run touched the cached job: %v -> %v", coldKept, kept.calls())
	}
	if got := evicted.calls(); got[0] != coldEvicted[0]+1 || got[2] != coldEvicted[2]+7 {
		t.Fatalf("half-warm run of the evicted job: builds/runners/shards %v -> %v, want one build, seven shards", coldEvicted, got)
	}
}

// TestCacheUnfingerprintedTargetsBypass: targets without a fingerprint
// execute every time and never touch the counters.
func TestCacheUnfingerprintedTargetsBypass(t *testing.T) {
	target := &countingTarget{fp: ""}
	jobs := []Job{{Name: "opaque", Target: target, Packets: 32}}
	cache := newMapCache()
	opts := Options{Workers: 1, ShardSize: 16, Cache: cache}
	for i := 0; i < 2; i++ {
		rep, err := Run(context.Background(), jobs, opts)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Cache.Hits != 0 || rep.Cache.Misses != 0 {
			t.Fatalf("unfingerprinted job counted in cache stats: %+v", rep.Cache)
		}
	}
	if got := atomic.LoadInt64(&target.runs); got != 4 {
		t.Fatalf("executed %d shards, want 4 (2 shards x 2 runs, no caching)", got)
	}
	if len(cache.entries) != 0 {
		t.Fatalf("cache holds %d entries for an unfingerprintable target", len(cache.entries))
	}
}

// TestCacheErroredShardsNotStored: harness errors are re-executed, never
// replayed.
func TestCacheErroredShardsNotStored(t *testing.T) {
	fail := &stubFingerprintedTarget{fp: "errs", run: func(seed int64, n int) ShardResult {
		return ShardResult{Checked: 1, Err: errors.New("flaky harness")}
	}}
	jobs := []Job{{Name: "errs", Target: fail, Packets: 16}}
	cache := newMapCache()
	for i := 0; i < 2; i++ {
		if _, err := Run(context.Background(), jobs, Options{Workers: 1, ShardSize: 16, Cache: cache}); err != nil {
			t.Fatal(err)
		}
	}
	if len(cache.entries) != 0 {
		t.Fatalf("errored shard persisted: %d entries", len(cache.entries))
	}
}

// stubFingerprintedTarget is stubTarget plus a fingerprint.
type stubFingerprintedTarget struct {
	fp  string
	run func(seed int64, n int) ShardResult
}

func (t *stubFingerprintedTarget) Arch() string               { return "stub" }
func (t *stubFingerprintedTarget) Engine() string             { return "none" }
func (t *stubFingerprintedTarget) Fingerprint() string        { return t.fp }
func (t *stubFingerprintedTarget) Build() (Instance, error)   { return t, nil }
func (t *stubFingerprintedTarget) NewRunner() (Runner, error) { return t, nil }
func (t *stubFingerprintedTarget) RunShard(seed int64, n int) ShardResult {
	return t.run(seed, n)
}

// TestFingerprintSensitivity: every axis that changes shard traffic or the
// system under test must change the target fingerprint (the key's own
// inputs: TestShardKeySensitivity).
func TestFingerprintSensitivity(t *testing.T) {
	bm := spec.Match("sampling")[0]
	build := func(mutate func(*PipelineTarget)) string {
		jobs, err := Matrix([]*spec.Benchmark{bm}, []core.OptLevel{core.SCCInlining}, nil, nil, 100)
		if err != nil {
			t.Fatal(err)
		}
		target := jobs[0].Target.(*PipelineTarget)
		if mutate != nil {
			mutate(target)
		}
		fp := target.Fingerprint()
		if fp == "" {
			t.Fatal("matrix-built target has no fingerprint")
		}
		return fp
	}
	base := build(nil)
	if build(nil) != base {
		t.Fatal("fingerprint not stable across identical builds")
	}
	mutations := map[string]func(*PipelineTarget){
		"level":    func(pt *PipelineTarget) { pt.Level = core.Compiled },
		"traffic":  func(pt *PipelineTarget) { pt.Traffic = sim.TrafficBoundary },
		"maxinput": func(pt *PipelineTarget) { pt.MaxInput = 7 },
		"code":     func(pt *PipelineTarget) { pt.Code = pt.Code.Clone(); pt.Code.Set(pt.Code.Names()[0], 1) },
		"spec":     func(pt *PipelineTarget) { pt.SpecFingerprint = "other" },
	}
	for name, mutate := range mutations {
		if build(mutate) == base {
			t.Fatalf("changing %s did not change the fingerprint", name)
		}
	}

	drmtJobs, err := DRMTMatrix([]*drmt.Benchmark{mustBenchmark(t, "counter")}, nil, nil, nil, 100)
	if err != nil {
		t.Fatal(err)
	}
	dt := drmtJobs[0].Target.(*DRMTTarget)
	dbase := dt.Fingerprint()
	if dbase == "" {
		t.Fatal("matrix-built dRMT target has no fingerprint")
	}
	if dbase == base {
		t.Fatal("rmt and drmt fingerprints collide")
	}
	procs := *dt
	procs.HW.Processors = 8
	if procs.Fingerprint() == dbase {
		t.Fatal("changing processor count did not change the fingerprint")
	}
	injected := *dt
	injected.ISA = &drmt.ISAProgram{}
	if injected.Fingerprint() != "" {
		t.Fatal("injected-ISA target must not be cacheable")
	}

}

// TestRMTFingerprintGolden pins RMT job fingerprints, which hash the machine
// code's digest (the SHA-256 of machinecode.Program.String's text) as one
// part and key every cached shard: a change to how that text is rendered or
// digested must not move them. A deliberate change of an RMT job's identity
// is the only reason to touch these.
func TestRMTFingerprintGolden(t *testing.T) {
	want := map[string]string{
		"rmt/sampling/compiled/seed=1":     "0f8bd76794eb5fa67541947b9061f9fbafbd8ee98209fd2b9d08013ff507b8fc",
		"rmt/sampling/unoptimized/seed=1":  "fe0fce9bea2cadf4612e28217c5577be7fa6007e1407ac6bc85b314a0e7e17d4",
		"rmt/learn-filter/compiled/seed=1": "3ce0b7dbdb74e1f57eae805b8559f1146be87d56f03e8cbfe8a7636f1062a615",
	}
	jobs, err := Matrix(append(spec.Match("sampling"), spec.Match("learn-filter")...), []core.OptLevel{core.Compiled, core.Unoptimized}, nil, nil, 100)
	if err != nil {
		t.Fatal(err)
	}
	found := 0
	for _, j := range jobs {
		if w, ok := want[j.Name]; ok {
			found++
			if got := j.Target.(*PipelineTarget).Fingerprint(); got != w {
				t.Errorf("%s: fingerprint %s, golden %s", j.Name, got, w)
			}
		}
	}
	if found != len(want) {
		t.Fatalf("matched %d of %d golden jobs", found, len(want))
	}
}

// TestJobTimeoutDoesNotWedgeCampaign: a job whose shards hang is cut off
// at its wall-clock budget with a timeout error, and later jobs still run
// to completion.
func TestJobTimeoutDoesNotWedgeCampaign(t *testing.T) {
	hang := &stubTarget{run: func(seed int64, n int) ShardResult {
		time.Sleep(time.Minute)
		return ShardResult{Checked: n}
	}}
	ok := &stubTarget{run: func(seed int64, n int) ShardResult {
		return ShardResult{Checked: n}
	}}
	jobs := []Job{
		{Name: "wedged", Target: hang, Packets: 64},
		{Name: "fine", Target: ok, Packets: 64},
	}
	start := time.Now()
	rep, err := Run(context.Background(), jobs, Options{
		Workers: 2, ShardSize: 16, JobTimeout: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("campaign took %v despite 100ms job timeout", elapsed)
	}
	byName := map[string]*JobReport{}
	for i := range rep.Jobs {
		byName[rep.Jobs[i].Name] = &rep.Jobs[i]
	}
	if j := byName["wedged"]; j.Status != StatusError || !strings.Contains(j.Error, "wall-clock budget") {
		t.Fatalf("wedged job: %+v", j)
	}
	if j := byName["fine"]; j.Status != StatusPass || j.Checked != 64 {
		t.Fatalf("healthy job after a wedged one: %+v", j)
	}
}

// TestOnJobReportStreamsInMatrixOrder: rows arrive in job order no matter
// how shards are scheduled, every job exactly once, and each streamed row
// equals the corresponding final report row — for one worker, two and more
// workers than jobs, with more shards than workers.
func TestOnJobReportStreamsInMatrixOrder(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			var jobs []Job
			for i := 0; i < 6; i++ {
				delay := time.Duration(5-i) * 2 * time.Millisecond // later jobs finish sooner
				jobs = append(jobs, Job{
					Name: fmt.Sprintf("job-%d", i),
					Target: &stubTarget{run: func(seed int64, n int) ShardResult {
						time.Sleep(delay)
						return ShardResult{Checked: n}
					}},
					Packets: 48,
				})
			}
			jobs = append(jobs, Job{Name: "broken", Target: &stubTarget{buildErr: errors.New("nope")}, Packets: 8})

			var rows streamedRows
			rep, err := Run(context.Background(), jobs, Options{Workers: workers, ShardSize: 16, OnJobReport: rows.add})
			if err != nil {
				t.Fatal(err)
			}
			rows.check(t, jobs, rep)
		})
	}
}

// TestMatrixTrafficAndProcsAxes: non-default axis values suffix the job
// name, default values keep the pre-axis names, and the boundary-mode
// matrix still passes end to end on both architectures.
func TestMatrixTrafficAndProcsAxes(t *testing.T) {
	bm := spec.Match("sampling")[:1]
	rmtJobs, err := Matrix(bm, []core.OptLevel{core.SCCInlining}, []sim.TrafficMode{sim.TrafficUniform, sim.TrafficBoundary}, nil, 400)
	if err != nil {
		t.Fatal(err)
	}
	if len(rmtJobs) != 2 {
		t.Fatalf("got %d rmt jobs, want 2", len(rmtJobs))
	}
	if rmtJobs[0].Name != "rmt/sampling/scc+inline/seed=1" {
		t.Fatalf("uniform job renamed: %q", rmtJobs[0].Name)
	}
	if rmtJobs[1].Name != "rmt/sampling/scc+inline/seed=1/traffic=boundary" {
		t.Fatalf("boundary job name: %q", rmtJobs[1].Name)
	}

	drmtJobs, err := DRMTMatrix([]*drmt.Benchmark{mustBenchmark(t, "counter")}, []int{0, 4}, []drmt.TrafficMode{drmt.TrafficBoundary}, nil, 400)
	if err != nil {
		t.Fatal(err)
	}
	if len(drmtJobs) != 2 {
		t.Fatalf("got %d drmt jobs, want 2", len(drmtJobs))
	}
	if drmtJobs[0].Name != "drmt/counter/seed=1/traffic=boundary" {
		t.Fatalf("default-procs job name: %q", drmtJobs[0].Name)
	}
	if drmtJobs[1].Name != "drmt/counter/seed=1/procs=4/traffic=boundary" {
		t.Fatalf("procs job name: %q", drmtJobs[1].Name)
	}
	if hw := drmtJobs[1].Target.(*DRMTTarget).HW; hw.Processors != 4 {
		t.Fatalf("procs override not applied: %+v", hw)
	}

	rep, err := Run(context.Background(), append(rmtJobs, drmtJobs...), Options{Workers: 2, ShardSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Passed {
		t.Fatalf("boundary/procs matrix failed:\n%s", rep.Text(false))
	}
}

// TestShardKeyerMatchesShardKey pins the per-job keyer to the documented
// key, recomputed here from its formula as the reference: the big-endian hex
// of uint64(seed) and of uint64(n), then the first 32 hex characters of the
// SHA-256 of "salt\x00len(fp)\x00fp\x00". It covers fingerprints on both
// sides of SHA-256's 64-byte blocks, the extreme seeds and shard sizes, under
// the build salt and under salts of other shapes — the empty one a binary
// without build information gets, a 64-hex executable hash, a VCS-style salt,
// and one of 257 bytes, longer than any this build makes. A key allocates
// only its string. Eight goroutines then derive keys
// from one shared keyer, as a campaign's workers do.
func TestShardKeyerMatchesShardKey(t *testing.T) {
	reference := func(salt, fp string, seed int64, n int) string {
		h := sha256.Sum256([]byte(fmt.Sprintf("%s\x00%d\x00%s\x00", salt, len(fp), fp)))
		return fmt.Sprintf("%016x%016x%s", uint64(seed), uint64(n), hex.EncodeToString(h[:])[:32])
	}
	var fps []string
	for _, size := range []int{0, 63, 64, 200, 300} {
		fps = append(fps, strings.Repeat("f", size))
	}
	hexSalt := sha256.Sum256([]byte("an executable"))
	salts := []string{
		buildSalt(), "", strings.Repeat("s", 59),
		hex.EncodeToString(hexSalt[:]),
		"v0.0.0-20260101000000-0123456789ab|vcs.revision=0123456789abcdef0123456789abcdef01234567|vcs.modified=true",
		strings.Repeat("L", 257),
	}
	seeds := []int64{0, -1, 7, 1 << 40, math.MinInt64, math.MaxInt64}
	sizes := []int{0, 1, 999, 4096, math.MaxInt}
	for _, salt := range salts {
		for _, fp := range fps {
			k := newShardKeyer(salt, fp)
			for _, seed := range seeds {
				for _, n := range sizes {
					if got, want := k.key(seed, n), reference(salt, fp, seed, n); got != want {
						t.Fatalf("salt %d bytes, fp %d bytes, seed %d, n %d: keyer %s, formula %s", len(salt), len(fp), seed, n, got, want)
					}
				}
			}
		}
	}
	if !raceEnabled {
		k := newShardKeyer(salts[3], salts[3]) // a 64-hex salt and fingerprint
		if a := testing.AllocsPerRun(100, func() { k.key(math.MinInt64, math.MinInt) }); a != 1 {
			t.Errorf("a key allocates %.0f times, want 1 (its string)", a)
		}
	}
	if got, want := ShardKey(fps[3], -1, 4096), reference(buildSalt(), fps[3], -1, 4096); got != want {
		t.Fatalf("ShardKey %s, formula %s", got, want)
	}

	shared := newShardKeyer(buildSalt(), fps[4])
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				seed := int64(g*1000 + i)
				if got, want := shared.key(seed, i), reference(buildSalt(), fps[4], seed, i); got != want {
					errs <- fmt.Sprintf("goroutine %d, seed %d: keyer %s, formula %s", g, seed, got, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
