package campaign

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"druzhba/internal/core"
	"druzhba/internal/drmt"
	"druzhba/internal/spec"
)

// TestRunnerAllocations pins what a worker allocates around a job's build,
// for an RMT job at the compiled level and a dRMT job: NewRunner less than
// 4 KiB and a warm clean shard less than 1 KiB. A random source is 4.9 KB, so
// neither can hold one: a shard starts its generator on its stack, on the
// traffic plan the job (RMT) or the fuzzer (dRMT) keeps. Measured with
// testing.Benchmark's AllocedBytesPerOp.
func TestRunnerAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under -race are not the runner's")
	}
	bm, err := spec.Lookup("sampling")
	if err != nil {
		t.Fatal(err)
	}
	rmtJobs, err := Matrix([]*spec.Benchmark{bm}, []core.OptLevel{core.Compiled}, nil, []int64{1}, 512)
	if err != nil {
		t.Fatal(err)
	}
	dbm, err := drmt.LookupBenchmark("l2l3")
	if err != nil {
		t.Fatal(err)
	}
	drmtJobs, err := DRMTMatrix([]*drmt.Benchmark{dbm}, nil, nil, []int64{1}, 512)
	if err != nil {
		t.Fatal(err)
	}
	for _, job := range []Job{rmtJobs[0], drmtJobs[0]} {
		inst, err := job.Target.Build()
		if err != nil {
			t.Fatal(err)
		}
		runners := testing.Benchmark(func(b *testing.B) {
			for range b.N {
				if _, err := inst.NewRunner(); err != nil {
					b.Fatal(err)
				}
			}
		})
		if got := runners.AllocedBytesPerOp(); got >= 4<<10 {
			t.Errorf("%s: NewRunner allocates %d B, want less than 4 KiB", job.Name, got)
		}
		r, err := inst.NewRunner()
		if err != nil {
			t.Fatal(err)
		}
		seed := int64(1)
		r.RunShard(seed, 256) // warm: the dRMT fuzzer builds its plan on its first shard
		shards := testing.Benchmark(func(b *testing.B) {
			for range b.N {
				seed++
				if res := r.RunShard(seed, 256); res.Err != nil || len(res.Findings) > 0 || res.Checked != 256 {
					b.Fatalf("shard %d: %+v", seed, res)
				}
			}
		})
		if got := shards.AllocedBytesPerOp(); got >= 1<<10 {
			t.Errorf("%s: a warm clean shard allocates %d B, want less than 1 KiB", job.Name, got)
		}
		t.Logf("%s: NewRunner %d B, %d allocs; shard %d B, %d allocs", job.Name,
			runners.AllocedBytesPerOp(), runners.AllocsPerOp(), shards.AllocedBytesPerOp(), shards.AllocsPerOp())
	}
}

// TestFingerprintReadsNoMachineCode: once a program's digest is kept, a
// job's fingerprint costs the same whatever the length of its machine code,
// so a warm resubmission hashes no machine code: on a target whose program's
// text is ten times longer, PipelineTarget.Fingerprint allocates no more
// bytes than on the original. Measured as testing.AllocsPerRun counts, from
// runtime.MemStats over 100 calls on one P after a first call on each; the
// least of five rounds, since fmt's printer pool refills after a GC.
func TestFingerprintReadsNoMachineCode(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under -race are not the fingerprint's")
	}
	bm, err := spec.Lookup("sampling")
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := Matrix([]*spec.Benchmark{bm}, []core.OptLevel{core.Compiled}, nil, []int64{1}, 512)
	if err != nil {
		t.Fatal(err)
	}
	short := jobs[0].Target.(*PipelineTarget)
	long := *short
	long.Code = short.Code.Clone()
	text := len(short.Code.String())
	for i := 0; i < 10*text/len("pipeline_stage_0_padding = 0\n"); i++ {
		long.Code.Set(fmt.Sprintf("pipeline_stage_%d_padding", i), int64(i))
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	bytes := func(target *PipelineTarget) uint64 {
		if target.Fingerprint() == "" {
			t.Fatal("a matrix-built RMT target has no fingerprint")
		}
		least := uint64(math.MaxUint64)
		for range 5 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for range 100 {
				target.Fingerprint()
			}
			runtime.ReadMemStats(&after)
			least = min(least, (after.TotalAlloc-before.TotalAlloc)/100)
		}
		return least
	}
	s, l := bytes(short), bytes(&long)
	t.Logf("Fingerprint allocates %d B on %d bytes of machine code, %d B on %d", l, len(long.Code.String()), s, text)
	if l > s {
		t.Errorf("Fingerprint allocates %d B on %d bytes of machine code, %d B on %d", l, len(long.Code.String()), s, text)
	}
}
