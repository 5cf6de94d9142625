package campaign

import (
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
