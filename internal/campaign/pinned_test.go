package campaign

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"druzhba/internal/spec"
)

var updatePinned = flag.Bool("update", false, "rewrite testdata/rows/*.golden from this engine's output")

// checkPinned compares a rendered report (JSON, then text) with the bytes
// the engine printed for the same campaign before shards were executed
// through JobExec; testdata/rows was written by that engine.
func checkPinned(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", "rows", name+".golden")
	if *updatePinned {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("%s moved:\n--- want ---\n%s--- got ---\n%s", name, want, got)
	}
}

// unbuildableJob is TestBuildFailureIsAFinding's job: machine code missing
// a pair the pipeline needs, so core.Build rejects it.
func unbuildableJob(t *testing.T) Job {
	t.Helper()
	bm, err := spec.Lookup("sampling")
	if err != nil {
		t.Fatal(err)
	}
	code, err := bm.MachineCode()
	if err != nil {
		t.Fatal(err)
	}
	bad := code.Clone()
	bad.Delete(bad.Names()[0])
	job := brokenJob(t, "unbuildable", 100)
	pt := job.Target.(*PipelineTarget)
	pt.Code = bad
	pt.SpecFingerprint = "pinned-unbuildable" // cacheable, so the cached variants probe
	return job
}

// TestPinnedBuildErrorRow: an unbuildable job's row — status error, the bare
// build error, no shards — is the same bytes alone and between two passing
// jobs, at any worker count, with or without FailFast (a build error does
// not trip it) and with or without a cache (cold and warm).
func TestPinnedBuildErrorRow(t *testing.T) {
	passing := passingJobs(t, 600, 1)
	matrices := map[string][]Job{
		"unbuildable-alone":   {unbuildableJob(t)},
		"unbuildable-between": {passing[0], unbuildableJob(t), passing[1]},
	}
	for name, jobs := range matrices {
		for _, workers := range []int{1, 4} {
			for _, failFast := range []bool{false, true} {
				cache := newMapCache()
				for _, c := range []ShardCache{nil, cache, cache} {
					var streamed []string
					rep, err := Run(context.Background(), jobs, Options{
						Workers: workers, ShardSize: 256, FailFast: failFast, Cache: c,
						OnJobReport: func(jr JobReport) { streamed = append(streamed, jr.Name) },
					})
					if err != nil {
						t.Fatal(err)
					}
					if rep.StoppedEarly {
						t.Errorf("%s workers=%d: a build error tripped FailFast", name, workers)
					}
					for i := range jobs {
						if streamed[i] != jobs[i].Name {
							t.Errorf("%s workers=%d: rows streamed as %v, want matrix order", name, workers, streamed)
							break
						}
					}
					checkPinned(t, name, render(t, rep))
				}
			}
		}
	}
}

// runnerErrTarget builds, but cannot clone a runner.
type runnerErrTarget struct{ stubTarget }

func (t *runnerErrTarget) Build() (Instance, error)   { return t, nil }
func (t *runnerErrTarget) NewRunner() (Runner, error) { return nil, errors.New("spec factory refused") }

// TestPinnedRunnerErrorRow: a NewRunner failure is the result of every shard
// that asks for a runner, so the row counts every shard as run and names
// shard 0.
func TestPinnedRunnerErrorRow(t *testing.T) {
	jobs := []Job{{Name: "no-runner", Target: &runnerErrTarget{}, Seed: 3, Packets: 100}}
	for _, workers := range []int{1, 4} {
		rep, err := Run(context.Background(), jobs, Options{Workers: workers, ShardSize: 32})
		if err != nil {
			t.Fatal(err)
		}
		checkPinned(t, "runner-error", render(t, rep))
	}
}

// blockingExecutor is a remote executor whose leases never come back until
// the engine's deadline cancels them.
type blockingExecutor struct{}

func (blockingExecutor) ExecuteShard(ctx context.Context, _ ShardTask) *ShardResult {
	<-ctx.Done()
	return &ShardResult{Err: fmt.Errorf("lease abandoned: %w", ctx.Err())}
}

// TestPinnedTimeoutRow: a job whose shards outlive JobTimeout reports the
// same deterministic timeout row whether the shards hang in a local runner
// or in a remote executor's lease.
func TestPinnedTimeoutRow(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	hang := &stubTarget{run: func(seed int64, n int) ShardResult {
		<-release
		return ShardResult{Checked: n}
	}}
	jobs := []Job{{Name: "wedged", Target: hang, Seed: 5, Packets: 64}}
	for _, ex := range []ShardExecutor{nil, blockingExecutor{}} {
		for _, workers := range []int{1, 4} {
			rep, err := Run(context.Background(), jobs, Options{
				Workers: workers, ShardSize: 16, JobTimeout: 30 * time.Millisecond, Executor: ex,
			})
			if err != nil {
				t.Fatal(err)
			}
			checkPinned(t, "timeout", render(t, rep))
		}
	}
}
