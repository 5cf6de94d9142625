package campaign

import (
	"errors"
	"strings"
	"testing"

	"druzhba/internal/core"
	"druzhba/internal/sim"
	"druzhba/internal/spec"
)

// TestTrafficPlanErrorIsNewRunners: a job builds its traffic plan with its
// pipeline, but a plan that cannot be built is NewRunner's error, after the
// spec factory's, so the job's row reports a runner failure, not a build
// failure.
func TestTrafficPlanErrorIsNewRunners(t *testing.T) {
	bm, err := spec.Lookup("sampling")
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := Matrix([]*spec.Benchmark{bm}, []core.OptLevel{core.Compiled}, nil, []int64{1}, 64)
	if err != nil {
		t.Fatal(err)
	}
	target := *jobs[0].Target.(*PipelineTarget)
	target.Traffic = "chaotic" // validate refuses it; Build and NewRunner are reached directly
	inst, err := target.Build()
	if err != nil {
		t.Fatalf("Build: %v, want the plan's error left to NewRunner", err)
	}
	if _, err := inst.NewRunner(); err == nil || !strings.Contains(err.Error(), `unknown traffic mode "chaotic"`) {
		t.Fatalf("NewRunner: %v, want the traffic mode's error", err)
	}
	refused := errors.New("spec factory refused")
	target.NewSpec = func() (sim.Spec, error) { return nil, refused }
	if inst, err = target.Build(); err != nil {
		t.Fatal(err)
	}
	if _, err := inst.NewRunner(); !errors.Is(err, refused) {
		t.Fatalf("NewRunner: %v, want the spec factory's error first", err)
	}
}
