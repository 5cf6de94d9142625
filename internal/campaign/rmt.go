package campaign

import (
	"fmt"

	"druzhba/internal/core"
	"druzhba/internal/machinecode"
	"druzhba/internal/phv"
	"druzhba/internal/sim"
)

// PipelineTarget is the RMT architecture as a campaign target: a pipeline
// built from (Spec, Code, Level) fuzzed against a high-level specification
// in the Fig. 5 workflow — the original dfarm job shape.
type PipelineTarget struct {
	// Spec, Code and Level describe the pipeline under test; the engine
	// builds it at most once per job.
	Spec  core.Spec
	Code  *machinecode.Program
	Level core.OptLevel

	// NewSpec returns a fresh high-level specification instance. Each
	// worker calls it once per job it touches and reuses the instance
	// across that job's shards (the fuzzer resets it between shards);
	// because workers run concurrently the factory must be safe for
	// concurrent use, and instances it returns must not share mutable
	// state. It should do no more than instantiate: spec.Benchmark.SimSpec
	// parses and binds once per benchmark and allocates only the
	// instance's state here.
	NewSpec func() (sim.Spec, error)

	// Containers restricts the output comparison to these PHV container
	// indices (nil compares every container).
	Containers []int

	// MaxInput bounds traffic-generator values (0 = full datapath width).
	MaxInput int64

	// Traffic selects the traffic-generator mode (empty = uniform; see
	// sim.TrafficMode). The mode is part of the job's traffic identity,
	// so it participates in shard-cache keys.
	Traffic sim.TrafficMode

	// Corpus holds concrete seed packets every shard replays (in order,
	// from reset state) before drawing random traffic — the feedback path
	// carrying verification counterexample traces into the fuzzer in both
	// mode. The corpus is part of the job's traffic identity and
	// participates in shard-cache keys.
	Corpus [][]phv.Value

	// SpecFingerprint is a stable content hash of the specification
	// behind NewSpec (Matrix fills it from spec.Benchmark.Fingerprint).
	// NewSpec itself is an opaque factory the engine cannot hash; a
	// target with an empty SpecFingerprint is simply not cacheable.
	SpecFingerprint string
}

// Arch implements Target.
func (t *PipelineTarget) Arch() string { return "rmt" }

// Engine implements Target: the pipeline-generation optimization level.
func (t *PipelineTarget) Engine() string { return t.Level.String() }

func (t *PipelineTarget) validate() error {
	if t.NewSpec == nil {
		return fmt.Errorf("no specification factory")
	}
	return t.Traffic.Check()
}

// Fingerprint implements Fingerprinter: a stable content hash over the
// specification, the machine code, the engine level and the traffic
// regime — everything an RMT shard result depends on besides (seed, n).
// Targets without a SpecFingerprint are not cacheable and return "".
func (t *PipelineTarget) Fingerprint() string {
	if t.SpecFingerprint == "" {
		return ""
	}
	traffic := t.Traffic
	if traffic == "" {
		traffic = sim.TrafficUniform // "" means uniform; hash them identically
	}
	return fingerprintOf(
		"rmt",
		t.SpecFingerprint,
		fmt.Sprintf("%d/%d/%d/%v", t.Spec.Depth, t.Spec.Width, t.Spec.PHVLen, t.Spec.Bits),
		t.Code.Digest(),
		t.Level.String(),
		fmt.Sprint(t.Containers),
		fmt.Sprint(t.MaxInput),
		string(traffic),
		fmt.Sprint(t.Corpus),
	)
}

// Build implements Target: the pipeline is built — and its output cone fused
// into one flat program — once, and shared read-only; a runner adds a frame.
// The job's traffic plan is built here too, once, and shared by every shard;
// a plan that cannot be built is NewRunner's error, after the spec factory's,
// so such a job reports a runner failure and not a build failure.
func (t *PipelineTarget) Build() (Instance, error) {
	master, err := core.Build(t.Spec, t.Code, t.Level)
	if err != nil {
		return nil, err
	}
	traffic, err := sim.NewTraffic(master.PHVLen(), master.Bits(), t.MaxInput, t.Traffic, t.Corpus)
	return &pipelineInstance{t: t, master: master, traffic: traffic, trafficErr: err}, nil
}

type pipelineInstance struct {
	t          *PipelineTarget
	master     *core.Pipeline
	traffic    *phv.Traffic
	trafficErr error
}

// NewRunner builds one worker's streaming machinery: a fuzzer, which runs
// the shared master's fused cone on a frame of its own (a private clone on
// the tick loop, at the unoptimized level), reused across every shard the
// worker runs, and one spec instance, reset by the fuzzer between shards. It
// allocates no random source: a shard starts its generator on the job's plan.
func (in *pipelineInstance) NewRunner() (Runner, error) {
	spec, err := in.t.NewSpec()
	if err != nil {
		return nil, err
	}
	if in.trafficErr != nil {
		return nil, in.trafficErr
	}
	return &pipelineRunner{t: in.t, traffic: in.traffic, fuzzer: sim.NewFuzzer(in.master), spec: spec}, nil
}

type pipelineRunner struct {
	t       *PipelineTarget
	traffic *phv.Traffic
	fuzzer  *sim.Fuzzer
	spec    sim.Spec
}

// RunShard starts the shard's generator on its stack from the job's traffic
// plan, streams its deterministic traffic straight into the fuzzer's buffers
// (no per-shard trace materialization) and compares in lock step, so a clean
// shard costs O(1) allocation — its report, not a random source. Mismatch
// collection is unbounded here (naturally capped by the shard size): the
// per-job counterexample cap is applied only after cross-shard deduplication
// in merge, so duplicates in one shard cannot crowd out distinct failures
// later in it.
func (r *pipelineRunner) RunShard(seed int64, n int) ShardResult {
	var gen sim.TrafficGen
	gen.Start(r.traffic, seed)
	rep, err := r.fuzzer.FuzzGen(r.spec, &gen, n, sim.FuzzOptions{Containers: r.t.Containers}, 0)
	if err != nil {
		return ShardResult{Err: err}
	}
	res := ShardResult{Checked: rep.Checked, Ticks: int64(rep.Ticks), Err: rep.Err}
	for _, m := range rep.Mismatches {
		res.Findings = append(res.Findings, Finding{
			Index: m.Index,
			Input: m.Input.String(),
			Got:   m.Got.String(),
			Want:  m.Want.String(),
		})
	}
	return res
}
