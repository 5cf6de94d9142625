package campaign

import (
	"fmt"

	"druzhba/internal/drmt"
	"druzhba/internal/p4"
)

// DRMTTarget is the dRMT architecture (§4) as a campaign target: the
// ISA-level machine (§7's low-granularity dRMT model) is the system under
// test and the table-level machine — a direct interpreter of the mini-P4
// program — is its behavioral specification. Shards run the differential
// fuzz loop of drmt.DiffFuzzer; a diverging packet becomes a campaign
// counterexample.
type DRMTTarget struct {
	// Program and Entries configure both machines; they are read-only
	// during execution and shared across workers.
	Program *p4.Program
	Entries *drmt.EntrySet

	// HW is the dRMT hardware configuration (zero values take defaults).
	HW drmt.HWConfig

	// ISA overrides the ISA program under test (nil = assembled from
	// Program). Injecting a miscompiled program is how the differential
	// path itself is tested.
	ISA *drmt.ISAProgram

	// MaxInput bounds generated field values (0 = full field widths).
	MaxInput int64

	// Traffic selects the traffic-generator mode (empty = uniform; see
	// drmt.TrafficMode). The mode is part of the job's traffic identity,
	// so it participates in shard-cache keys.
	Traffic drmt.TrafficMode

	// SpecFingerprint is a stable content hash of the program source and
	// table entries (DRMTMatrix fills it from drmt.Benchmark.Fingerprint).
	// The parsed Program/Entries structures are opaque to the engine; a
	// target with an empty SpecFingerprint is simply not cacheable.
	SpecFingerprint string
}

// Arch implements Target.
func (t *DRMTTarget) Arch() string { return "drmt" }

// Engine implements Target: dRMT jobs exercise the ISA execution model.
func (t *DRMTTarget) Engine() string { return "isa" }

func (t *DRMTTarget) validate() error {
	if t.Program == nil {
		return fmt.Errorf("no P4 program")
	}
	if t.Entries == nil {
		return fmt.Errorf("no entry set")
	}
	return t.Traffic.Check()
}

// Fingerprint implements Fingerprinter: a stable content hash over the
// program and entries, the normalized hardware configuration and the
// traffic regime. Targets with an injected ISA program (the bug-injection
// path) or no SpecFingerprint are not cacheable and return "".
func (t *DRMTTarget) Fingerprint() string {
	if t.SpecFingerprint == "" || t.ISA != nil {
		return ""
	}
	traffic := t.Traffic
	if traffic == "" {
		traffic = drmt.TrafficUniform // "" means uniform; hash them identically
	}
	return fingerprintOf(
		"drmt",
		t.SpecFingerprint,
		fmt.Sprintf("%+v", t.HW.Defaults()),
		fmt.Sprint(t.MaxInput),
		string(traffic),
		"false", // the retired engine-choice slot; kept so fingerprints keep their bytes
	)
}

// Build implements Target: assembling the ISA program and scheduling the
// table-level machine happen once; a failure (e.g. an invalid injected ISA
// program) is a finding.
func (t *DRMTTarget) Build() (Instance, error) {
	f, err := drmt.NewDiffFuzzer(t.Program, t.ISA, t.Entries, t.HW)
	if err != nil {
		return nil, err
	}
	return &drmtInstance{t: t, master: f}, nil
}

type drmtInstance struct {
	t      *DRMTTarget
	master *drmt.DiffFuzzer
}

// NewRunner clones the differential fuzzer — private register state for
// both machines — for one worker. It allocates no random source: a shard
// starts its generator on the fuzzer's kept traffic plan.
func (in *drmtInstance) NewRunner() (Runner, error) {
	return &drmtRunner{t: in.t, fuzzer: in.master.Clone()}, nil
}

type drmtRunner struct {
	t      *DRMTTarget
	fuzzer *drmt.DiffFuzzer
}

// RunShard resets both machines and streams the shard's seeded traffic
// through the differential loop. Diff indices are already shard offsets
// (the fuzzer starts a generator on its stack per shard, from the plan it
// keeps for the job's bound and mode, so the stream and the packet IDs
// start at 0), which is what merge expects.
func (r *drmtRunner) RunShard(seed int64, n int) ShardResult {
	rep, err := r.fuzzer.FuzzSeededMode(seed, n, r.t.MaxInput, r.t.Traffic)
	if err != nil {
		return ShardResult{Err: err}
	}
	res := ShardResult{Checked: rep.Checked, Ticks: rep.Instructions, Err: rep.Err}
	for _, d := range rep.Diffs {
		res.Findings = append(res.Findings, Finding{
			Index: d.Index,
			Input: d.Input,
			Got:   d.Got,
			Want:  d.Want,
		})
	}
	return res
}
