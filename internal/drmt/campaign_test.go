package drmt_test

import (
	"bytes"
	"context"
	"testing"

	"druzhba/internal/campaign"
	"druzhba/internal/drmt"
)

// refTarget is a campaign target that runs a DRMTTarget's shards on the
// reference map interpreters (drmt.RefFuzzer) instead of the linked flat
// program: same labels, same shard seeds, same traffic, a different
// interpreter underneath. It lives here rather than in package campaign
// because the reference exists only in package drmt's test files.
type refTarget struct{ *campaign.DRMTTarget }

// Build refuses what the reference constructor refuses, so a build failure
// is the same finding from either side.
func (t refTarget) Build() (campaign.Instance, error) {
	if _, err := drmt.NewRefFuzzer(t.Program, t.ISA, t.Entries); err != nil {
		return nil, err
	}
	return t, nil
}

func (t refTarget) NewRunner() (campaign.Runner, error) {
	f, err := drmt.NewRefFuzzer(t.Program, t.ISA, t.Entries)
	if err != nil {
		return nil, err
	}
	return refRunner{t: t.DRMTTarget, fuzzer: f}, nil
}

type refRunner struct {
	t      *campaign.DRMTTarget
	fuzzer *drmt.RefFuzzer
}

func (r refRunner) RunShard(seed int64, n int) campaign.ShardResult {
	rep, err := r.fuzzer.FuzzSeededMode(seed, n, r.t.MaxInput, r.t.Traffic)
	if err != nil {
		return campaign.ShardResult{Err: err}
	}
	res := campaign.ShardResult{Checked: rep.Checked, Ticks: rep.Instructions, Err: rep.Err}
	for _, d := range rep.Diffs {
		res.Findings = append(res.Findings, campaign.Finding{Index: d.Index, Input: d.Input, Got: d.Got, Want: d.Want})
	}
	return res
}

// TestDRMTReportIdenticalSlotVsCompat is the campaign-level oracle check:
// the linked flat program and the reference map interpreters must produce
// byte-identical campaign reports — JSON and text, clean benchmarks, an
// injected miscompile whose counterexamples reach the report and an injected
// program that is refused at build — at every worker count.
func TestDRMTReportIdenticalSlotVsCompat(t *testing.T) {
	jobs, err := campaign.DRMTMatrix(drmt.Benchmarks(), nil, nil, []int64{1, 9}, 1500)
	if err != nil {
		t.Fatal(err)
	}
	// One failing row: l2l3 with its ttl decrement miscompiled.
	bugged := *jobs[2].Target.(*campaign.DRMTTarget)
	isa, err := drmt.Assemble(bugged.Program)
	if err != nil {
		t.Fatal(err)
	}
	if bugged.ISA, err = drmt.MiscompileALUAdd(isa, 8); err != nil {
		t.Fatal(err)
	}
	jobs = append(jobs, campaign.Job{Name: "drmt/l2l3-miscompiled/seed=7", Target: &bugged, Seed: 7, Packets: 3000})
	// One row that fails to build: counter's entries bind an action-data
	// argument, and this ISA program declares no parameter register for it.
	narrow := *jobs[0].Target.(*campaign.DRMTTarget)
	if isa, err = drmt.Assemble(narrow.Program); err != nil {
		t.Fatal(err)
	}
	isa.NumParams = 0
	narrow.ISA = isa
	jobs = append(jobs, campaign.Job{Name: "drmt/counter-no-param-registers/seed=3", Target: &narrow, Seed: 3, Packets: 500})

	render := func(reference bool, workers int) string {
		t.Helper()
		run := make([]campaign.Job, len(jobs))
		for i, j := range jobs {
			if reference {
				j.Target = refTarget{j.Target.(*campaign.DRMTTarget)}
			}
			run[i] = j
		}
		rep, err := campaign.Run(context.Background(), run, campaign.Options{Workers: workers, ShardSize: 256})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := rep.WriteJSON(&buf, false); err != nil {
			t.Fatal(err)
		}
		return buf.String() + "\n---\n" + rep.Text(false)
	}
	want := render(false, 1)
	if !bytes.Contains([]byte(want), []byte("FAIL")) {
		t.Fatalf("the miscompiled job did not fail:\n%s", want)
	}
	if !bytes.Contains([]byte(want), []byte("binds 1-argument action")) {
		t.Fatalf("the job without parameter registers was not refused at build:\n%s", want)
	}
	for _, workers := range []int{1, 4, 8} {
		if got := render(true, workers); got != want {
			t.Fatalf("reference report (workers=%d) differs from slot engine report:\n--- slot ---\n%s--- reference ---\n%s",
				workers, want, got)
		}
		if got := render(false, workers); got != want {
			t.Fatalf("slot engine report not deterministic across workers=%d", workers)
		}
	}
}
