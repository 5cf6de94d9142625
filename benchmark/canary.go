package main

import (
	"context"
	"fmt"

	"druzhba/internal/campaign"
	"druzhba/internal/core"
	"druzhba/internal/drmt"
	"druzhba/internal/machinecode"
	"druzhba/internal/spec"
)

// Canaries: two jobs with a compiler bug planted in them, run untimed in
// every invocation. Their known answer is FAIL. An oracle that has gone
// blind — a compare that always matches, a spec that mirrors the pipeline —
// would report every timed row as "pass" and look perfectly healthy; it is
// the canaries coming back "pass" that raises the failed count.

// canaryJobs returns the two bugged jobs.
func canaryJobs(seed int64, packets int) ([]campaign.Job, error) {
	rmt, err := rmtCanary(seed, packets)
	if err != nil {
		return nil, err
	}
	dr, err := drmtCanary(seed, packets)
	if err != nil {
		return nil, err
	}
	return []campaign.Job{rmt, dr}, nil
}

// rmtCanary is Table 1's sampling program with one machine-code pair
// mutated: the wrap-around threshold of the stage-0 counter reads 8 instead
// of 9, so the pipeline samples every 9th packet where the Domino
// specification samples every 10th.
func rmtCanary(seed int64, packets int) (campaign.Job, error) {
	bm, err := spec.Lookup("sampling")
	if err != nil {
		return campaign.Job{}, err
	}
	cspec, err := bm.Spec()
	if err != nil {
		return campaign.Job{}, err
	}
	code, err := bm.MachineCode()
	if err != nil {
		return campaign.Job{}, err
	}
	hole := machinecode.ALUHoleName(0, true, 0, "const_0")
	if v, ok := code.Get(hole); !ok || v != 9 {
		return campaign.Job{}, fmt.Errorf("canary: sampling fixture changed: %s = %d, %v (want 9)", hole, v, ok)
	}
	bad := code.Clone()
	bad.Set(hole, 8)
	containers, err := bm.CompareContainers()
	if err != nil {
		return campaign.Job{}, err
	}
	return campaign.Job{
		Name: "canary/rmt/sampling/const_0=8",
		Target: &campaign.PipelineTarget{
			Spec: cspec, Code: bad, Level: core.Compiled,
			NewSpec: bm.SimSpec, Containers: containers, MaxInput: bm.MaxInput,
		},
		Seed: seed, Packets: packets,
	}, nil
}

// drmtCanary is l2l3 with its 8-bit ALU add (the ttl decrement) assembled
// as a subtract.
func drmtCanary(seed int64, packets int) (campaign.Job, error) {
	bm, err := drmt.LookupBenchmark("l2l3")
	if err != nil {
		return campaign.Job{}, err
	}
	prog, err := bm.Program()
	if err != nil {
		return campaign.Job{}, err
	}
	entries, err := bm.Entries(prog)
	if err != nil {
		return campaign.Job{}, err
	}
	isa, err := drmt.Assemble(prog)
	if err != nil {
		return campaign.Job{}, err
	}
	bad, err := drmt.MiscompileALUAdd(isa, 8)
	if err != nil {
		return campaign.Job{}, err
	}
	return campaign.Job{
		Name:   "canary/drmt/l2l3/alu-add-as-sub",
		Target: &campaign.DRMTTarget{Program: prog, Entries: entries, HW: bm.HW, ISA: bad, MaxInput: bm.MaxInput},
		Seed:   seed, Packets: packets,
	}, nil
}

// runCanaries executes the canary jobs and counts each one that did not
// FAIL with a counterexample.
func runCanaries(jobs []campaign.Job, workers int) (attempted, failed int, rep *campaign.Report, err error) {
	rep, err = campaign.Run(context.Background(), jobs, campaign.Options{Workers: workers})
	if err != nil {
		return 0, 0, nil, fmt.Errorf("canaries: %w", err)
	}
	for i := range rep.Jobs {
		attempted++
		if rep.Jobs[i].Status != campaign.StatusFail || len(rep.Jobs[i].Counterexamples) == 0 {
			failed++
		}
	}
	return attempted, failed, rep, nil
}
