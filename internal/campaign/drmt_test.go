package campaign

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"druzhba/internal/drmt"
)

// drmtJobs builds the default dRMT job matrix.
func drmtJobs(t *testing.T, packets int, seeds ...int64) []Job {
	t.Helper()
	jobs, err := DRMTMatrix(drmt.Benchmarks(), nil, nil, seeds, packets)
	if err != nil {
		t.Fatal(err)
	}
	return jobs
}

// TestDRMTReportDeterministicAcrossWorkers extends the engine's core
// guarantee to the dRMT architecture: byte-identical reports for every
// worker count, including in a mixed-architecture campaign.
func TestDRMTReportDeterministicAcrossWorkers(t *testing.T) {
	jobs := drmtJobs(t, 1500, 1, 9)
	jobs = append(jobs, passingJobs(t, 1500, 1)...) // mixed rmt+drmt matrix

	var want string
	for _, workers := range []int{1, 4, 8} {
		rep, err := Run(context.Background(), jobs, Options{Workers: workers, ShardSize: 256})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := rep.WriteJSON(&buf, false); err != nil {
			t.Fatal(err)
		}
		got := buf.String() + "\n---\n" + rep.Text(false)
		if want == "" {
			want = got
			continue
		}
		if got != want {
			t.Fatalf("report differs between workers=1 and workers=%d:\n--- want ---\n%s--- got ---\n%s",
				workers, want, got)
		}
	}
}

// TestDRMTFingerprintGolden pins DRMTTarget.Fingerprint to the bytes it had
// while the target still carried an engine-selection switch (always off in
// every matrix): ShardKey derives from it, so retiring the switch must not
// re-key a single dRMT shard. (ShardKey also salts with the executable's
// hash, so a new binary re-executes anyway; what this pins is the job
// identity.) A deliberate change of a dRMT job's identity — benchmark
// source or entries, hardware defaults, traffic — is the only reason to
// touch these.
func TestDRMTFingerprintGolden(t *testing.T) {
	want := map[string]string{
		"drmt/counter/seed=1":       "c6535096e34d512b1a227250e40f33523bf971ce3568564f136dae0c7c9fc988",
		"drmt/l2l3/seed=1":          "04a293c7e7cf82a2c2c9d5fa7a4f2cab0b7b4922ba870494a6941c1c5e7c6191",
		"drmt/l2l3-targeted/seed=1": "85e01c6d326b40b2ce55883531fe3b943667765afdf7148c27a8580fe7472a90",
		"drmt/wide-fanin/seed=1":    "94a79d451a92917ba89762960e7ad4621964fbf5080e41fabca019c6038a1377",

		"drmt/counter/seed=3/procs=2/traffic=boundary": "9e71836caff11a2769ad2ad32b7ad405be4377eb10bb42a7c9edc0f1204804a9",
	}
	jobs, err := DRMTDefaultMatrix(50000)
	if err != nil {
		t.Fatal(err)
	}
	swept, err := DRMTMatrix(drmt.Benchmarks()[:1], []int{2}, []drmt.TrafficMode{drmt.TrafficBoundary}, []int64{3}, 100)
	if err != nil {
		t.Fatal(err)
	}
	jobs = append(jobs, swept...)
	if len(jobs) != len(want) {
		t.Fatalf("%d jobs, %d golden fingerprints: a new default dRMT benchmark needs a golden entry", len(jobs), len(want))
	}
	for _, j := range jobs {
		if got := j.Target.(*DRMTTarget).Fingerprint(); got != want[j.Name] {
			t.Errorf("%s: fingerprint %s, golden %s", j.Name, got, want[j.Name])
		}
	}
}

// TestDRMTCampaignPasses: every registered dRMT benchmark must fuzz clean
// through the campaign engine, with arch-labeled report rows.
func TestDRMTCampaignPasses(t *testing.T) {
	rep, err := Run(context.Background(), drmtJobs(t, 2000, 1), Options{Workers: 4, ShardSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Passed {
		t.Fatalf("dRMT campaign failed:\n%s", rep.Text(false))
	}
	for i := range rep.Jobs {
		j := &rep.Jobs[i]
		if j.Arch != "drmt" || j.Engine != "isa" {
			t.Fatalf("job %s labeled arch=%s engine=%s", j.Name, j.Arch, j.Engine)
		}
		if !strings.HasPrefix(j.Name, "drmt/") {
			t.Fatalf("job name %q lacks architecture prefix", j.Name)
		}
		if j.Checked != j.Packets || j.Ticks == 0 {
			t.Fatalf("job %s: %+v", j.Name, j)
		}
	}
}

// TestDRMTCampaignMatchesDirectRun pins the campaign's dRMT path against a
// direct drmt.ISAMachine.RunStream over the same seeded traffic: per shard, a
// fresh generator seeded with deriveSeed(job seed, shard) must yield the
// same packet count and the same executed-instruction total the campaign
// reports as Ticks.
func TestDRMTCampaignMatchesDirectRun(t *testing.T) {
	bm, err := drmt.LookupBenchmark("l2l3-targeted")
	if err != nil {
		t.Fatal(err)
	}
	const (
		seed      = int64(5)
		packets   = 2000
		shardSize = 512
	)
	jobs, err := DRMTMatrix([]*drmt.Benchmark{bm}, nil, nil, []int64{seed}, packets)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(context.Background(), jobs, Options{Workers: 4, ShardSize: shardSize})
	if err != nil {
		t.Fatal(err)
	}
	j := rep.Jobs[0]
	if j.Status != StatusPass {
		t.Fatalf("campaign job: %+v", j)
	}

	prog, err := bm.Program()
	if err != nil {
		t.Fatal(err)
	}
	entries, err := bm.Entries(prog)
	if err != nil {
		t.Fatal(err)
	}
	isaM, err := drmt.NewISAMachine(prog, nil, entries, bm.HW)
	if err != nil {
		t.Fatal(err)
	}
	var directChecked int
	var directInstr int64
	for s := 0; s*shardSize < packets; s++ {
		n := shardSize
		if rem := packets - s*shardSize; rem < n {
			n = rem
		}
		isaM.ResetState() // campaign shards reset state too
		stats, err := isaM.RunStream(deriveSeed(seed, s), n, bm.MaxInput)
		if err != nil {
			t.Fatal(err)
		}
		directChecked += stats.Packets
		directInstr += stats.Instructions
	}
	if j.Checked != directChecked {
		t.Fatalf("campaign checked %d packets, direct run %d", j.Checked, directChecked)
	}
	if j.Ticks != directInstr {
		t.Fatalf("campaign ticks %d, direct ISA instructions %d", j.Ticks, directInstr)
	}
}

// TestDRMTCampaignFindsInjectedBug runs a campaign over a deliberately
// miscompiled ISA program (the ttl decrement flipped to an increment) and
// checks every counterexample against an independent differential rerun of
// the same seeded shard traffic — global packet indices included.
func TestDRMTCampaignFindsInjectedBug(t *testing.T) {
	bm, err := drmt.LookupBenchmark("l2l3")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := bm.Program()
	if err != nil {
		t.Fatal(err)
	}
	entries, err := bm.Entries(prog)
	if err != nil {
		t.Fatal(err)
	}
	isa, err := drmt.Assemble(prog)
	if err != nil {
		t.Fatal(err)
	}
	bad, err := drmt.MiscompileALUAdd(isa, 8) // the ttl decrement
	if err != nil {
		t.Fatal(err)
	}
	const (
		seed      = int64(11)
		packets   = 4096
		shardSize = 1024
	)
	job := Job{
		Name:    "drmt/l2l3/miscompiled",
		Target:  &DRMTTarget{Program: prog, Entries: entries, HW: bm.HW, ISA: bad},
		Seed:    seed,
		Packets: packets,
	}
	rep, err := Run(context.Background(), []Job{job},
		Options{Workers: 4, ShardSize: shardSize, MaxCounterexamples: -1})
	if err != nil {
		t.Fatal(err)
	}
	j := rep.Jobs[0]
	if j.Status != StatusFail || len(j.Counterexamples) == 0 {
		t.Fatalf("campaign missed the injected bug: %+v", j)
	}

	// Independent differential rerun, shard by shard, collecting global
	// packet indices of diverging packets.
	f, err := drmt.NewDiffFuzzer(prog, bad, entries, bm.HW)
	if err != nil {
		t.Fatal(err)
	}
	type tuple struct{ input, got, want string }
	seen := map[tuple]bool{}
	var wantPackets []int
	for s := 0; s*shardSize < packets; s++ {
		drep, err := f.FuzzSeeded(deriveSeed(seed, s), shardSize, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range drep.Diffs {
			k := tuple{d.Input, d.Got, d.Want}
			if seen[k] {
				continue // merge dedups identical tuples across shards
			}
			seen[k] = true
			wantPackets = append(wantPackets, s*shardSize+d.Index)
		}
	}
	if len(j.Counterexamples) != len(wantPackets) {
		t.Fatalf("campaign found %d counterexamples, direct differential %d",
			len(j.Counterexamples), len(wantPackets))
	}
	for i, ce := range j.Counterexamples {
		if ce.Packet != wantPackets[i] {
			t.Fatalf("counterexample %d at packet %d, direct differential says %d",
				i, ce.Packet, wantPackets[i])
		}
		if !strings.Contains(ce.Got, "ipv4.ttl") {
			t.Fatalf("counterexample lost the field rendering: %+v", ce)
		}
	}
}
