package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"druzhba/internal/campaign"
	"druzhba/internal/core"
	"druzhba/internal/drmt"
	"druzhba/internal/fabric"
	"druzhba/internal/farmd"
	"druzhba/internal/obs"
	"druzhba/internal/phv"
	"druzhba/internal/sim"
	"druzhba/internal/spec"
)

// Layer probes: each drives one layer's public functions directly, outside
// any campaign, and reports what one call or one PHV costs there. They do
// not depend on the workload being traced; a traced run executes all of
// them so every per-layer metric is present in every traced result.

// probeGroups lists the probes; each measures one group of layers.
var probeGroups = []struct {
	name string
	fn   func(e *env, log io.Writer) (map[string]float64, error)
}{
	{"rmt kernel", probeRMT},
	{"drmt kernel", probeDRMT},
	{"campaign engine", probeCampaign},
	{"cache tiers", probeCache},
	{"lease wire", probeLease},
	{"journal", probeJournal},
	{"verify", probeVerify},
}

// runProbes runs every probe group and merges their metrics.
func runProbes(e *env, log io.Writer) (map[string]float64, error) {
	e = e.bulk() // layers are priced on the full-size matrix, whatever a rep runs
	out := map[string]float64{}
	for _, g := range probeGroups {
		t0 := time.Now()
		m, err := g.fn(e, log)
		if err != nil {
			return nil, fmt.Errorf("probe %s: %w", g.name, err)
		}
		for k, v := range m {
			out[k] = v
		}
		if log != nil {
			fmt.Fprintf(log, "  probe %-16s %6.2fs\n", g.name, time.Since(t0).Seconds())
		}
	}
	return out, nil
}

// msSince is the time elapsed since t0 in milliseconds.
func msSince(t0 time.Time) float64 { return float64(time.Since(t0).Nanoseconds()) / 1e6 }

// timeN times fn (which performs n operations) three times and returns the
// median cost of one operation in nanoseconds.
func timeN(n int, fn func() error) (float64, error) {
	var per []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	return median(per), nil
}

// timeEach times every one of n calls and returns the median in
// microseconds: for operations that do I/O, where a mean would be set by
// the tail.
func timeEach(n int, fn func(i int) error) (float64, error) {
	us := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := fn(i); err != nil {
			return 0, err
		}
		us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	return median(us), nil
}

// selfCost is what a fuzz loop costs per PHV beyond the parts timed apart
// from it: per program the whole minus its parts, then the arithmetic mean
// over the programs (geometric means are not additive, so the difference of
// two of them is not a cost of anything). Each part's own probe loop adds a
// copy and a call the whole does not make, so on a cheap program the parts
// can exceed the whole; such a program counts as 0 and is named in the log.
func selfCost(log io.Writer, what string, programs []string, whole []float64, parts ...[]float64) float64 {
	sum := 0.0
	for i, w := range whole {
		self := w
		for _, p := range parts {
			self -= p[i]
		}
		if self < 0 {
			if log != nil {
				fmt.Fprintf(log, "  %s: %s: parts exceed the whole by %.1f ns/PHV, self counted as 0\n", what, programs[i], -self)
			}
			self = 0
		}
		sum += self
	}
	return sum / float64(len(whole))
}

// levelPHVs is how many PHVs a kernel probe pushes through a pipeline of
// the given level: the unoptimized interpreter is ten times slower per PHV,
// so a quarter of the stream times it as well.
func levelPHVs(lvl core.OptLevel, n int) int {
	if lvl == core.Unoptimized {
		return max(n/4, 64)
	}
	return n
}

var levelKey = map[core.OptLevel]string{
	core.Unoptimized:    "unoptimized",
	core.SCCPropagation: "scc",
	core.SCCInlining:    "scc_inline",
	core.Compiled:       "compiled",
}

// probeRMT measures the RMT path's layers per PHV, geomean over the twelve
// Table-1 programs: traffic generation, the stage kernel at each
// optimization level (sim.Stream.Tick), the PHV-batch kernel, the Domino
// specification, and the whole Fig. 5 fuzz loop — whose remainder after
// subtracting the parts, program by program, is the compare-and-ring cost. Pipeline and spec
// construction are timed on the way (sums over the programs).
func probeRMT(e *env, log io.Writer) (map[string]float64, error) {
	n := e.sizes.probePHVs
	const ring = 1024
	per := map[string][]float64{}
	buildMS := map[string]float64{}
	var ticks, checked, mallocs int64
	var programs []string
	for _, bm := range spec.All() {
		programs = append(programs, bm.Name)
		t0 := time.Now()
		sp, err := bm.SimSpec()
		if err != nil {
			return nil, err
		}
		buildMS["spec.domino_spec_build_ms"] += msSince(t0)
		ss, ok := sp.(sim.StreamSpec)
		if !ok {
			return nil, fmt.Errorf("%s: spec is not a StreamSpec", bm.Name)
		}
		containers, err := bm.CompareContainers()
		if err != nil {
			return nil, err
		}
		pipes := map[core.OptLevel]*core.Pipeline{}
		for _, lvl := range core.AllLevels() {
			t0 := time.Now()
			p, err := bm.Pipeline(lvl)
			if err != nil {
				return nil, err
			}
			buildMS["spec.pipeline_build_ms."+levelKey[lvl]] += msSince(t0)
			pipes[lvl] = p
		}
		fast := pipes[core.Compiled]
		phvLen, bits := fast.PHVLen(), fast.Bits()

		gen := sim.NewTrafficGen(e.seed, phvLen, bits, bm.MaxInput)
		buf := make([]phv.Value, phvLen)
		ns, _ := timeN(n, func() error {
			for i := 0; i < n; i++ {
				gen.Fill(buf)
			}
			return nil
		})
		per["sim.trafficgen.ns_per_phv"] = append(per["sim.trafficgen.ns_per_phv"], ns)

		inputs := make([][]phv.Value, ring)
		for i := range inputs {
			inputs[i] = make([]phv.Value, phvLen)
			gen.Fill(inputs[i])
		}

		for _, lvl := range core.AllLevels() {
			p := pipes[lvl]
			st := sim.NewStream(p)
			n := levelPHVs(lvl, n)
			ns, err := timeN(n, func() error {
				p.ResetState()
				st.Reset()
				for i := 0; i < n; i++ {
					if _, err := st.Tick(inputs[i&(ring-1)]); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", bm.Name, lvl, err)
			}
			key := "sim.stream.ns_per_phv." + levelKey[lvl]
			per[key] = append(per[key], ns)
		}

		const batch = 64
		b, err := sim.NewBatch(fast, batch)
		if err != nil {
			return nil, err
		}
		ns, err = timeN(n/batch*batch, func() error {
			fast.ResetState()
			for i := 0; i+batch <= n; i += batch {
				for k := 0; k < batch; k++ {
					b.Load(k, inputs[(i+k)&(ring-1)])
				}
				if err := b.Run(batch); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("%s: batch: %w", bm.Name, err)
		}
		per["sim.batch.ns_per_phv"] = append(per["sim.batch.ns_per_phv"], ns)

		ns, err = timeN(n, func() error {
			sp.Reset()
			for i := 0; i < n; i++ {
				copy(buf, inputs[i&(ring-1)])
				if err := ss.ProcessStream(buf); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("%s: spec: %w", bm.Name, err)
		}
		per["domino.spec.ns_per_phv"] = append(per["domino.spec.ns_per_phv"], ns)

		for _, lvl := range []core.OptLevel{core.Unoptimized, core.Compiled} {
			f := sim.NewFuzzer(pipes[lvl])
			n := levelPHVs(lvl, n)
			var last *sim.BatchReport
			var ms0, ms1 runtime.MemStats
			runtime.ReadMemStats(&ms0)
			ns, err := timeN(n, func() error {
				g := sim.NewTrafficGen(e.seed, phvLen, bits, bm.MaxInput)
				rep, err := f.FuzzGen(sp, g, n, sim.FuzzOptions{Containers: containers}, 0)
				if err != nil {
					return err
				}
				if !rep.Passed() {
					return fmt.Errorf("fuzz found %d mismatches (err %v)", len(rep.Mismatches), rep.Err)
				}
				last = rep
				return nil
			})
			if err != nil {
				return nil, fmt.Errorf("%s/%s: fuzz: %w", bm.Name, lvl, err)
			}
			runtime.ReadMemStats(&ms1)
			key := "sim.fuzz.ns_per_phv." + levelKey[lvl]
			per[key] = append(per[key], ns)
			if lvl == core.Compiled {
				ticks += int64(last.Ticks)
				checked += int64(last.Checked)
				mallocs += int64(ms1.Mallocs - ms0.Mallocs)
			}
		}
	}
	out := map[string]float64{}
	for k, v := range buildMS {
		out[k] = v
	}
	for k, v := range per {
		out[k] = geomean(v)
	}
	out["sim.fuzz.self_ns_per_phv"] = selfCost(log, "sim.fuzz", programs, per["sim.fuzz.ns_per_phv.compiled"],
		per["sim.trafficgen.ns_per_phv"], per["sim.stream.ns_per_phv.compiled"], per["domino.spec.ns_per_phv"])
	out["sim.fuzz.allocs_per_phv"] = float64(mallocs) / float64(3*checked) // timeN ran each fuzz three times
	out["sim.ticks_per_phv"] = float64(ticks) / float64(checked)
	return out, nil
}

// probeDRMT is probeRMT's counterpart for the dRMT differential loop: the
// ISA machine, the table-level interpreter, their traffic generator, and
// the DiffFuzzer around them (streaming and 64-packet batched).
func probeDRMT(e *env, log io.Writer) (map[string]float64, error) {
	n := e.sizes.probePHVs
	const ring = 1024
	per := map[string][]float64{}
	buildMS := 0.0
	var instrs, checked int64
	var programs []string
	for _, bm := range drmt.Benchmarks() {
		programs = append(programs, bm.Name)
		t0 := time.Now()
		prog, err := bm.Program()
		if err != nil {
			return nil, err
		}
		entries, err := bm.Entries(prog)
		if err != nil {
			return nil, err
		}
		f, err := drmt.NewDiffFuzzer(prog, nil, entries, bm.HW)
		if err != nil {
			return nil, err
		}
		buildMS += msSince(t0)

		gen, err := drmt.NewTrafficGen(e.seed, prog, bm.MaxInput)
		if err != nil {
			return nil, err
		}
		nf := gen.NumFields()
		buf := make([]int64, nf)
		ns, _ := timeN(n, func() error {
			for i := 0; i < n; i++ {
				gen.Fill(buf)
			}
			return nil
		})
		per["drmt.trafficgen.ns_per_phv"] = append(per["drmt.trafficgen.ns_per_phv"], ns)

		inputs := make([][]int64, ring)
		for i := range inputs {
			inputs[i] = make([]int64, nf)
			gen.Fill(inputs[i])
		}
		isa, err := drmt.NewISAMachine(prog, nil, entries, bm.HW)
		if err != nil {
			return nil, err
		}
		ns, err = timeN(n, func() error {
			isa.ResetState()
			for i := 0; i < n; i++ {
				copy(buf, inputs[i&(ring-1)])
				if _, _, err := isa.ExecSlots(buf); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("%s: isa: %w", bm.Name, err)
		}
		per["drmt.isa.ns_per_phv"] = append(per["drmt.isa.ns_per_phv"], ns)

		tab, err := drmt.NewMachine(prog, entries, bm.HW, nil)
		if err != nil {
			return nil, err
		}
		ns, _ = timeN(n, func() error {
			tab.ResetState()
			for i := 0; i < n; i++ {
				copy(buf, inputs[i&(ring-1)])
				tab.ProcessSlots(buf)
			}
			return nil
		})
		per["drmt.table.ns_per_phv"] = append(per["drmt.table.ns_per_phv"], ns)

		for _, batch := range []int{0, 64} {
			fz := f.Clone()
			fz.SetBatch(batch)
			var last *drmt.DiffReport
			ns, err := timeN(n, func() error {
				rep, err := fz.FuzzSeeded(e.seed, n, bm.MaxInput)
				if err != nil {
					return err
				}
				if !rep.Passed() {
					return fmt.Errorf("diff found %d divergences (err %v)", len(rep.Diffs), rep.Err)
				}
				last = rep
				return nil
			})
			if err != nil {
				return nil, fmt.Errorf("%s: diff: %w", bm.Name, err)
			}
			if batch == 0 {
				per["drmt.diff.ns_per_phv"] = append(per["drmt.diff.ns_per_phv"], ns)
				instrs += last.Instructions
				checked += int64(last.Checked)
			} else {
				per["drmt.batch.ns_per_phv"] = append(per["drmt.batch.ns_per_phv"], ns)
			}
		}
	}
	out := map[string]float64{"drmt.build_ms": buildMS}
	for k, v := range per {
		out[k] = geomean(v)
	}
	out["drmt.diff.self_ns_per_phv"] = selfCost(log, "drmt.diff", programs, per["drmt.diff.ns_per_phv"],
		per["drmt.trafficgen.ns_per_phv"], per["drmt.isa.ns_per_phv"], per["drmt.table.ns_per_phv"])
	out["drmt.ticks_per_phv"] = float64(instrs) / float64(checked)
	return out, nil
}

// wallOfRun times one campaign.Run in milliseconds.
func wallOfRun(jobs []campaign.Job, opts campaign.Options) (float64, *campaign.Report, error) {
	t0 := time.Now()
	rep, err := campaign.Run(context.Background(), jobs, opts)
	if err != nil {
		return 0, nil, err
	}
	return msSince(t0), rep, nil
}

// probeCampaign measures what the campaign engine adds around the kernel:
// the fixed cost of one more shard, the share of worker time not spent in
// RunShard, scaling from one worker to W, shard-key derivation, report
// rendering, and the cost of attaching the obs instruments.
func probeCampaign(e *env, log io.Writer) (map[string]float64, error) {
	out := map[string]float64{}

	// Fixed cost per shard: the same packets cut into 64-packet and
	// 65536-packet shards on one worker. Shard size changes the traffic
	// drawn, not its amount.
	bm, err := spec.Lookup("sampling")
	if err != nil {
		return nil, err
	}
	packets := e.sizes.shardProbePackets
	one, err := campaign.Matrix([]*spec.Benchmark{bm}, []core.OptLevel{core.Compiled}, nil, []int64{e.seed}, packets)
	if err != nil {
		return nil, err
	}
	small, large := 64, 1<<16
	shards := func(size int) int { return (packets + size - 1) / size }
	var fixed []float64
	for i := 0; i < 3; i++ {
		ts, _, err := wallOfRun(one, campaign.Options{Workers: 1, ShardSize: small})
		if err != nil {
			return nil, err
		}
		tl, _, err := wallOfRun(one, campaign.Options{Workers: 1, ShardSize: large})
		if err != nil {
			return nil, err
		}
		fixed = append(fixed, (ts-tl)*1e3/float64(shards(small)-shards(large)))
	}
	out["campaign.shard_fixed_us"] = median(fixed)

	// Engine overhead, scaling and metering on the rmt-fast matrix at
	// quarter size.
	quarter := *e
	quarter.sizes.fastPackets = e.sizes.fastPackets / 4
	jobs, err := fastJobs(&quarter)
	if err != nil {
		return nil, err
	}
	var tw, tm, t1, busyShare []float64
	var rep *campaign.Report
	for i := 0; i < 3; i++ {
		t, r, err := wallOfRun(jobs, campaign.Options{Workers: e.workers})
		if err != nil {
			return nil, err
		}
		tw, rep = append(tw, t), r
		t, _, err = wallOfRun(jobs, campaign.Options{Workers: e.workers,
			Metrics: campaign.NewMetrics(obs.NewRegistry()), Trace: obs.NewTracer(io.Discard, nil)})
		if err != nil {
			return nil, err
		}
		tm = append(tm, t)

		rec := newRecorder()
		rec.beginRep("probe", i, "campaign.run")
		t, _, err = wallOfRun(traceJobs(jobs, rec), campaign.Options{Workers: e.workers})
		rec.endRep()
		if err != nil {
			return nil, err
		}
		var inShard int64
		for _, s := range rec.snapshot() {
			if s.Name == spanRunShard {
				inShard += s.dur()
			}
		}
		busyShare = append(busyShare, float64(inShard)/1e6/(t*float64(e.workers)))
		t, _, err = wallOfRun(jobs, campaign.Options{Workers: 1})
		if err != nil {
			return nil, err
		}
		t1 = append(t1, t)
	}
	out["campaign.engine_overhead_pct"] = 100 * (1 - median(busyShare))
	out["campaign.scaling"] = median(t1) / median(tw)
	out["obs.metered_overhead_pct"] = 100 * (median(tm) - median(tw)) / median(tw)

	fp := jobs[0].Target.(campaign.Fingerprinter).Fingerprint()
	const keys = 20000
	ns, _ := timeN(keys, func() error {
		for i := 0; i < keys; i++ {
			campaign.ShardKey(fp, int64(i), 4096)
		}
		return nil
	})
	out["campaign.shardkey_us"] = ns / 1e3

	const renders = 50
	ns, err = timeN(renders*len(rep.Jobs), func() error {
		for i := 0; i < renders; i++ {
			if _, err := reportHash(rep); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out["campaign.report_render_us_per_job"] = ns / 1e3
	return out, nil
}

// probeCache measures each cache tier's get and put, the expansion of a
// matrix request, the three farmd regimes' hit ratios, a cold submission
// (empty memory and directory tiers) and what it costs over a local run of
// the same matrix.
func probeCache(e *env, log io.Writer) (map[string]float64, error) {
	out := map[string]float64{}
	dir, err := os.MkdirTemp(e.workdir, "probe-cache-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	key := func(i int) string { return campaign.ShardKey("probe", int64(i), 4096) }
	res := &campaign.ShardResult{Checked: 4096, Ticks: 4100} // a clean 4096-packet shard

	getPut := func(c campaign.ShardCache, n int, prefix string) error {
		us, _ := timeEach(n, func(i int) error { c.Put(key(i), res); return nil })
		out[prefix+".put_us"] = us
		us, err := timeEach(n, func(i int) error {
			if _, ok := c.Get(key(i)); !ok {
				return fmt.Errorf("%s: entry %d missing after put", prefix, i)
			}
			return nil
		})
		out[prefix+".get_us"] = us
		return err
	}
	if err := getPut(farmd.NewMemCache(0), 2000, "farmd.memcache"); err != nil {
		return nil, err
	}
	disk, err := farmd.NewDirCache(filepath.Join(dir, "tier"))
	if err != nil {
		return nil, err
	}
	if err := getPut(disk, 300, "farmd.dircache"); err != nil {
		return nil, err
	}
	st, err := os.Stat(disk.Path(key(0)))
	if err != nil {
		return nil, err
	}
	out["farmd.dircache.bytes_per_entry"] = float64(st.Size())

	lb, err := newLoopback()
	if err != nil {
		return nil, err
	}
	defer lb.close()
	coord, err := fabric.NewCoordinator(fabric.CoordConfig{Cache: farmd.NewMemCache(0)})
	if err != nil {
		return nil, err
	}
	defer coord.Close()
	lb.set(coord)
	client := &http.Client{Timeout: 10 * time.Second}
	defer client.CloseIdleConnections()
	if err := getPut(farmd.NewRemoteCache(lb.url, "", client), 300, "farmd.remotecache"); err != nil {
		return nil, err
	}

	// The three regimes on a quarter-size matrix, against a local run.
	quarter := *e
	quarter.sizes.fastPackets = e.sizes.fastPackets / 4
	req := fastRequest(&quarter)
	us, err := timeEach(20, func(int) error { _, err := req.Jobs(); return err })
	if err != nil {
		return nil, err
	}
	out["farmd.request_expand_ms"] = us / 1e3
	jobs, err := req.Jobs()
	if err != nil {
		return nil, err
	}
	ratio := func(c *campaign.CacheStats) (float64, error) {
		if c == nil || c.Hits+c.Misses == 0 {
			return 0, fmt.Errorf("submission reported no cache counters")
		}
		return float64(c.Hits) / float64(c.Hits+c.Misses), nil
	}
	var colds, over []float64
	for i := 0; i < 3; i++ {
		inst, err := setupFarmd(farmdCold)(&quarter, filepath.Join(dir, "cold"))
		if err != nil {
			return nil, err
		}
		if err := inst.prep(nil); err != nil {
			inst.close()
			return nil, err
		}
		t0 := time.Now()
		rep, err := inst.rep(nil)
		cold := msSince(t0)
		if err == nil && i == 0 {
			out["farmd.cache.hit_ratio.cold"], err = ratio(rep.Cache)
			if err == nil {
				// Same server, same cache: the memory-warm regime.
				if rep, err = inst.rep(nil); err == nil {
					out["farmd.cache.hit_ratio.warm"], err = ratio(rep.Cache)
				}
			}
		}
		inst.close()
		if err != nil {
			return nil, err
		}
		local, _, err := wallOfRun(jobs, campaign.Options{Workers: e.workers})
		if err != nil {
			return nil, err
		}
		colds, over = append(colds, cold), append(over, cold-local)
	}
	out["farmd.cold_submit_ms"] = median(colds)
	out["farmd.submit_overhead_ms"] = median(over)

	inst, err := setupFarmd(farmdDiskWarm)(&quarter, filepath.Join(dir, "diskwarm"))
	if err != nil {
		return nil, err
	}
	defer inst.close()
	if err := inst.prep(nil); err != nil {
		return nil, err
	}
	if _, err := inst.prime(); err != nil {
		return nil, err
	}
	if err := inst.prep(nil); err != nil { // the restart
		return nil, err
	}
	rep, err := inst.rep(nil)
	if err != nil {
		return nil, err
	}
	out["farmd.cache.hit_ratio.diskwarm"], err = ratio(rep.Cache)
	return out, err
}

// probeLease measures the lease protocol: JSON encode and decode of one
// lease, its size on the wire, the round trip to a worker for a 1-packet
// and a 4096-packet shard (instance cache warm, no shard cache, so the
// shard executes), the dispatcher's own cost on top, and fabric-2w reps
// against local runs with the same two workers.
func probeLease(e *env, log io.Writer) (map[string]float64, error) {
	out := map[string]float64{}
	req := fastRequest(e)
	jobs, err := req.Jobs()
	if err != nil {
		return nil, err
	}
	lease := func(n int) *farmd.ShardLease {
		return &farmd.ShardLease{Proto: farmd.LeaseProto, Campaign: "probe", Job: jobs[0].Name, Seed: e.seed, N: n, Request: req}
	}
	body, err := json.Marshal(lease(4096))
	if err != nil {
		return nil, err
	}
	out["farmd.lease.request_bytes"] = float64(len(body))
	const codec = 2000
	ns, _ := timeN(codec, func() error {
		for i := 0; i < codec; i++ {
			if _, err := json.Marshal(lease(4096)); err != nil {
				return err
			}
		}
		return nil
	})
	out["farmd.lease.encode_us"] = ns / 1e3
	ns, err = timeN(codec, func() error {
		for i := 0; i < codec; i++ {
			var l farmd.ShardLease
			if err := json.Unmarshal(body, &l); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out["farmd.lease.decode_us"] = ns / 1e3

	lb, err := newLoopback()
	if err != nil {
		return nil, err
	}
	defer lb.close()
	lb.set(farmd.NewServer(farmd.Config{Workers: 1}))
	client := &http.Client{Timeout: time.Minute}
	defer client.CloseIdleConnections()
	post := func(n int) (int, error) {
		b, err := json.Marshal(lease(n))
		if err != nil {
			return 0, err
		}
		resp, err := client.Post(lb.url+"/v1/leases", "application/json", bytes.NewReader(b))
		if err != nil {
			return 0, err
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			return 0, err
		}
		var wire farmd.WireShardResult
		if err := json.Unmarshal(data, &wire); err != nil {
			return 0, fmt.Errorf("lease response %s: %w", strings.TrimSpace(string(data)), err)
		}
		if wire.Error != "" || wire.Checked != n {
			return 0, fmt.Errorf("lease of %d packets: checked %d, error %q", n, wire.Checked, wire.Error)
		}
		return len(data), nil
	}
	if _, err := post(1); err != nil { // builds the instance
		return nil, err
	}
	if out["farmd.lease.rtt_fixed_us"], err = timeEach(200, func(int) error { _, err := post(1); return err }); err != nil {
		return nil, err
	}
	var respBytes int
	if out["farmd.lease.rtt_shard_us"], err = timeEach(30, func(int) error {
		n, err := post(4096)
		respBytes = n
		return err
	}); err != nil {
		return nil, err
	}
	out["farmd.lease.response_bytes"] = float64(respBytes)

	// The same shard with no wire at all.
	inst, err := jobs[0].Target.Build()
	if err != nil {
		return nil, err
	}
	runner, err := inst.NewRunner()
	if err != nil {
		return nil, err
	}
	direct, err := timeEach(30, func(int) error {
		if r := runner.RunShard(e.seed, 4096); r.Err != nil || r.Checked != 4096 {
			return fmt.Errorf("direct shard: checked %d, err %v", r.Checked, r.Err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out["fabric.lease.overhead_ratio"] = out["farmd.lease.rtt_shard_us"]/direct - 1

	reg := fabric.NewRegistry(0)
	reg.Register(lb.url)
	disp := fabric.NewDispatcher(reg, fabric.DispatchConfig{Client: client})
	if out["fabric.dispatch.execute_fixed_us"], err = timeEach(200, func(int) error {
		if r := disp.Execute(context.Background(), lease(1)); r.Err != nil {
			return r.Err
		}
		return nil
	}); err != nil {
		return nil, err
	}

	// Fabric efficiency: distributed over local, same matrix, same two
	// worker cores, three interleaved pairs.
	journalDir, err := os.MkdirTemp(e.workdir, "probe-fabric-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(journalDir)
	fab, err := setupFabric(e, journalDir)
	if err != nil {
		return nil, err
	}
	defer fab.close()
	var eff []float64
	for i := 0; i < 3; i++ {
		if err := fab.prep(nil); err != nil {
			return nil, err
		}
		t0 := time.Now()
		if _, err := fab.rep(nil); err != nil {
			return nil, err
		}
		dist := time.Since(t0)
		t0 = time.Now()
		if _, err := fab.reference(); err != nil {
			return nil, err
		}
		eff = append(eff, float64(time.Since(t0))/float64(dist))
	}
	out["fabric.efficiency"] = median(eff)
	st, err := fab.stats()
	if err != nil {
		return nil, err
	}
	var cnt uint64
	for _, l := range st.LeaseLatency {
		out["fabric.lease.p50_ms"] += l.P50MS * float64(l.Count)
		out["fabric.lease.p99_ms"] += l.P99MS * float64(l.Count)
		cnt += l.Count
	}
	if cnt > 0 {
		out["fabric.lease.p50_ms"] /= float64(cnt)
		out["fabric.lease.p99_ms"] /= float64(cnt)
	}
	out["fabric.dispatch.retries"] = float64(st.Dispatch.Retries)
	out["fabric.dispatch.fallback"] = float64(st.Dispatch.Fallback)
	return out, nil
}

// probeJournal measures the coordinator's journal: one synced row append,
// one atomic request save, and replay per row.
func probeJournal(e *env, log io.Writer) (map[string]float64, error) {
	out := map[string]float64{}
	dir, err := os.MkdirTemp(e.workdir, "probe-journal-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	j, err := fabric.NewJournal(dir)
	if err != nil {
		return nil, err
	}
	row, err := json.Marshal(farmd.Row{Job: &campaign.JobReport{
		Name: "rmt/sampling/compiled/seed=1", Mode: campaign.ModeFuzz, Arch: "rmt", Engine: "compiled",
		Seed: 1, Packets: 100000, Shards: 25, ShardsRun: 25, Checked: 100000, Ticks: 100025, Status: campaign.StatusPass}})
	if err != nil {
		return nil, err
	}
	w, err := j.OpenRows("probe")
	if err != nil {
		return nil, err
	}
	const rows = 200
	out["fabric.journal.append_us"], err = timeEach(rows, func(int) error { return w.Append(row) })
	if cerr := w.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	req := fastRequest(e)
	if out["fabric.journal.save_request_us"], err = timeEach(30, func(int) error { return j.SaveRequest("probe", req) }); err != nil {
		return nil, err
	}
	us, err := timeEach(20, func(int) error {
		got, err := j.LoadRows("probe")
		if err == nil && len(got) != rows {
			err = fmt.Errorf("journal replayed %d of %d rows", len(got), rows)
		}
		return err
	})
	out["fabric.journal.load_us_per_row"] = us / rows
	return out, err
}

// probeVerify splits the verify-grid cells' time into instance encoding
// (the same cells with a one-conflict budget) and SAT search, and reports
// the instance sizes and solver effort, which are exact.
func probeVerify(e *env, log io.Writer) (map[string]float64, error) {
	grid := func(maxConflicts int64) (float64, *campaign.Report, error) {
		jobs, err := campaign.VerifyMatrix(spec.All(), e.sizes.verifyBits, e.sizes.verifySteps, []int64{e.seed}, maxConflicts)
		if err != nil {
			return 0, nil, err
		}
		return wallOfRun(jobs, campaign.Options{Workers: e.workers})
	}
	wall, full, err := grid(0)
	if err != nil {
		return nil, err
	}
	_, encodeOnly, err := grid(1)
	if err != nil {
		return nil, err
	}
	var cellMS, slowest, vars, clauses, conflicts float64
	for i := range full.Jobs {
		for _, c := range full.Jobs[i].Cells {
			cellMS += c.SolveMS
			slowest = max(slowest, c.SolveMS)
			vars += float64(c.Vars)
			clauses += float64(c.Clauses)
			conflicts += float64(c.Conflicts)
		}
	}
	var encodeMS float64
	for i := range encodeOnly.Jobs {
		for _, c := range encodeOnly.Jobs[i].Cells {
			encodeMS += c.SolveMS
		}
	}
	solveMS := max(cellMS-encodeMS, 0)
	out := map[string]float64{
		"verify.cell_ms_sum":        cellMS,
		"verify.encode_ms_sum":      encodeMS,
		"sat.solve_ms_sum":          solveMS,
		"sat.conflicts_total":       conflicts,
		"verify.vars_total":         vars,
		"verify.clauses_total":      clauses,
		"verify.slowest_cell_share": slowest / wall,
		"sat.conflicts_per_s":       0, // a grid the encoder alone decides has no search to rate
	}
	if solveMS > 0 {
		out["sat.conflicts_per_s"] = conflicts / (solveMS / 1e3)
	}
	return out, nil
}
