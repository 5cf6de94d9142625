// dfarm runs parallel fuzzing campaigns: the Fig. 5 compiler-testing
// workflow fanned out over a job matrix on a bounded worker pool. Each
// job's packet budget is sharded into deterministically sub-seeded chunks,
// its target is built on its first cache miss (never for a fully cached
// job), and shard results merge into a report that is byte-identical for
// every -workers value — so campaign output can be diffed across machines
// and runs.
//
// Two architectures are available as job targets. -arch rmt (the default)
// sweeps the Table-1 benchmark matrix over all four pipeline engines
// (unoptimized, scc, scc+inline, compiled); -arch drmt sweeps the dRMT
// benchmark set, fuzzing the ISA-level machine (§7) against the
// interpreted mini-P4 semantics (§4); -arch all runs both. -traffic adds
// the boundary-value adversarial regime as a matrix axis, and -procs
// sweeps dRMT processor-count variants.
//
// -mode selects the campaign phases. The default, fuzz, is the random
// differential workload above. -mode verify instead runs SAT-based bounded
// equivalence proofs (§7) over the rmt benchmarks: each job's cells span a
// -vbits × -vsteps proof grid, every cell is an independent shard decided
// on the worker pool, and verdicts (proven, counterexample, unknown) carry
// the instance's SAT statistics. -mode both chains the two: verification
// runs first and every counterexample trace it decodes is replayed as seed
// traffic at the start of each fuzz shard, so a proof refutation
// immediately becomes a deterministic fuzz regression. Verify cells are
// pure functions of the (spec, machine code, grid) content, so a daemon's
// shard cache replays them on resubmission without re-proving anything.
//
// With -server, dfarm becomes a client of a dfarmd campaign daemon: the
// same flags are submitted as a JSON matrix, the daemon streams one NDJSON
// row per job as jobs complete, and dfarm reassembles and renders them
// byte-identically to an offline run — except that the daemon's
// content-addressed shard cache replays unchanged work instead of
// re-executing it (-timing shows the hit counters).
//
//	dfarm -packets 50000 -workers 8
//	dfarm -run flowlets -levels scc+inline,compiled -seeds 1,2,3 -json report.json
//	dfarm -arch drmt -packets 20000 -procs 2,4,8
//	dfarm -arch all -traffic uniform,boundary -failfast -timing
//	dfarm -mode verify -vbits 3,5 -vsteps 2,3
//	dfarm -mode both -run sampling -packets 10000
//	dfarm -server http://localhost:8844 -run lru -json report.json
//
// Exit status: 0 when every job passes; 1 when any job fails (mismatch,
// simulation error, unproven verification cell or abort) or on usage
// errors.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"druzhba/internal/campaign"
	"druzhba/internal/cli"
	"druzhba/internal/farmd"
)

func main() {
	fs := flag.NewFlagSet("dfarm", flag.ExitOnError)
	arch := fs.String("arch", "rmt", "architectures to campaign over: rmt, drmt or all")
	workers := fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS); offline mode only")
	packets := fs.Int("packets", 50000, "random PHVs per job (the paper's workload is 50000)")
	shard := fs.Int("shard", 4096, "packets per shard (part of the campaign's identity; changing it changes the traffic)")
	seeds := fs.String("seeds", "1", "comma-separated traffic seeds; each seed adds a full matrix sweep")
	levels := fs.String("levels", "", "comma-separated optimization levels (empty = unoptimized,scc,scc+inline,compiled)")
	traffic := fs.String("traffic", "", "comma-separated traffic modes: uniform, boundary (empty = uniform)")
	procs := fs.String("procs", "", "comma-separated dRMT processor-count variants (empty = benchmark defaults)")
	run := fs.String("run", "", "only benchmarks whose name contains this substring")
	mode := fs.String("mode", "fuzz", "campaign phases: fuzz, verify, or both (verify first, feeding counterexample traces into the fuzzer)")
	vbits := fs.String("vbits", "", "comma-separated verification bit widths (verify/both modes; empty = 8,10)")
	vsteps := fs.String("vsteps", "", "comma-separated transaction-unrolling depths (verify/both modes; empty = 2)")
	budget := fs.Int64("budget", 0, "solver conflict budget per proof cell (0 = unlimited; exhaustion yields an unknown verdict)")
	maxCE := fs.Int("max-counterexamples", 8, "deduplicated counterexamples kept per job (-1 = unbounded)")
	failfast := fs.Bool("failfast", false, "cancel the campaign at the first failing shard")
	jobTimeout := fs.Duration("job-timeout", 0, "per-job wall-clock budget (0 = unbounded)")
	server := fs.String("server", "", "submit the matrix to this dfarmd/dcoord base URL instead of executing locally")
	authToken := fs.String("auth-token", "", "bearer token for -server submissions (the fleet's shared secret)")
	jsonPath := fs.String("json", "", "write the report as JSON to this file (- for stdout)")
	timing := fs.Bool("timing", false, "include workers/elapsed/cache metadata in the report (breaks byte-identity across -workers and cache states)")
	tracePath := fs.String("trace", "", "journal campaign/job/shard lifecycle events as NDJSON to this file; offline mode only (empty = off; the report stays byte-identical)")
	fs.Parse(os.Args[1:]) //nolint:errcheck // ExitOnError
	if fs.NArg() > 0 {
		cli.Fatalf("dfarm: unexpected argument %q (all options are flags)", fs.Arg(0))
	}

	seedList, err := farmd.ParseSeeds(*seeds)
	if err != nil {
		cli.Fatalf("dfarm: %v", err)
	}
	procList, err := farmd.ParseInts(*procs)
	if err != nil {
		cli.Fatalf("dfarm: -procs: %v", err)
	}
	vbitsList, err := farmd.ParseInts(*vbits)
	if err != nil {
		cli.Fatalf("dfarm: -vbits: %v", err)
	}
	vstepsList, err := farmd.ParseInts(*vsteps)
	if err != nil {
		cli.Fatalf("dfarm: -vsteps: %v", err)
	}
	req := &farmd.MatrixRequest{
		Arch:               *arch,
		Run:                *run,
		Levels:             farmd.SplitList(*levels),
		Traffic:            farmd.SplitList(*traffic),
		Procs:              procList,
		Seeds:              seedList,
		Packets:            *packets,
		ShardSize:          *shard,
		MaxCounterexamples: *maxCE,
		FailFast:           *failfast,
		JobTimeoutMS:       (*jobTimeout).Milliseconds(),
		Mode:               *mode,
		VerifyBits:         vbitsList,
		VerifySteps:        vstepsList,
		MaxConflicts:       *budget,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var report *campaign.Report
	var runErr error
	if *server != "" {
		// Against a fabric coordinator the stream is resumable: a severed
		// connection reattaches at the last received row while the
		// campaign keeps running server-side.
		report, runErr = farmd.SubmitOpts(ctx, *server, req, farmd.StreamOptions{Token: *authToken}, nil)
		// A stream that died mid-campaign still yields the rows received
		// so far; render them like an offline cancelled run. Only a
		// submission that produced nothing at all is fatal.
		if report == nil || (runErr != nil && len(report.Jobs) == 0) {
			cli.Fatalf("dfarm: %v", runErr)
		}
	} else {
		rt, err := farmd.NewRuntime("dfarm", farmd.RuntimeFlags{TracePath: *tracePath, NoCache: true})
		if err != nil {
			cli.Fatalf("dfarm: %v", err)
		}
		defer rt.Close()
		report, runErr = farmd.RunMatrix(ctx, req, req.Options(campaign.Options{Workers: *workers, JobTimeout: *jobTimeout, Trace: rt.Trace}))
		if report == nil {
			cli.Fatalf("dfarm: %v", runErr)
		}
	}

	// With -json - the JSON document owns stdout; the text report moves to
	// stderr so stdout stays machine-parseable.
	if *jsonPath == "-" {
		fmt.Fprint(os.Stderr, report.Text(*timing))
		if err := report.WriteJSON(os.Stdout, *timing); err != nil {
			cli.Fatalf("dfarm: %v", err)
		}
	} else {
		fmt.Print(report.Text(*timing))
		if *jsonPath != "" {
			f, err := os.Create(*jsonPath)
			if err != nil {
				cli.Fatalf("dfarm: %v", err)
			}
			defer f.Close()
			if err := report.WriteJSON(f, *timing); err != nil {
				cli.Fatalf("dfarm: %v", err)
			}
		}
	}
	if runErr != nil {
		fmt.Fprintf(os.Stderr, "dfarm: campaign cancelled: %v\n", runErr)
	}
	if !report.Passed {
		os.Exit(1)
	}
}
