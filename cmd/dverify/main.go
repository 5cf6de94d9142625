// dverify formally verifies machine code against a high-level Domino
// specification (§7 of the paper: the specification and the pipeline
// description "can be transformed into SMT formulas so that equivalence
// can be formally proven"). Unlike dfuzz, which samples random PHVs,
// dverify covers every input of the chosen bit width exhaustively via
// bit-blasting to an internal SAT solver and either proves equivalence or
// prints a concrete counterexample input trace.
//
// Usage (file mode, mirroring dfuzz):
//
//	dverify -depth 2 -width 1 -stateful if_else_raw \
//	        -code sampling.mc -domino sampling.domino -fields sample=0 \
//	        -vbits 5 -steps 3
//
// Benchmark mode verifies a built-in Table 1 fixture:
//
//	dverify -bench sampling -vbits 5 -steps 3
//
// -json emits the result as a machine-readable document instead: verdict
// (proven, counterexample, unknown), SAT statistics (variables, clauses,
// conflicts, solve time) and, on refutation, the decoded counterexample
// input trace with the first diverging transaction. With -bench all the
// battery streams one JSON row per program. -timeout bounds the solve's
// wall clock (an expired budget reports unknown); an interrupt (Ctrl-C)
// abandons the solve the same way instead of wedging.
//
// Every solve also writes one "search:" line to standard error (gates
// built / gates handed to the solver, decisions, propagations, conflicts,
// restarts, learnt and removed clauses, and the propagation rate), so that
// a proof decided while its miter was built (0 gates emitted, 1 variable)
// can be told apart from a search, and a long search from a slow one,
// without touching what standard output carries.
//
// Exit status: 0 when equivalence is proven; 1 on a counterexample or an
// unknown verdict (budget or timeout exhausted) or on usage errors.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"druzhba/internal/cli"
	"druzhba/internal/core"
	"druzhba/internal/domino"
	"druzhba/internal/machinecode"
	"druzhba/internal/phv"
	"druzhba/internal/spec"
	"druzhba/internal/verify"
)

// jsonResult is -json's output document: the deterministic verdict and SAT
// statistics, plus the wall-clock solve time (nondeterministic, reported
// for operators, excluded from nothing here since this output is not
// diffed across runs).
type jsonResult struct {
	Program   string    `json:"program,omitempty"`
	Verdict   string    `json:"verdict"`
	Bits      int       `json:"bits"`
	Steps     int       `json:"steps"`
	Vars      int       `json:"vars"`
	Clauses   int       `json:"clauses"`
	Conflicts int64     `json:"conflicts"`
	SolveMS   float64   `json:"solve_ms"`
	Trace     [][]int64 `json:"trace,omitempty"`
	FailStep  int       `json:"fail_step,omitempty"`
}

// resultJSON flattens a verification result into the -json document.
func resultJSON(program string, bits, steps int, res *verify.Result, solveMS float64) jsonResult {
	out := jsonResult{
		Program:   program,
		Bits:      bits,
		Steps:     steps,
		Vars:      res.Vars,
		Clauses:   res.Clauses,
		Conflicts: res.SolverStats.Conflicts,
		SolveMS:   solveMS,
	}
	switch {
	case res.Equivalent:
		out.Verdict = "proven"
	case res.Unknown:
		out.Verdict = "unknown"
	default:
		out.Verdict = "counterexample"
		out.FailStep = res.FailStep
		out.Trace = traceRows(res.Counterexample)
	}
	return out
}

// printSearch writes the solver's effort on one proof to standard error.
func printSearch(program string, res *verify.Result, elapsed time.Duration) {
	st := res.SolverStats
	fmt.Fprintf(os.Stderr, "search: %s gates=%d/%d decisions=%d propagations=%d conflicts=%d restarts=%d learned=%d removed=%d in %s (%.2fM props/s)\n",
		program, res.GatesBuilt, res.GatesEmitted, st.Decisions, st.Propagations, st.Conflicts, st.Restarts, st.Learned, st.Removed,
		elapsed.Round(100*time.Microsecond), float64(st.Propagations)/1e6/max(elapsed.Seconds(), 1e-9))
}

// traceRows decodes a counterexample trace into rows of container values.
func traceRows(trace *phv.Trace) [][]int64 {
	if trace == nil {
		return nil
	}
	rows := make([][]int64, 0, trace.Len())
	for s := 0; s < trace.Len(); s++ {
		p := trace.At(s)
		row := make([]int64, p.Len())
		for c := range row {
			row[c] = int64(p.Get(c))
		}
		rows = append(rows, row)
	}
	return rows
}

func main() {
	fs := flag.NewFlagSet("dverify", flag.ExitOnError)
	cfg := cli.AddConfigFlags(fs)
	codePath := fs.String("code", "", "machine code file under test (- for stdin)")
	dominoPath := fs.String("domino", "", "Domino specification file")
	fieldsFlag := fs.String("fields", "", "packet field bindings, e.g. sample=0,seq=1")
	bench := fs.String("bench", "", "verify a built-in Table 1 benchmark fixture instead of files")
	bits := fs.Int("vbits", 8, "verification bit width; overrides -bits (exhaustive over this width)")
	steps := fs.Int("steps", 2, "consecutive transactions to unroll")
	maxVal := fs.Int64("max", 0, "constrain input container values to [0,max) (0 = full width)")
	budget := fs.Int64("budget", 0, "solver conflict budget (0 = unlimited)")
	timeout := fs.Duration("timeout", 0, "wall-clock solve budget; an expired budget reports unknown (0 = unbounded)")
	jsonOut := fs.Bool("json", false, "emit the result as JSON (verdict, counterexample trace, SAT statistics)")
	stateFlag := fs.String("state", "", "state bindings: domino_state=stage:slot:index, comma separated")
	fs.Parse(os.Args[1:]) //nolint:errcheck // ExitOnError

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	var (
		hw     core.Spec
		code   *machinecode.Program
		prog   *domino.Program
		fields domino.FieldMap
		err    error
	)
	if *bench == "all" {
		battery(ctx, *bits, *steps, *budget, *jsonOut)
		return
	}
	switch {
	case *bench != "":
		bm, lerr := spec.Lookup(*bench)
		if lerr != nil {
			cli.Fatalf("dverify: %v (available: %v)", lerr, spec.Names())
		}
		r, rerr := bm.Resolve()
		if rerr != nil {
			cli.Fatalf("dverify: %v", rerr)
		}
		hw, code, prog = r.Spec, r.Code, r.Program
		fields = bm.Fields
		if *maxVal == 0 {
			*maxVal = bm.MaxInput
		}
	default:
		if *codePath == "" || *dominoPath == "" {
			cli.Fatalf("dverify: -code and -domino are required (or -bench)")
		}
		if hw, err = cfg.Spec(); err != nil {
			cli.Fatalf("dverify: %v", err)
		}
		if code, err = cli.LoadMachineCode(*codePath); err != nil {
			cli.Fatalf("dverify: %v", err)
		}
		src, rerr := cli.ReadFile(*dominoPath)
		if rerr != nil {
			cli.Fatalf("dverify: %v", rerr)
		}
		if prog, err = domino.Parse(src); err != nil {
			cli.Fatalf("dverify: %v", err)
		}
		prog.Name = *dominoPath
		if fields, err = cli.ParseFieldMap(*fieldsFlag); err != nil {
			cli.Fatalf("dverify: %v", err)
		}
	}

	bindings, err := parseStateBindings(*stateFlag)
	if err != nil {
		cli.Fatalf("dverify: %v", err)
	}
	start := time.Now()
	res, err := verify.EquivalenceContext(ctx, hw, code, prog, fields, verify.Options{
		Bits:          *bits,
		Steps:         *steps,
		MaxInput:      *maxVal,
		MaxConflicts:  *budget,
		StateBindings: bindings,
	})
	if err != nil {
		cli.Fatalf("dverify: %v", err)
	}
	elapsed := time.Since(start)
	solveMS := float64(elapsed.Microseconds()) / 1e3
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(resultJSON(prog.Name, *bits, *steps, res, solveMS)); err != nil {
			cli.Fatalf("dverify: %v", err)
		}
	} else {
		fmt.Println(res)
	}
	printSearch(prog.Name, res, elapsed)
	if !res.Equivalent {
		os.Exit(1)
	}
}

// parseStateBindings parses "c=0:0:0,d=1:2:0" into state bindings.
func parseStateBindings(s string) (map[string]verify.StateLoc, error) {
	if s == "" {
		return nil, nil
	}
	out := map[string]verify.StateLoc{}
	for _, part := range strings.Split(s, ",") {
		name, loc, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf("bad state binding %q (want name=stage:slot:index)", part)
		}
		var l verify.StateLoc
		if _, err := fmt.Sscanf(loc, "%d:%d:%d", &l.Stage, &l.Slot, &l.Index); err != nil {
			return nil, fmt.Errorf("bad state location %q: %v", loc, err)
		}
		out[name] = l
	}
	return out, nil
}

// battery verifies every Table 1 fixture and prints one row per program:
// the formal-verification counterpart of the paper's §5.2 case-study
// battery. With jsonOut it streams one JSON document per program instead.
func battery(ctx context.Context, bits, steps int, budget int64, jsonOut bool) {
	if !jsonOut {
		fmt.Printf("%-20s %-6s %-6s %-10s %8s %10s %10s\n",
			"program", "bits", "steps", "verdict", "SATvars", "conflicts", "time")
	}
	enc := json.NewEncoder(os.Stdout)
	failures := 0
	for _, bm := range spec.All() {
		r, err := bm.Resolve()
		if err != nil {
			cli.Fatalf("dverify: %s: %v", bm.Name, err)
		}
		start := time.Now()
		res, err := verify.EquivalenceContext(ctx, r.Spec, r.Code, r.Program, bm.Fields, verify.Options{
			Bits: bits, Steps: steps, MaxInput: bm.MaxInput, MaxConflicts: budget,
		})
		if err != nil {
			cli.Fatalf("dverify: %s: %v", bm.Name, err)
		}
		elapsed := time.Since(start)
		if !res.Equivalent {
			failures++
		}
		if jsonOut {
			if err := enc.Encode(resultJSON(bm.Name, bits, steps, res, float64(elapsed.Microseconds())/1e3)); err != nil {
				cli.Fatalf("dverify: %v", err)
			}
			printSearch(bm.Name, res, elapsed)
			continue
		}
		verdict := "PROVED"
		switch {
		case res.Unknown:
			verdict = "UNKNOWN"
		case !res.Equivalent:
			verdict = "REFUTED"
		}
		fmt.Printf("%-20s %-6d %-6d %-10s %8d %10d %10s\n",
			bm.Name, bits, steps, verdict, res.Vars, res.SolverStats.Conflicts,
			elapsed.Round(time.Millisecond))
		printSearch(bm.Name, res, elapsed)
	}
	if failures > 0 {
		os.Exit(1)
	}
}
