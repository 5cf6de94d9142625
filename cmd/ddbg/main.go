// ddbg is the time-travel debugger of the paper's §7 future work: it
// records a full pipeline simulation — per-tick state snapshots and slot
// occupancy — and lets the tester travel bi-directionally through the
// history, set breakpoints on state values, and inspect PHVs, to "trace
// origins of erroneous behavior".
//
// Usage:
//
//	ddbg -depth 2 -width 1 -stateful if_else_raw -code sampling.mc -phvs 30
//
// Commands at the prompt: next, back, goto <t>, state, slots,
// watch <stage> <alu> <var>, break <stage> <alu> <var> <value>, phv <i>,
// quit.
package main

import (
	"flag"
	"os"

	"druzhba/internal/cli"
	"druzhba/internal/core"
	"druzhba/internal/debug"
	"druzhba/internal/sim"
)

func main() {
	fs := flag.NewFlagSet("ddbg", flag.ExitOnError)
	cfg := cli.AddConfigFlags(fs)
	codePath := fs.String("code", "", "machine code file (- for stdin)")
	level := fs.String("level", "scc+inline", "optimization level")
	phvs := fs.Int("phvs", 20, "number of PHVs to simulate")
	seed := fs.Int64("seed", 1, "traffic generator seed")
	maxVal := fs.Int64("max", 0, "bound on generated container values")
	fs.Parse(os.Args[1:]) //nolint:errcheck // ExitOnError

	spec, err := cfg.Spec()
	if err != nil {
		cli.Fatalf("ddbg: %v", err)
	}
	if *codePath == "" {
		cli.Fatalf("ddbg: -code is required")
	}
	code, err := cli.LoadMachineCode(*codePath)
	if err != nil {
		cli.Fatalf("ddbg: %v", err)
	}
	lvl, err := core.ParseLevel(*level)
	if err != nil {
		cli.Fatalf("ddbg: %v", err)
	}
	pipeline, err := core.Build(spec, code, lvl)
	if err != nil {
		cli.Fatalf("ddbg: %v", err)
	}
	gen := sim.NewTrafficGen(*seed, pipeline.PHVLen(), pipeline.Bits(), *maxVal)
	session, err := debug.NewSession(pipeline, gen.Trace(*phvs))
	if err != nil {
		cli.Fatalf("ddbg: %v", err)
	}
	if err := debug.REPL(session, os.Stdin, os.Stdout); err != nil {
		cli.Fatalf("ddbg: %v", err)
	}
}
