// dsim is Druzhba's simulation component (§3.3 of the paper): it builds an
// executable pipeline from a hardware configuration and machine code, drives
// randomly generated PHVs through it tick by tick, and prints the output
// packet trace and final state vectors.
//
// Usage:
//
//	dsim -depth 2 -width 1 -stateful if_else_raw -code sampling.mc -phvs 20 -trace
package main

import (
	"flag"
	"fmt"
	"os"

	"druzhba/internal/cli"
	"druzhba/internal/core"
	"druzhba/internal/sim"
)

func main() {
	fs := flag.NewFlagSet("dsim", flag.ExitOnError)
	cfg := cli.AddConfigFlags(fs)
	codePath := fs.String("code", "", "machine code file (- for stdin)")
	level := fs.String("level", "scc+inline", "optimization level: unoptimized, scc, scc+inline")
	phvs := fs.Int("phvs", 10, "number of PHVs to generate")
	seed := fs.Int64("seed", 1, "traffic generator seed")
	maxVal := fs.Int64("max", 0, "bound on generated container values (0 = full width)")
	showTrace := fs.Bool("trace", false, "print the input and output traces")
	unchecked := fs.Bool("unchecked", false, "skip machine code validation (missing pairs fail at runtime, like the original dsim)")
	fs.Parse(os.Args[1:]) //nolint:errcheck // ExitOnError

	spec, err := cfg.Spec()
	if err != nil {
		cli.Fatalf("dsim: %v", err)
	}
	if *codePath == "" {
		cli.Fatalf("dsim: -code is required")
	}
	code, err := cli.LoadMachineCode(*codePath)
	if err != nil {
		cli.Fatalf("dsim: %v", err)
	}
	lvl, err := core.ParseLevel(*level)
	if err != nil {
		cli.Fatalf("dsim: %v", err)
	}
	var pipeline *core.Pipeline
	if *unchecked {
		pipeline, err = core.BuildUnchecked(spec, code)
	} else {
		pipeline, err = core.Build(spec, code, lvl)
	}
	if err != nil {
		cli.Fatalf("dsim: %v", err)
	}
	gen := sim.NewTrafficGen(*seed, pipeline.PHVLen(), pipeline.Bits(), *maxVal)
	input := gen.Trace(*phvs)
	res, err := sim.Run(pipeline, input)
	if err != nil {
		cli.Fatalf("dsim: simulation failed: %v", err)
	}
	fmt.Printf("simulated %d PHVs in %d ticks (pipeline %dx%d, level %s)\n",
		res.Output.Len(), res.Ticks, spec.Depth, spec.Width, lvl)
	if *showTrace {
		for i := 0; i < input.Len(); i++ {
			fmt.Printf("phv %4d: in %s -> out %s\n", i, input.At(i), res.Output.At(i))
		}
	}
	fmt.Printf("final state: %s\n", res.FinalState)
}
