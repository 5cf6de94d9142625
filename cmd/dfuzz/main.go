// dfuzz runs the compiler-testing workflow of Fig. 5 of the paper: the same
// randomly generated input trace is fed to the simulated pipeline (built
// from machine code under test) and to a high-level Domino specification;
// the two output traces are compared and the first divergence is reported.
//
// Usage:
//
//	dfuzz -depth 2 -width 1 -stateful if_else_raw \
//	      -code sampling.mc -domino sampling.domino -fields sample=0 -n 50000
package main

import (
	"flag"
	"fmt"
	"os"

	"druzhba/internal/cli"
	"druzhba/internal/core"
	"druzhba/internal/domino"
	"druzhba/internal/sim"
)

func main() {
	fs := flag.NewFlagSet("dfuzz", flag.ExitOnError)
	cfg := cli.AddConfigFlags(fs)
	codePath := fs.String("code", "", "machine code file under test (- for stdin)")
	dominoPath := fs.String("domino", "", "Domino specification file")
	fieldsFlag := fs.String("fields", "", "packet field bindings, e.g. sample=0,seq=1")
	n := fs.Int("n", 50000, "number of random PHVs")
	seed := fs.Int64("seed", 1, "traffic generator seed")
	maxVal := fs.Int64("max", 0, "bound on generated container values (0 = full width)")
	level := fs.String("level", "scc+inline", "optimization level")
	allContainers := fs.Bool("all-containers", false, "compare every container, not only spec-written fields")
	fs.Parse(os.Args[1:]) //nolint:errcheck // ExitOnError

	spec, err := cfg.Spec()
	if err != nil {
		cli.Fatalf("dfuzz: %v", err)
	}
	if *codePath == "" || *dominoPath == "" {
		cli.Fatalf("dfuzz: -code and -domino are required")
	}
	code, err := cli.LoadMachineCode(*codePath)
	if err != nil {
		cli.Fatalf("dfuzz: %v", err)
	}
	lvl, err := core.ParseLevel(*level)
	if err != nil {
		cli.Fatalf("dfuzz: %v", err)
	}
	src, err := cli.ReadFile(*dominoPath)
	if err != nil {
		cli.Fatalf("dfuzz: %v", err)
	}
	prog, err := domino.Parse(src)
	if err != nil {
		cli.Fatalf("dfuzz: %v", err)
	}
	prog.Name = *dominoPath
	fields, err := cli.ParseFieldMap(*fieldsFlag)
	if err != nil {
		cli.Fatalf("dfuzz: %v", err)
	}
	dspec, err := domino.NewPHVSpec(prog, fields, spec.Bits)
	if err != nil {
		cli.Fatalf("dfuzz: %v", err)
	}
	pipeline, err := core.Build(spec, code, lvl)
	if err != nil {
		cli.Fatalf("dfuzz: pipeline build failed (machine code incompatible with the pipeline): %v", err)
	}
	var containers []int
	if !*allContainers {
		containers, err = domino.WrittenContainers(prog, fields)
		if err != nil {
			cli.Fatalf("dfuzz: %v", err)
		}
	}
	gen := sim.NewTrafficGen(*seed, pipeline.PHVLen(), pipeline.Bits(), *maxVal)
	rep, err := sim.NewFuzzer(pipeline).FuzzGen(dspec, gen, *n, sim.FuzzOptions{Containers: containers}, 1)
	if err != nil {
		cli.Fatalf("dfuzz: %v", err)
	}
	fmt.Println(rep)
	if !rep.Passed() {
		os.Exit(1)
	}
}
