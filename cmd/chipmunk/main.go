// chipmunk is the synthesis-based compiler of the paper's §5.2 case study
// (substituting the SKETCH-based Chipmunk): it takes a Domino packet
// transaction and a pipeline configuration, synthesizes machine code by
// CEGIS over the pipeline's holes, and optionally validates the result at a
// higher input bit width (the case study's 10-bit check).
//
// Usage:
//
//	chipmunk -domino sum.domino -fields v=0 -depth 1 -width 1 -stateful raw \
//	         -verify-bits 2 -validate-bits 10 -o sum.mc
package main

import (
	"flag"
	"fmt"
	"os"

	"druzhba/internal/cli"
	"druzhba/internal/domino"
	"druzhba/internal/synth"
)

func main() {
	fs := flag.NewFlagSet("chipmunk", flag.ExitOnError)
	cfg := cli.AddConfigFlags(fs)
	dominoPath := fs.String("domino", "", "Domino program to compile")
	fieldsFlag := fs.String("fields", "", "packet field bindings, e.g. v=0,out=1")
	seed := fs.Int64("seed", 1, "search seed")
	maxIters := fs.Int("iters", 200000, "search budget")
	maxConst := fs.Int64("max-const", 8, "largest immediate the sketch may use")
	verifyBits := fs.Int("verify-bits", 2, "bit width of the bounded verification domain")
	validateBits := fs.Int("validate-bits", 10, "post-synthesis validation bit width (0 to skip)")
	out := fs.String("o", "", "write synthesized machine code here (default stdout)")
	fs.Parse(os.Args[1:]) //nolint:errcheck // ExitOnError

	spec, err := cfg.Spec()
	if err != nil {
		cli.Fatalf("chipmunk: %v", err)
	}
	if *dominoPath == "" {
		cli.Fatalf("chipmunk: -domino is required")
	}
	src, err := cli.ReadFile(*dominoPath)
	if err != nil {
		cli.Fatalf("chipmunk: %v", err)
	}
	prog, err := domino.Parse(src)
	if err != nil {
		cli.Fatalf("chipmunk: %v", err)
	}
	prog.Name = *dominoPath
	fields, err := cli.ParseFieldMap(*fieldsFlag)
	if err != nil {
		cli.Fatalf("chipmunk: %v", err)
	}
	target, err := domino.NewPHVSpec(prog, fields, spec.Bits)
	if err != nil {
		cli.Fatalf("chipmunk: %v", err)
	}
	containers, err := domino.WrittenContainers(prog, fields)
	if err != nil {
		cli.Fatalf("chipmunk: %v", err)
	}
	res, err := synth.Synthesize(spec, target, synth.Options{
		Seed:       *seed,
		MaxIters:   *maxIters,
		MaxConst:   *maxConst,
		VerifyBits: *verifyBits,
		Containers: containers,
	})
	if err != nil {
		cli.Fatalf("chipmunk: %v", err)
	}
	if !res.Found {
		cli.Fatalf("chipmunk: synthesis failed after %d iterations (%d CEGIS rounds, %d examples)",
			res.Iterations, res.CEGISRounds, res.Examples)
	}
	fmt.Fprintf(os.Stderr, "chipmunk: synthesized in %d iterations, %d CEGIS round(s)\n",
		res.Iterations, res.CEGISRounds)

	if *validateBits > 0 {
		rep, err := synth.Validate(spec, res.Code, target, *validateBits, *seed+1, 2000, containers)
		if err != nil {
			cli.Fatalf("chipmunk: %v", err)
		}
		if rep.Passed() {
			fmt.Fprintf(os.Stderr, "chipmunk: validated at %d-bit inputs\n", *validateBits)
		} else {
			fmt.Fprintf(os.Stderr, "chipmunk: WARNING: machine code only satisfies a limited range of values (%d-bit validation failed: %s)\n",
				*validateBits, rep)
		}
	}
	if *out == "" {
		fmt.Print(res.Code.String())
		return
	}
	f, err := os.Create(*out)
	if err != nil {
		cli.Fatalf("chipmunk: %v", err)
	}
	defer f.Close()
	if err := res.Code.Write(f); err != nil {
		cli.Fatalf("chipmunk: %v", err)
	}
	fmt.Fprintf(os.Stderr, "chipmunk: wrote %s (%d pairs)\n", *out, res.Code.Len())
}
