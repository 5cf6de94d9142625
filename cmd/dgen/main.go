// dgen is Druzhba's pipeline code generator (§3.1-3.2 of the paper): it
// takes the pipeline dimensions, ALU descriptions and a machine code
// program, and emits an executable pipeline description as Go source, at
// one of the three optimization levels of Fig. 6.
//
// Usage:
//
//	dgen -depth 2 -width 2 -stateful pred_raw -code prog.mc -level scc+inline -o pipeline.go
package main

import (
	"flag"
	"fmt"
	"os"

	"druzhba/internal/cli"
	"druzhba/internal/codegen"
	"druzhba/internal/core"
)

func main() {
	fs := flag.NewFlagSet("dgen", flag.ExitOnError)
	cfg := cli.AddConfigFlags(fs)
	codePath := fs.String("code", "", "machine code file (name = value per line; - for stdin)")
	level := fs.String("level", "scc+inline", "optimization level: unoptimized, scc, scc+inline, compiled (emits scc+inline source)")
	pkg := fs.String("pkg", "pipeline", "package name for the generated source")
	out := fs.String("o", "", "output file (default stdout)")
	listPairs := fs.Bool("list-pairs", false, "list the machine code pairs the pipeline requires and exit")
	fs.Parse(os.Args[1:]) //nolint:errcheck // ExitOnError

	spec, err := cfg.Spec()
	if err != nil {
		cli.Fatalf("dgen: %v", err)
	}
	if *listPairs {
		req, err := spec.RequiredPairs()
		if err != nil {
			cli.Fatalf("dgen: %v", err)
		}
		for _, h := range req {
			if h.Domain > 0 {
				fmt.Printf("%s  # in [0,%d)\n", h.Name, h.Domain)
			} else {
				fmt.Printf("%s  # immediate\n", h.Name)
			}
		}
		return
	}
	if *codePath == "" {
		cli.Fatalf("dgen: -code is required (or use -list-pairs)")
	}
	code, err := cli.LoadMachineCode(*codePath)
	if err != nil {
		cli.Fatalf("dgen: %v", err)
	}
	lvl, err := core.ParseLevel(*level)
	if err != nil {
		cli.Fatalf("dgen: %v", err)
	}
	src, err := codegen.Generate(spec, code, codegen.Options{Level: lvl, Package: *pkg})
	if err != nil {
		cli.Fatalf("dgen: %v", err)
	}
	if *out == "" {
		fmt.Print(src)
		return
	}
	if err := os.WriteFile(*out, []byte(src), 0o644); err != nil {
		cli.Fatalf("dgen: %v", err)
	}
	fmt.Fprintf(os.Stderr, "dgen: wrote %s (%d bytes, level %s)\n", *out, len(src), lvl)
}
