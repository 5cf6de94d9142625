// drmtasm lowers a mini-P4 program to the dRMT processor instruction set
// (§7 of the paper: "modeling dRMT to the same low level granularity as
// our RMT model by designing a new instruction set with similar properties
// to our RMT instruction set"), prints the disassembly and the blocks the
// ISA machine lowers it to on the table entries, and optionally executes
// the program on random traffic — differentially against the
// table-level dRMT machine, reporting the first divergence if any.
//
// Usage:
//
//	drmtasm -p4 router.p4                             # assemble + disassemble
//	drmtasm -p4 router.p4 -entries router.entries \
//	        -packets 1000 -diff                       # also run + cross-check
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"druzhba/internal/cli"
	"druzhba/internal/drmt"
	"druzhba/internal/p4"
)

func main() {
	fs := flag.NewFlagSet("drmtasm", flag.ExitOnError)
	p4Path := fs.String("p4", "", "mini-P4 program")
	entriesPath := fs.String("entries", "", "table entries file (empty = defaults only)")
	packets := fs.Int("packets", 0, "packets to execute (0 = assemble only)")
	seed := fs.Int64("seed", 1, "traffic generator seed")
	maxVal := fs.Int64("max", 0, "bound on generated field values (0 = field width)")
	processors := fs.Int("processors", 4, "match+action processors")
	diff := fs.Bool("diff", true, "cross-check against the table-level machine")
	quiet := fs.Bool("quiet", false, "suppress the disassembly and lowering listings")
	fs.Parse(os.Args[1:]) //nolint:errcheck // ExitOnError

	if *p4Path == "" {
		cli.Fatalf("drmtasm: -p4 is required")
	}
	src, err := cli.ReadFile(*p4Path)
	if err != nil {
		cli.Fatalf("drmtasm: %v", err)
	}
	prog, err := p4.Parse(src)
	if err != nil {
		cli.Fatalf("drmtasm: %v", err)
	}
	isa, err := drmt.Assemble(prog)
	if err != nil {
		cli.Fatalf("drmtasm: %v", err)
	}
	fmt.Printf("assembled %d instructions, %d registers (%d action-data params), %d tables\n",
		len(isa.Instrs), isa.NumRegs, isa.NumParams, len(isa.Tables))
	if !*quiet {
		// Before the entries are read: the listing is what explains an
		// entries or build error.
		fmt.Print(isa.Disassemble())
	}

	entriesText := ""
	if *entriesPath != "" {
		entriesText, err = cli.ReadFile(*entriesPath)
		if err != nil {
			cli.Fatalf("drmtasm: %v", err)
		}
	}
	entries, err := drmt.ParseEntries(strings.NewReader(entriesText), prog)
	if err != nil {
		cli.Fatalf("drmtasm: %v", err)
	}
	hw := drmt.HWConfig{Processors: *processors}
	isaM, err := drmt.NewISAMachine(prog, isa, entries, hw)
	if err != nil {
		cli.Fatalf("drmtasm: %v", err)
	}
	if !*quiet {
		fmt.Print("\n", isaM.Lowered())
	}
	if *packets <= 0 {
		return
	}

	stats, err := isaM.RunStream(*seed, *packets, *maxVal)
	if err != nil {
		cli.Fatalf("drmtasm: %v", err)
	}
	fmt.Printf("\nISA execution: %d packets, %d instructions (%.1f per packet), %d matches, %d dropped\n",
		stats.Packets, stats.Instructions,
		float64(stats.Instructions)/float64(stats.Packets), stats.MatchOps, stats.Dropped)

	if !*diff {
		return
	}
	// The cross-check is the one differential loop (the campaign's), over
	// the same seeded traffic the execution above saw.
	f, err := drmt.NewDiffFuzzer(prog, isa, entries, hw)
	if err != nil {
		cli.Fatalf("drmtasm: %v", err)
	}
	rep, err := f.FuzzSeeded(*seed, *packets, *maxVal)
	if err != nil {
		cli.Fatalf("drmtasm: %v", err)
	}
	if rep.Err != nil {
		cli.Fatalf("drmtasm: %v", rep.Err)
	}
	if len(rep.Diffs) > 0 {
		cli.Fatalf("drmtasm: DIVERGENCE at %v (%d of %d packets diverge)", &rep.Diffs[0], len(rep.Diffs), rep.Checked)
	}
	fmt.Printf("differential check: ISA and table-level execution agree on all %d packets\n", rep.Checked)
}
