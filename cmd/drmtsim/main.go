// drmtsim simulates the dRMT (disaggregated RMT) architecture of §4 of the
// paper: it parses a mini-P4 program, builds the table dependency DAG,
// schedules matches and actions onto match+action processors, populates the
// centralized tables from an entries file, and runs randomly generated
// packets through the machine.
//
// Usage:
//
//	drmtsim -p4 router.p4 -entries router.entries -packets 1000 -processors 4
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
	fs := flag.NewFlagSet("drmtsim", flag.ExitOnError)
	p4Path := fs.String("p4", "", "mini-P4 program")
	entriesPath := fs.String("entries", "", "table entries file (empty = defaults only)")
	packets := fs.Int("packets", 100, "packets to generate")
	seed := fs.Int64("seed", 1, "traffic generator seed")
	maxVal := fs.Int64("max", 0, "bound on generated field values (0 = field width)")
	processors := fs.Int("processors", 4, "match+action processors")
	deltaM := fs.Int("delta-match", 18, "cycles per match (Δ_M)")
	deltaA := fs.Int("delta-action", 2, "cycles per action (Δ_A)")
	matchCap := fs.Int("match-capacity", 8, "match issues per processor per cycle")
	actionCap := fs.Int("action-capacity", 32, "action issues per processor per cycle")
	optimal := fs.Bool("optimal", false, "use the branch-and-bound scheduler (small DAGs)")
	showDAG := fs.Bool("dag", false, "print the table dependency DAG")
	showSchedule := fs.Bool("schedule", true, "print the computed schedule")
	cycles := fs.Bool("cycles", false, "print cycle-accurate replay statistics")
	fs.Parse(os.Args[1:]) //nolint:errcheck // ExitOnError

	if *p4Path == "" {
		cli.Fatalf("drmtsim: -p4 is required")
	}
	src, err := cli.ReadFile(*p4Path)
	if err != nil {
		cli.Fatalf("drmtsim: %v", err)
	}
	prog, err := p4.Parse(src)
	if err != nil {
		cli.Fatalf("drmtsim: %v", err)
	}
	g, err := p4.BuildDAG(prog)
	if err != nil {
		cli.Fatalf("drmtsim: %v", err)
	}
	if *showDAG {
		fmt.Print(g.String())
	}
	hw := drmt.HWConfig{
		Processors:     *processors,
		DeltaMatch:     *deltaM,
		DeltaAction:    *deltaA,
		MatchCapacity:  *matchCap,
		ActionCapacity: *actionCap,
	}
	costs := drmt.DefaultCosts(g)
	var sched *drmt.Schedule
	if *optimal {
		sched, err = drmt.OptimalSchedule(g, costs, hw)
	} else {
		sched, err = drmt.ListSchedule(g, costs, hw)
	}
	if err != nil {
		cli.Fatalf("drmtsim: scheduling failed: %v", err)
	}
	if *showSchedule {
		fmt.Print(drmt.FormatSchedule(sched))
	}

	entries := drmt.NewEntrySet()
	if *entriesPath != "" {
		text, err := cli.ReadFile(*entriesPath)
		if err != nil {
			cli.Fatalf("drmtsim: %v", err)
		}
		entries, err = drmt.ParseEntries(strings.NewReader(text), prog)
		if err != nil {
			cli.Fatalf("drmtsim: %v", err)
		}
	}
	m, err := drmt.NewMachine(prog, entries, hw, sched)
	if err != nil {
		cli.Fatalf("drmtsim: %v", err)
	}
	stats, err := m.RunStream(*seed, *packets, *maxVal)
	if err != nil {
		cli.Fatalf("drmtsim: %v", err)
	}
	fmt.Print(drmt.FormatStats(stats))
	for _, r := range prog.Registers {
		cells, _ := m.Register(r.Name)
		fmt.Printf("register %s: %v\n", r.Name, cells)
	}
	if *cycles {
		cs, err := m.CycleAccurate(*packets)
		if err != nil {
			cli.Fatalf("drmtsim: %v", err)
		}
		fmt.Print(drmt.FormatCycleStats(cs))
	}
}
