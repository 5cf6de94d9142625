// The multitenancy example demonstrates §7's last future-work direction:
// "adding hardware support for multitenancy". One physical 2x2 pipeline is
// space-partitioned between two tenants; each tenant programs its own
// virtual 2x1 pipeline as if it owned the hardware. The tenancy layer
// relocates both machine code programs onto the physical pipeline, merges
// them, audits the merge for cross-tenant reads and writes, and then each
// tenant's slice is fuzz-tested against that tenant's own specification on
// the shared simulator.
//
// Run with: go run ./examples/multitenancy
package main

import (
	"fmt"
	"log"

	"druzhba/internal/atoms"
	"druzhba/internal/core"
	"druzhba/internal/domino"
	"druzhba/internal/machinecode"
	"druzhba/internal/sim"
	"druzhba/internal/spec"
	"druzhba/internal/tenancy"
)

func main() {
	// The physical switch: 2 stages, 2 ALUs of each kind per stage, 2 PHV
	// containers.
	part := &tenancy.Partition{
		Physical: core.Spec{
			Depth: 2, Width: 2, PHVLen: 2,
			StatelessALU: atoms.MustLoad("stateless_full"),
			StatefulALU:  atoms.MustLoad("if_else_raw"),
		},
		Tenants: []tenancy.Tenant{
			{Name: "alice", SlotLo: 0, SlotHi: 1, Containers: []int{0}},
			{Name: "bob", SlotLo: 1, SlotHi: 2, Containers: []int{1}},
		},
	}
	if err := part.Validate(); err != nil {
		log.Fatal(err)
	}
	for _, t := range part.Tenants {
		vs, _ := part.VirtualSpec(t.Name)
		fmt.Printf("%-5s owns ALU slots [%d,%d) and containers %v -> virtual %dx%d pipeline\n",
			t.Name, t.SlotLo, t.SlotHi, t.Containers, vs.Depth, vs.Width)
	}

	// Both tenants deploy the Table 1 "sampling" program — compiled
	// against their own virtual pipelines, oblivious of each other.
	bm, err := spec.Lookup("sampling")
	if err != nil {
		log.Fatal(err)
	}
	virtualCode, err := bm.MachineCode()
	if err != nil {
		log.Fatal(err)
	}
	prog, err := bm.DominoProgram()
	if err != nil {
		log.Fatal(err)
	}

	merged, err := part.Merge(map[string]*machinecode.Program{
		"alice": virtualCode,
		"bob":   virtualCode.Clone(),
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nmerged machine code: %d pairs for the shared pipeline\n", merged.Len())

	// The isolation audit: no tenant reads or writes across the partition.
	if viol := part.CheckIsolation(merged); len(viol) != 0 {
		log.Fatalf("merge violates isolation: %v", viol[0])
	}
	fmt.Println("isolation audit:     clean")

	// One shared simulator runs both tenants' traffic; each tenant's
	// containers are checked against that tenant's own specification.
	pipe, err := core.Build(part.Physical, merged, core.SCCInlining)
	if err != nil {
		log.Fatal(err)
	}
	for _, tenant := range []string{"alice", "bob"} {
		pf, err := part.PhysicalFieldMap(tenant, bm.Fields)
		if err != nil {
			log.Fatal(err)
		}
		dspec, err := domino.NewPHVSpec(prog, pf, pipe.Bits())
		if err != nil {
			log.Fatal(err)
		}
		containers, err := domino.WrittenContainers(prog, pf)
		if err != nil {
			log.Fatal(err)
		}
		pipe.ResetState()
		gen := sim.NewTrafficGen(42, pipe.PHVLen(), pipe.Bits(), 0)
		rep, err := sim.NewFuzzer(pipe).FuzzGen(dspec, gen, 20000, sim.FuzzOptions{Containers: containers}, 1)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-5s slice:         %v\n", tenant, rep)
	}

	// Finally, what the audit is for: a malicious (or miscompiled) bob
	// pointing an operand mux at alice's container is caught before
	// deployment.
	evil := merged.Clone()
	evil.Set(machinecode.OperandMuxName(0, true, 1, 0), 0)
	viol := part.CheckIsolation(evil)
	fmt.Printf("\nplanted cross-read:  %d violation(s); first: %v\n", len(viol), viol[0])
}
