// Quickstart: build a 2-stage, 2-wide Druzhba pipeline whose machine code
// computes a running sum of container 0 and mirrors it into container 1,
// simulate a short random trace at every optimization level, and print the
// output traces.
package main

import (
	"fmt"
	"log"
	"strings"

	"druzhba"
)

func main() {
	cfg := druzhba.Config{Depth: 2, Width: 2, StatefulAtom: "raw"}

	// Every pipeline primitive needs a machine code pair; start from the
	// identity configuration (all zeros: output muxes pass through).
	req, err := druzhba.RequiredPairs(cfg)
	if err != nil {
		log.Fatal(err)
	}
	var b strings.Builder
	for _, h := range req {
		fmt.Fprintf(&b, "%s = 0\n", h.Name)
	}
	code, err := druzhba.ParseMachineCode(strings.NewReader(b.String()))
	if err != nil {
		log.Fatal(err)
	}
	// A machine code file names each pair once, so the configuration is a
	// second file merged over the identity.
	// Stage 0: stateful ALU 0 (raw atom) accumulates container 0 into its
	// state and writes the sum back to container 0.
	config, err := druzhba.ParseMachineCode(strings.NewReader(`
pipeline_stage_0_stateful_alu_0_operand_mux_0 = 0  # operand <- container 0
pipeline_stage_0_stateful_alu_0_mux2_0 = 0         # state += packet operand
pipeline_stage_0_output_mux_phv_0 = 3              # container 0 <- stateful ALU 0
# Stage 1: stateless ALU 0 copies container 0 into container 1.
pipeline_stage_1_stateless_alu_0_operand_mux_0 = 0
pipeline_stage_1_stateless_alu_0_alu_op_0 = 13     # pass first operand
pipeline_stage_1_stateless_alu_0_mux3_0 = 0
pipeline_stage_1_output_mux_phv_1 = 1              # container 1 <- stateless ALU 0
`))
	if err != nil {
		log.Fatal(err)
	}
	code.Merge(config)

	for _, level := range []druzhba.OptLevel{druzhba.Unoptimized, druzhba.SCCPropagation, druzhba.SCCInlining} {
		pipe, err := druzhba.BuildPipeline(cfg, code, level)
		if err != nil {
			log.Fatal(err)
		}
		res, err := druzhba.Simulate(pipe, 42, 6, 100)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("--- level %s: %d PHVs in %d ticks ---\n", level, res.Output.Len(), res.Ticks)
		for i := 0; i < res.Input.Len(); i++ {
			fmt.Printf("  in %-12s -> out %s\n", res.Input.At(i), res.Output.At(i))
		}
		fmt.Printf("  final state: %s\n", res.FinalState)
	}
}
