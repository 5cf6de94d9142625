// Customalu shows Druzhba acting as "a family of simulators, one for each
// possible pipeline configuration" (§3.1): a new stateful ALU — an
// exponentially-weighted moving average unit that no stock atom provides —
// is defined in the ALU DSL at runtime, instantiated into a pipeline, and
// fuzz-tested against its Domino specification.
package main

import (
	"fmt"
	"log"

	"druzhba/internal/aludsl"
	"druzhba/internal/core"
	"druzhba/internal/domino"
	"druzhba/internal/machinecode"
	"druzhba/internal/phv"
	"druzhba/internal/sim"
)

// An EWMA ALU: state_0 <- (state_0 + sample)/2 when enabled, with the
// sample selected by a mux. (A real switch would use a shift, division by
// two is the same here.)
const ewmaALU = `
type: stateful
state variables: {state_0}
hole variables: {}
packet fields: {pkt_0, pkt_1}
if (rel_op(Opt(state_0), Mux3(pkt_0, pkt_1, C()))) {
    state_0 = (state_0 + Mux3(pkt_0, pkt_1, C())) / 2;
}
return state_0;
`

func main() {
	alu, err := aludsl.Parse(ewmaALU)
	if err != nil {
		log.Fatal(err)
	}
	alu.Name = "ewma"
	fmt.Printf("custom ALU %q: %d operands, %d state variable(s), %d machine code holes\n",
		alu.Name, alu.NumOperands(), alu.NumState(), len(alu.Holes))

	spec := core.Spec{
		Depth:        1,
		Width:        1,
		StatelessALU: mustAtom("stateless_full"),
		StatefulALU:  alu,
	}
	req, err := spec.RequiredPairs()
	if err != nil {
		log.Fatal(err)
	}
	code := machinecode.New()
	for _, h := range req {
		code.Set(h.Name, 0)
	}
	// Always-true predicate (0 >= 0), sample = pkt_0, output = EWMA.
	set := func(hole string, v int64) {
		code.Set(machinecode.ALUHoleName(0, true, 0, hole), v)
	}
	set("rel_op_0", 2) // >=
	set("opt_0", 1)    // 0
	set("mux3_0", 2)   // C()
	set("const_0", 0)
	set("mux3_1", 0) // sample = pkt_0
	code.Set(machinecode.OperandMuxName(0, true, 0, 0), 0)
	code.Set(machinecode.OutputMuxName(0, 0), 2)

	pipeline, err := core.Build(spec, code, core.SCCInlining)
	if err != nil {
		log.Fatal(err)
	}

	// The specification in Domino.
	prog, err := domino.Parse(`
state avg = 0;

transaction {
    avg = (avg + pkt.sample) / 2;
    pkt.sample = avg;
}
`)
	if err != nil {
		log.Fatal(err)
	}
	prog.Name = "ewma"
	target, err := domino.NewPHVSpec(prog, domino.FieldMap{"sample": 0}, phv.Default32)
	if err != nil {
		log.Fatal(err)
	}
	gen := sim.NewTrafficGen(9, pipeline.PHVLen(), pipeline.Bits(), 1<<20)
	report, err := sim.NewFuzzer(pipeline).FuzzGen(target, gen, 50000, sim.FuzzOptions{Containers: []int{0}}, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(report)

	// Show a short trace for intuition.
	pipeline.ResetState()
	gen = sim.NewTrafficGen(4, 1, phv.Default32, 1000)
	res, err := sim.Run(pipeline, gen.Trace(8))
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < res.Input.Len(); i++ {
		fmt.Printf("sample %-6d -> ewma %d\n", res.Input.At(i).Get(0), res.Output.At(i).Get(0))
	}
}

func mustAtom(name string) *aludsl.Program {
	p, err := aludsl.Parse(statelessFullSrc)
	if err != nil {
		log.Fatal(err)
	}
	p.Name = name
	return p
}

// statelessFullSrc mirrors atoms.StatelessFullSrc; examples avoid importing
// the atom library to show a fully self-supplied hardware description.
const statelessFullSrc = `
type: stateless
packet fields: {pkt_0, pkt_1}
return alu_op(Mux3(pkt_0, pkt_1, C()), Mux3(pkt_0, pkt_1, C()));
`
