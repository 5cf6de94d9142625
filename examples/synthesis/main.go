// Synthesis demonstrates the Chipmunk-substitute compiler of the paper's
// §5.2 case study: a Domino packet transaction is compiled to Druzhba
// machine code by CEGIS over the pipeline's holes, validated by fuzzing,
// and the case study's low-bit-width failure mode is reproduced: a
// specification whose threshold no sketch immediate can express synthesizes
// "successfully" at 2-bit inputs but fails once container values exceed the
// synthesis range.
package main

import (
	"fmt"
	"log"

	"druzhba"
)

func main() {
	// 1. A running sum on a 1x1 pipeline with the raw atom.
	sumCfg := druzhba.Config{Depth: 1, Width: 1, StatefulAtom: "raw"}
	sumSpec, err := druzhba.ParseDominoSpec(`
state s = 0;

transaction {
    s = s + pkt.v;
    pkt.v = s;
}
`, map[string]int{"v": 0}, 0)
	if err != nil {
		log.Fatal(err)
	}
	res, err := druzhba.Synthesize(sumCfg, sumSpec, druzhba.SynthesizeOptions{Seed: 3, MaxIters: 150000})
	if err != nil {
		log.Fatal(err)
	}
	if !res.Found {
		log.Fatalf("running sum: synthesis failed after %d iterations", res.Iterations)
	}
	fmt.Printf("running sum: synthesized in %d iterations, %d CEGIS round(s)\n", res.Iterations, res.CEGISRounds)
	fmt.Println("machine code:")
	fmt.Print(res.Code.String())

	// Validate the result on wide inputs via fuzzing.
	pipe, err := druzhba.BuildPipeline(sumCfg, res.Code, druzhba.SCCInlining)
	if err != nil {
		log.Fatal(err)
	}
	rep, err := druzhba.FuzzPipeline(pipe, sumSpec, 11, 10000, 1<<16, []int{0})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("16-bit validation:", rep)

	// 2. The §5.2 failure mode: out = (v >= 100) cannot be expressed with
	// the sketch's small immediates, so 2-bit synthesis accepts machine
	// code that is wrong for large values.
	geCfg := druzhba.Config{Depth: 1, Width: 1}
	geSpec, err := druzhba.ParseDominoSpec(`
transaction {
    if (pkt.v >= 100) {
        pkt.v = 1;
    } else {
        pkt.v = 0;
    }
}
`, map[string]int{"v": 0}, 0)
	if err != nil {
		log.Fatal(err)
	}
	res, err = druzhba.Synthesize(geCfg, geSpec, druzhba.SynthesizeOptions{Seed: 4, VerifyBits: 2, MaxIters: 60000})
	if err != nil {
		log.Fatal(err)
	}
	if !res.Found {
		log.Fatalf("ge-100: synthesis unexpectedly failed")
	}
	fmt.Printf("\nge-100: synthesis at 2-bit inputs succeeded (%d iterations)\n", res.Iterations)
	pipe, err = druzhba.BuildPipeline(geCfg, res.Code, druzhba.SCCInlining)
	if err != nil {
		log.Fatal(err)
	}
	rep, err = druzhba.FuzzPipeline(pipe, geSpec, 12, 2000, 1<<10, []int{0})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("10-bit validation:", rep)
	if rep.Passed() {
		log.Fatal("expected the low-bit-width failure mode")
	}
	fmt.Println("\nthe synthesized machine code only satisfies a limited range of values (§5.2)")
}
