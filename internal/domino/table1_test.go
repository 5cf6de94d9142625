package domino_test

import (
	"fmt"
	"slices"
	"testing"

	"druzhba/internal/domino"
	"druzhba/internal/phv"
	"druzhba/internal/sim"
	"druzhba/internal/spec"
)

// TestTable1SlotEvaluatorMatchesReference pins the slot evaluator to the
// reference map interpreter on the programs the campaigns actually run:
// every Table-1 program, at three datapath widths, on uniform and boundary
// traffic, must agree on every output container, every state variable after
// every packet, and the error text.
func TestTable1SlotEvaluatorMatchesReference(t *testing.T) {
	const packets = 2000
	for _, bm := range spec.All() {
		prog, err := bm.DominoProgram()
		if err != nil {
			t.Fatal(err)
		}
		phvLen := bm.Width
		for _, c := range bm.Fields.Containers() {
			phvLen = max(phvLen, c+1)
		}
		for _, bits := range []int{4, 8, 32} {
			w := phv.MustWidth(bits)
			maxInput := bm.MaxInput
			if maxInput > w.Mask() {
				maxInput = 0
			}
			for _, mode := range []sim.TrafficMode{sim.TrafficUniform, sim.TrafficBoundary} {
				for _, seed := range []int64{1, 2} {
					t.Run(fmt.Sprintf("%s/w%d/%s/seed%d", bm.Name, bits, mode, seed), func(t *testing.T) {
						fast, err := domino.NewPHVSpec(prog, bm.Fields, w)
						if err != nil {
							t.Fatal(err)
						}
						ref := domino.NewRefMachine(prog, w)
						gen, err := sim.NewTrafficGenMode(seed, phvLen, w, maxInput, mode)
						if err != nil {
							t.Fatal(err)
						}
						in := make([]phv.Value, phvLen)
						got := make([]phv.Value, phvLen)
						want := make([]phv.Value, phvLen)
						for i := 0; i < packets; i++ {
							gen.Fill(in)
							copy(got, in)
							copy(want, in)
							gotErr := fast.ProcessStream(got)
							wantErr := ref.ProcessStream(bm.Fields, want)
							if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
								t.Fatalf("packet %d: error %v, reference %v", i, gotErr, wantErr)
							}
							if !slices.Equal(got, want) {
								t.Fatalf("packet %d: input %v: output %v, reference %v", i, in, got, want)
							}
							for _, name := range prog.StateNames() {
								g, _ := fast.State(name)
								r, _ := ref.State(name)
								if g != r {
									t.Fatalf("packet %d: state %s = %d, reference %d", i, name, g, r)
								}
							}
						}
					})
				}
			}
		}
	}
}
