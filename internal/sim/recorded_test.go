package sim_test

import (
	"math/rand"
	"reflect"
	"testing"

	"druzhba/internal/core"
	"druzhba/internal/sim"
	"druzhba/internal/spec"
)

// TestRecordedRunsMatchUnoptimized pins the tick loop at every prechecked
// level, where each stage is one flat program, to the AST interpreter at
// Unoptimized on the 12 Table-1 fixtures. With every stateful ALU seeded
// nonzero through SetState, a recording run (RecordStates and RecordSlots)
// must deep-equal the Unoptimized one: output trace, final state, the state
// after every tick and the slots after every tick.
func TestRecordedRunsMatchUnoptimized(t *testing.T) {
	n := 400
	if testing.Short() {
		n = 80
	}
	opts := sim.RunOptions{RecordStates: true, RecordSlots: true}
	for _, bm := range spec.All() {
		ref, err := bm.Pipeline(core.Unoptimized)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(len(bm.Name))))
		initial := ref.StateSnapshot()
		for _, stage := range initial {
			for _, vals := range stage {
				for i := range vals {
					vals[i] = 1 + rng.Int63n(ref.Bits().Mask())
				}
			}
		}
		seeded := func(p *core.Pipeline) *core.Pipeline {
			for si, stage := range initial {
				for slot, vals := range stage {
					if err := p.SetState(si, slot, vals); err != nil {
						t.Fatal(err)
					}
				}
			}
			return p
		}
		trace := sim.NewTrafficGen(7, ref.PHVLen(), ref.Bits(), bm.MaxInput).Trace(n)
		want, err := sim.RunOpts(seeded(ref), trace, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, level := range []core.OptLevel{core.SCCPropagation, core.SCCInlining, core.Compiled} {
			p, err := bm.Pipeline(level)
			if err != nil {
				t.Fatal(err)
			}
			got, err := sim.RunOpts(seeded(p), trace, opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, field := range []struct {
				name      string
				got, want any
			}{
				{"Output", got.Output, want.Output},
				{"Ticks", got.Ticks, want.Ticks},
				{"FinalState", got.FinalState, want.FinalState},
				{"StateHistory", got.StateHistory, want.StateHistory},
				{"SlotHistory", got.SlotHistory, want.SlotHistory},
			} {
				if !reflect.DeepEqual(field.got, field.want) {
					t.Errorf("%s %v: %s differs from the unoptimized run", bm.Name, level, field.name)
				}
			}
		}
	}
}
