package sim_test

import (
	"reflect"
	"testing"

	"druzhba/internal/atoms"
	"druzhba/internal/core"
	"druzhba/internal/debug"
	"druzhba/internal/domino"
	"druzhba/internal/machinecode"
	"druzhba/internal/phv"
	"druzhba/internal/sim"
	"druzhba/internal/verify"
)

// TestFullGridOraclesSimulateDeadState pins what the output cone must not
// change: everything outside the fuzzer still simulates every stateful ALU.
// The grid is an identity pipeline (every output mux passes through) whose
// two raw atoms accumulate container 0 into state no container can observe,
// so every ALU is dead — and sim.Run/RunOpts, Stream, Batch, the debugger's
// snapshots and verify's state-divergence replay must still report the
// accumulated sums, while the fuzzer's fused cone is the empty program.
func TestFullGridOraclesSimulateDeadState(t *testing.T) {
	s := core.Spec{Depth: 2, Width: 1, StatelessALU: atoms.MustLoad("stateless_full"), StatefulALU: atoms.MustLoad("raw")}
	req, err := s.RequiredPairs()
	if err != nil {
		t.Fatal(err)
	}
	code := machinecode.New()
	for _, h := range req {
		code.Set(h.Name, 0) // raw: state_0 += pkt_0, operand mux on container 0
	}
	input := phv.NewTrace()
	for _, v := range []phv.Value{5, 10, 1} {
		input.Append(phv.FromValues([]phv.Value{v}))
	}
	// A PHV reaches stage 1 one tick after stage 0; the last tick drains.
	history := []phv.StateSnapshot{
		{{{5}}, {{0}}},
		{{{15}}, {{5}}},
		{{{16}}, {{15}}},
		{{{16}}, {{16}}},
	}
	final := history[len(history)-1]

	for _, level := range core.AllLevels() {
		p, err := core.Build(s, code, level)
		if err != nil {
			t.Fatal(err)
		}

		res, err := sim.RunOpts(p.Clone(), input, sim.RunOptions{RecordStates: true})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Output.Equal(input) {
			t.Fatalf("%v: identity pipeline changed the trace: %s", level, res.Output.Diff(input))
		}
		if !res.FinalState.Equal(final) || !reflect.DeepEqual(res.StateHistory, history) {
			t.Fatalf("%v: Run FinalState %v, StateHistory %v; want %v, %v", level, res.FinalState, res.StateHistory, final, history)
		}

		sess, err := debug.NewSession(p.Clone(), input)
		if err != nil {
			t.Fatal(err)
		}
		for stage, want := range [][]phv.Value{{5, 15, 16, 16}, {0, 5, 15, 16}} {
			if got, err := sess.Watch(stage, 0, 0); err != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("%v: debugger watch of stage %d = %v (err %v), want %v", level, stage, got, err, want)
			}
		}

		streamed := p.Clone()
		st := sim.NewStream(streamed)
		for fed := 0; fed < input.Len() || st.InFlight() > 0; fed++ {
			var in []phv.Value
			if fed < input.Len() {
				in = input.At(fed).Raw()
			}
			if _, err := st.Tick(in); err != nil {
				t.Fatal(err)
			}
		}
		if got := streamed.StateSnapshot(); !got.Equal(final) {
			t.Fatalf("%v: Stream left state %v, want %v", level, got, final)
		}

		if p.Prechecked() {
			batched := p.Clone()
			b, err := sim.NewBatch(batched, 4)
			if err != nil {
				t.Fatal(err)
			}
			for k := 0; k < input.Len(); k++ {
				b.Load(k, input.At(k).Raw())
			}
			if err := b.Run(input.Len()); err != nil {
				t.Fatal(err)
			}
			if got := batched.StateSnapshot(); !got.Equal(final) {
				t.Fatalf("%v: Batch left state %v, want %v", level, got, final)
			}
		}

		f := sim.NewFuzzer(p)
		identity := &sim.SpecFunc{SpecName: "identity", Fn: func(in *phv.PHV) (*phv.PHV, error) { return in.Clone(), nil }}
		k := 0
		rep, err := f.Fuzz(identity, input.Len(), func(dst []phv.Value) error {
			copy(dst, input.At(k).Raw())
			k++
			return nil
		}, sim.FuzzOptions{}, 0)
		if err != nil || !rep.Passed() || rep.Checked != 3 || rep.Ticks != 4 {
			t.Fatalf("%v: fuzz report %+v, err %v", level, rep, err)
		}
		if cone := p.Cone(); (cone != nil) != p.Prechecked() {
			t.Errorf("%v: fused cone %v on a pipeline with Prechecked() = %v", level, cone, p.Prechecked())
		} else if cone != nil {
			// Every container passes through both stages: renaming, no code.
			if live, _ := cone.ALUCounts(); live != 0 || cone.Len() != 0 {
				t.Errorf("%v: the cone of an all-dead grid runs %d ALUs in %d instructions:\n%s", level, live, cone.Len(), cone)
			}
		}
		if got := p.StateSnapshot(); !got.Equal(phv.StateSnapshot{{{0}}, {{0}}}) {
			t.Fatalf("%v: fuzzing mutated its argument: %v", level, got)
		}
	}

	// verify's replay reads the bound state slot back from a full-grid
	// pipeline: the counterexample's sums, not an unexecuted zero.
	prog, err := domino.Parse(`
state c = 0;
transaction {
    c = c + pkt.f + 1;
    pkt.f = pkt.f;
}
`)
	if err != nil {
		t.Fatal(err)
	}
	vres, err := verify.Equivalence(s, code, prog, domino.FieldMap{"f": 0}, verify.Options{
		Bits: 4, Steps: 2,
		StateBindings: map[string]verify.StateLoc{"c": {Stage: 0, Slot: 0, Index: 0}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if vres.Equivalent || !vres.StateDiverged {
		t.Fatalf("verify: want a state divergence, got %v", vres)
	}
	var sum phv.Value
	for i := 0; i < vres.Counterexample.Len(); i++ {
		sum += vres.Counterexample.At(i).Get(0)
	}
	if got, want := vres.PipelineState["c"], sum&15; got != want {
		t.Fatalf("verify replay read pipeline state %d, want the accumulated %d", got, want)
	}
	if got, want := vres.SpecState["c"], (sum+2)&15; got != want {
		t.Fatalf("verify replay read spec state %d, want %d", got, want)
	}
}
