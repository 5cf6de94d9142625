package flat

import (
	"errors"
	"slices"
	"testing"

	"druzhba/internal/phv"
)

// sutAndSpec links a toy specification after a toy system under test over
// one input register: the system computes in0+1 into out; the specification
// sets its flag, traps with code 1 on in0 = 5, and computes in0+1 into want
// except on in0 = 3, where it computes in0+2. in1 is an input both pass
// through.
func sutAndSpec(t *testing.T) (linked *Program, out, want, flag, errReg, in int) {
	t.Helper()
	w := phv.MustWidth(8)
	a := NewBuilder(w)
	in = a.Regs("in", 2)
	out = a.Reg("out", 0)
	a.Op(Add, out, in, a.Const(1))
	sut, err := a.Build()
	if err != nil {
		t.Fatal(err)
	}
	b := NewBuilder(w)
	field := b.Reg("f", 0)
	wantB, flagB, errB := b.Reg("want", 0), b.Reg("flag", 0), b.Reg("err", 0)
	b.Op(Mov, flagB, b.Const(1), 0)
	b.Op(Trap, errB, b.Op(Ne, -1, field, b.Const(5)), 1)
	b.Op(Add, wantB, field, b.Const(1))
	skip := b.Branch(Jne, field, b.Const(3))
	b.Op(Add, wantB, wantB, b.Const(1))
	b.Land(skip)
	spec, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	linked, regs, err := Link(sut, spec, map[int]int{field: in})
	if err != nil {
		t.Fatal(err)
	}
	return linked, out, regs[wantB], regs[flagB], regs[errB], in
}

// TestOracle drives the packet loop through every way it stops — a
// divergence, a trap, a failed fill, the end — resuming after each, and
// holds the counting run to the same trapping packet.
func TestOracle(t *testing.T) {
	prog, out, want, flag, errReg, in := sutAndSpec(t)
	o := NewOracle(prog, in, 2, []Pair{{out, want}, {in + 1, in + 1}}, []int{flag, errReg}, errReg)
	if got := o.Pairs(); len(got) != 1 || got[0] != (Pair{out, want}) {
		t.Errorf("pairs %v: the pair of one register was kept", got)
	}
	if first, width := o.Inputs(); first != in || width != 2 || o.Trap() != errReg || o.Program() != prog {
		t.Errorf("inputs %d+%d, trap %d", first, width, o.Trap())
	}

	frame := prog.NewFrame()
	boom := errors.New("no more packets")
	fill := func(i int, in []int64) error {
		if i == 7 {
			return boom
		}
		in[0], in[1] = int64(i), 9
		return nil
	}
	type stop struct {
		at   int
		trap int64
		err  error
	}
	var stops []stop
	for i := 0; i < 10; i++ {
		at, trap, err := o.Fuzz(frame, nil, fill, o.Pairs(), i, 10)
		stops = append(stops, stop{at, trap, err})
		if frame[flag] != 0 || frame[errReg] != 0 {
			t.Fatalf("packet %d left flag %d, error register %d", at, frame[flag], frame[errReg])
		}
		i = at
	}
	if want := []stop{{3, 0, nil}, {5, 1, nil}, {7, 0, boom}, {10, 0, nil}}; !slices.Equal(stops, want) {
		t.Errorf("the loop stopped at %v, want %v", stops, want)
	}
	o.Fuzz(frame, nil, fill, nil, 3, 4) // packet 3 again, compared on no pairs
	if Diverge(frame, nil) || !Diverge(frame, o.Pairs()) {
		t.Error("packet 3 diverges on the oracle's pairs and on no pairs")
	}

	// Traffic below 8: the loop drawing from a generator resumes past each
	// 3 and stops at the first 5, where the counting run stops too.
	newGen := func() *phv.TrafficGen {
		gen, err := phv.NewTrafficGen(3, []int{8, 8}, 8, phv.TrafficUniform)
		if err != nil {
			t.Fatal(err)
		}
		return gen
	}
	frame, gen, trapAt := prog.NewFrame(), newGen(), -1
	for i := 0; i < 1000 && trapAt < 0; i++ {
		at, trap, _ := o.Fuzz(frame, gen, nil, o.Pairs(), i, 1000)
		if trap != 0 {
			trapAt = at
		}
		i = at
	}
	if trapAt < 0 {
		t.Fatal("no packet of the stream trapped")
	}
	dispatched, packets := o.Count(newGen(), 1000)
	if packets != trapAt+1 {
		t.Errorf("the counting run ran %d packets, the loop stopped at packet %d", packets, trapAt)
	}
	if upTo, _ := o.Count(newGen(), trapAt+1); upTo != dispatched {
		t.Errorf("%d instructions dispatched up to the trap, %d over the stream", upTo, dispatched)
	}

	// Without a trap register nothing is cleared.
	clean := NewOracle(prog, in, 2, nil, []int{flag}, -1)
	frame = prog.NewFrame()
	if at, trap, _ := clean.Fuzz(frame, nil, fill, nil, 5, 6); at != 6 || trap != 0 || frame[errReg] != 1 || frame[flag] != 1 {
		t.Errorf("packet 5 without a trap register: stopped at %d with %d, error register %d, flag %d", at, trap, frame[errReg], frame[flag])
	}
}
