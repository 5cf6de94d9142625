package flat

import (
	"math/rand"
	"strings"
	"testing"

	"druzhba/internal/phv"
)

// TestOpsMatchWidthArithmetic runs every value opcode on random and edge
// operands at two widths and compares with phv.Width, the one definition of
// the datapath's arithmetic.
func TestOpsMatchWidthArithmetic(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, bits := range []int{4, 32} {
		w := phv.MustWidth(bits)
		want := map[Op]func(x, y int64) int64{
			Add: w.Add, Sub: w.Sub, Mul: w.Mul, Div: w.Div, Mod: w.Mod,
			Eq:   func(x, y int64) int64 { return phv.Bool(x == y) },
			Ne:   func(x, y int64) int64 { return phv.Bool(x != y) },
			Lt:   func(x, y int64) int64 { return phv.Bool(x < y) },
			Gt:   func(x, y int64) int64 { return phv.Bool(x > y) },
			Le:   func(x, y int64) int64 { return phv.Bool(x <= y) },
			Ge:   func(x, y int64) int64 { return phv.Bool(x >= y) },
			Neg:  func(x, _ int64) int64 { return w.Trunc(-x) },
			Not:  func(x, _ int64) int64 { return phv.Bool(x == 0) },
			Bool: func(x, _ int64) int64 { return phv.Bool(x != 0) },
			Mov:  func(x, _ int64) int64 { return x },
		}
		for op, f := range want {
			b := NewBuilder(w)
			x, y := b.Reg("x", 0), b.Reg("y", 0)
			dst := b.Op(op, -1, x, y)
			p, err := b.Build()
			if err != nil {
				t.Fatal(err)
			}
			frame := p.NewFrame()
			for trial := 0; trial < 200; trial++ {
				vx, vy := rng.Int63()&w.Mask(), rng.Int63()&w.Mask()
				if trial%5 == 0 {
					vy = []int64{0, 1, w.Mask(), vx}[trial/5%4]
				}
				frame[x], frame[y] = vx, vy
				p.Run(frame)
				if got := frame[dst]; got != f(vx, vy) {
					t.Fatalf("%d bits: %s %d, %d = %d, want %d", bits, ops[op].name, vx, vy, got, f(vx, vy))
				}
			}
		}
	}
}

type constCallee int64

func (c constCallee) Call(regs []int64) int64 { return int64(c) + regs[0] }
func (c constCallee) String() string          { return "plus" }

// TestControlFlow covers jumps, Call, Trap, Reset, renaming by Move and the
// disassembly of each form.
func TestControlFlow(t *testing.T) {
	b := NewBuilder(phv.Default32)
	in := b.Regs("in", 2)
	acc := b.Reg("acc", 7)
	errReg := b.Reg("err", 0)
	if b.Move(-1, in) != in || b.Move(in, in) != in {
		t.Fatal("Move to nowhere, or onto itself, is a rename and emits nothing")
	}
	skip := b.Jump(Jz, in) // in0 == 0: skip the call
	b.Op(Call, acc, b.Callee(constCallee(100)), 0)
	b.Land(skip)
	b.Op(Trap, errReg, in+1, 3) // in1 == 0: stop with code 3
	over := b.Jump(Jnz, in)
	b.Op(Add, acc, acc, b.Const(1))
	b.Land(over)
	done := b.Jump(Jmp, 0)
	b.Op(Mov, acc, b.Const(-1), 0) // never reached
	b.Land(done)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if b.Const(1) != b.Const(1) || p.Len() != 7 || p.RegName(acc) != "acc" {
		t.Fatalf("constants are not interned, or %d instructions, or a lost name", p.Len())
	}
	for _, tc := range []struct{ in0, in1, acc, err int64 }{
		{0, 1, 8, 0},   // call skipped, add executed
		{5, 1, 105, 0}, // call (100+in0), add skipped
		{5, 0, 105, 3}, // trapped after the call
		{0, 0, 7, 3},   // trapped at once
	} {
		frame := p.NewFrame()
		frame[in], frame[in+1] = tc.in0, tc.in1
		p.Run(frame)
		if frame[acc] != tc.acc || frame[errReg] != tc.err {
			t.Errorf("in %d,%d: acc %d err %d, want %d, %d", tc.in0, tc.in1, frame[acc], frame[errReg], tc.acc, tc.err)
		}
		p.Reset(frame)
		if frame[acc] != 7 || frame[errReg] != 0 || frame[in] != 0 {
			t.Errorf("Reset left acc %d err %d in0 %d", frame[acc], frame[errReg], frame[in])
		}
	}
	const listing = `; acc = 7
  0  jz   in0 -> 2
  1  call acc, plus
  2  trap err, in1, 3
  3  jnz  in0 -> 5
  4  add  acc, acc, #1
  5  jmp  -> 7
  6  mov  acc, #-1
`
	if got := p.String(); got != listing {
		t.Errorf("disassembly:\n%s\nwant:\n%s", got, listing)
	}
}

// TestBuildRefusesWhatRunWouldTrip: the checks that stand in for Run's
// missing error path, each tripped by one planted mistake.
func TestBuildRefusesWhatRunWouldTrip(t *testing.T) {
	b := NewBuilder(phv.Default32)
	x := b.Reg("x", 0)
	one := b.Const(1)
	j := b.Jump(Jz, x)
	b.Op(Add, x, x, one)
	b.Land(j)
	b.Op(Call, x, b.Callee(constCallee(0)), 0)
	good, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for want, edit := range map[string]func(c []Instr) []Instr{
		"register 9 out of range":             func(c []Instr) []Instr { c[1].C = 9; return c },
		"jump target 0 out of range":          func(c []Instr) []Instr { c[0].A = 0; return c },
		"jump target 4 out of range":          func(c []Instr) []Instr { c[0].A = 4; return c },
		"callee 1 out of range":               func(c []Instr) []Instr { c[2].B = 1; return c },
		"write to constant register 1 out of": func(c []Instr) []Instr { c[1].A = uint32(one); return c },
		"unknown opcode 99":                   func(c []Instr) []Instr { c[1].Op = 99; return c },
	} {
		if _, err := good.Mutate(edit); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("planted %q: err %v", want, err)
		}
	}
	same, err := good.Mutate(func(c []Instr) []Instr { return c })
	if err != nil || same.String() != good.String() {
		t.Errorf("identity mutation: %v", err)
	}
}

// TestLogicShortCircuits: the right operand's instructions run only when the
// left one does not decide, and the value is 0/1.
func TestLogicShortCircuits(t *testing.T) {
	for _, or := range []bool{false, true} {
		b := NewBuilder(phv.Default32)
		x, y, ran := b.Reg("x", 0), b.Reg("y", 0), b.Reg("ran", 0)
		dst := b.Logic(or, -1, x, func() int {
			b.Op(Mov, ran, b.Const(1), 0)
			return y
		})
		p, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		for _, vx := range []int64{0, 7} {
			for _, vy := range []int64{0, 9} {
				frame := p.NewFrame()
				frame[x], frame[y] = vx, vy
				p.Run(frame)
				want, decided := phv.Bool(vx != 0 && vy != 0), vx == 0
				if or {
					want, decided = phv.Bool(vx != 0 || vy != 0), vx != 0
				}
				if frame[dst] != want || (frame[ran] == 0) != decided {
					t.Errorf("or=%v x=%d y=%d: value %d, right operand ran %d", or, vx, vy, frame[dst], frame[ran])
				}
			}
		}
	}
}
