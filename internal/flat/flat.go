// Package flat is the straight-line evaluator under the RMT fuzz loop: an
// immutable, loop-free program of three-address instructions over one
// []int64 frame in which constants, state slots, inputs and temporaries are
// all just registers. Package core fuses a prechecked pipeline's live ALUs
// into one such program (muxes become register renaming) and package domino
// lowers a bound transaction to another; Link appends the second to the first,
// the transaction reading the pipeline's input registers in place, so both
// sides of the Fig. 5 comparison are one program on one frame.
//
// A Builder hands out registers and appends instructions; Build and Link
// check every register index, jump target and callee index once, so Run has
// no error path, cannot loop and allocates nothing. Jumps only go forward. A
// Trap instruction is how a lowered program that can fail (a Domino local
// read before assignment) stops early: it stores a code in a register the
// caller inspects after Run.
package flat

import (
	"fmt"
	"slices"
	"strings"

	"druzhba/internal/phv"
)

// Op is an instruction opcode. Add through Ge are numbered like
// aludsl.BinOp and domino.BinKind, so a lowering converts those operators by
// value.
type Op uint8

const (
	Add Op = iota // r[A] = r[B] + r[C], wrapped to the width
	Sub           // r[A] = r[B] - r[C]
	Mul           // r[A] = r[B] * r[C]
	Div           // r[A] = r[B] / r[C], 0 when r[C] is 0
	Mod           // r[A] = r[B] % r[C], 0 when r[C] is 0
	Eq            // r[A] = r[B] == r[C], as 0/1 (likewise Ne … Ge)
	Ne
	Lt
	Gt
	Le
	Ge
	Neg  // r[A] = -r[B], wrapped
	Not  // r[A] = r[B] == 0
	Bool // r[A] = r[B] != 0
	Mov  // r[A] = r[B]
	Jz   // if r[B] == 0 continue at instruction A
	Jnz  // if r[B] != 0 continue at instruction A
	Jmp  // continue at instruction A
	Call // r[A] = callee B run on the frame
	Trap // if r[B] == 0 { r[A] = C; stop }
)

// ops names every opcode and says what its fields are, in the order the
// disassembly prints them: a field letter then w (register written), r
// (register read), j (jump target), c (callee index) or i (immediate).
var ops = [...]struct{ name, fields string }{
	Add: {"add", "AwBrCr"}, Sub: {"sub", "AwBrCr"}, Mul: {"mul", "AwBrCr"}, Div: {"div", "AwBrCr"}, Mod: {"mod", "AwBrCr"},
	Eq: {"eq", "AwBrCr"}, Ne: {"ne", "AwBrCr"}, Lt: {"lt", "AwBrCr"}, Gt: {"gt", "AwBrCr"}, Le: {"le", "AwBrCr"}, Ge: {"ge", "AwBrCr"},
	Neg: {"neg", "AwBr"}, Not: {"not", "AwBr"}, Bool: {"bool", "AwBr"}, Mov: {"mov", "AwBr"},
	Jz: {"jz", "BrAj"}, Jnz: {"jnz", "BrAj"}, Jmp: {"jmp", "Aj"}, Call: {"call", "AwBc"}, Trap: {"trap", "AwBrCi"},
}

// field returns the field of in that letter names.
func (in Instr) field(letter byte) uint32 {
	return [...]uint32{in.A, in.B, in.C}[letter-'A']
}

// setField returns in with the field that letter names set to v.
func (in Instr) setField(letter byte, v uint32) Instr {
	*[...]*uint32{&in.A, &in.B, &in.C}[letter-'A'] = v
	return in
}

// Instr is one instruction; which of A, B, C are registers, an instruction
// index, a callee index or an immediate is the opcode's business (see Op).
type Instr struct {
	Op      Op
	A, B, C uint32
}

// Callee is an interpreted routine a Call instruction runs on the frame,
// the ALU bodies of the levels that measure an interpreter. It may write
// registers and must keep nothing between calls: a program is shared by
// every frame it runs on.
type Callee interface {
	Call(regs []int64) int64
}

// Program is a checked instruction sequence with the initial image of its
// frame. It is immutable and safe for concurrent use; every runner owns a
// frame (NewFrame).
type Program struct {
	w       phv.Width
	code    []Instr
	init    []int64  // initial frame: constants, state initial values, zeros
	names   []string // register names, for String; "" for temporaries and constants
	fixed   []bool   // constant registers, which no instruction may write
	callees []Callee
	parts   [2]*Program // a linked program's a and b, whose names its registers keep (names is nil)
}

// Len returns the number of instructions.
func (p *Program) Len() int { return len(p.code) }

// name returns the name the builder gave register r, "" for none.
func (p *Program) name(r int) string {
	if a := p.parts[0]; a != nil {
		if r < len(a.init) {
			return a.name(r)
		}
		return p.parts[1].name(r - len(a.init))
	}
	return p.names[r]
}

// RegName returns the name the builder gave register r; a constant is named
// after its value and a temporary after its index.
func (p *Program) RegName(r int) string {
	switch {
	case p.name(r) != "":
		return p.name(r)
	case p.fixed[r]:
		return fmt.Sprintf("#%d", p.init[r])
	}
	return fmt.Sprintf("t%d", r)
}

// NewFrame returns a frame in its initial condition.
func (p *Program) NewFrame() []int64 { return append([]int64(nil), p.init...) }

// Reset returns a frame to its initial condition.
func (p *Program) Reset(frame []int64) { copy(frame, p.init) }

// Run executes the program once on a frame from NewFrame.
//
//dvet:hotpath allocs=0
func (p *Program) Run(r []int64) {
	r = r[:len(p.init)]
	code, w := p.code, p.w
	for pc := 0; pc < len(code); pc++ {
		in := code[pc]
		switch in.Op {
		case Add:
			r[in.A] = w.Add(r[in.B], r[in.C])
		case Sub:
			r[in.A] = w.Sub(r[in.B], r[in.C])
		case Mul:
			r[in.A] = w.Mul(r[in.B], r[in.C])
		case Div:
			r[in.A] = w.Div(r[in.B], r[in.C])
		case Mod:
			r[in.A] = w.Mod(r[in.B], r[in.C])
		case Eq:
			r[in.A] = phv.Bool(r[in.B] == r[in.C])
		case Ne:
			r[in.A] = phv.Bool(r[in.B] != r[in.C])
		case Lt:
			r[in.A] = phv.Bool(r[in.B] < r[in.C])
		case Gt:
			r[in.A] = phv.Bool(r[in.B] > r[in.C])
		case Le:
			r[in.A] = phv.Bool(r[in.B] <= r[in.C])
		case Ge:
			r[in.A] = phv.Bool(r[in.B] >= r[in.C])
		case Neg:
			r[in.A] = w.Trunc(-r[in.B])
		case Not:
			r[in.A] = phv.Bool(r[in.B] == 0)
		case Bool:
			r[in.A] = phv.Bool(r[in.B] != 0)
		case Mov:
			r[in.A] = r[in.B]
		case Jz:
			if r[in.B] == 0 {
				pc = int(in.A) - 1
			}
		case Jnz:
			if r[in.B] != 0 {
				pc = int(in.A) - 1
			}
		case Jmp:
			pc = int(in.A) - 1
		case Call:
			r[in.A] = p.callees[in.B].Call(r)
		case Trap:
			if r[in.B] == 0 {
				r[in.A] = int64(in.C)
				return
			}
		}
	}
}

// Mutate returns the program with its instructions rewritten by edit, checked
// like any other; the differential tests plant structural mistakes with it.
func (p *Program) Mutate(edit func(code []Instr) []Instr) (*Program, error) {
	q := *p
	q.code = edit(append([]Instr(nil), p.code...))
	return &q, q.check()
}

// Link returns one program that runs a and then b on one frame. a keeps its
// registers, instructions and callees; b's registers follow a's, so b never
// writes one of a's. bind maps registers of b to registers of a holding their
// values: one b only reads is renamed to a's register, and one b writes gets
// its own, set from a's by a mov at b's start unless b cannot see the value
// (setsFirst). When b has callees, which may read and write any register of b,
// every bound one gets the mov. regs[r] is where b's register r lives in the
// linked frame. A Trap in a stops the program before b. a and b must be
// programs Build, Mutate or Link returned without error.
func Link(a, b *Program, bind map[int]int) (linked *Program, regs []int, err error) {
	if a.w != b.w {
		return nil, nil, fmt.Errorf("flat: link of a %d-bit program after a %d-bit one", b.w.Bits(), a.w.Bits())
	}
	base := len(a.init)
	writes := make([]bool, len(b.init))
	for _, in := range b.code {
		for f := ops[in.Op].fields; f != ""; f = f[2:] {
			if f[1] == 'w' {
				writes[in.field(f[0])] = true
			}
		}
	}
	p := &Program{
		w:       a.w,
		code:    append(make([]Instr, 0, len(a.code)+len(bind)+len(b.code)), a.code...),
		init:    slices.Concat(a.init, b.init),
		fixed:   slices.Concat(a.fixed, b.fixed),
		callees: append(make([]Callee, 0, len(a.callees)+len(b.callees)), a.callees...),
		parts:   [2]*Program{a, b},
	}
	regs = make([]int, len(b.init))
	bound := 0
	for r := range regs {
		regs[r] = base + r
		src, ok := bind[r]
		if !ok {
			continue
		}
		bound++
		switch {
		case b.fixed[r] || src < 0 || src >= base:
			return nil, nil, fmt.Errorf("flat: link: cannot bind %s to register %d", b.RegName(r), src)
		case len(b.callees) > 0 || writes[r] && !b.setsFirst(r):
			p.code = append(p.code, Instr{Op: Mov, A: uint32(base + r), B: uint32(src)})
		case !writes[r]:
			regs[r] = src
		}
	}
	if bound != len(bind) {
		return nil, nil, fmt.Errorf("flat: link: %d bound registers are not registers of the second program", len(bind)-bound)
	}
	for _, c := range b.callees {
		p.callees = append(p.callees, shifted{c, base})
	}
	start := uint32(len(p.code))
	for _, in := range b.code {
		for f := ops[in.Op].fields; f != ""; f = f[2:] {
			switch v := in.field(f[0]); f[1] {
			case 'w', 'r':
				in = in.setField(f[0], uint32(regs[v]))
			case 'j':
				in = in.setField(f[0], v+start)
			case 'c':
				in = in.setField(f[0], v+uint32(len(a.callees)))
			}
		}
		p.code = append(p.code, in)
	}
	return p, regs, p.check()
}

// setsFirst reports whether every path through p writes register r before
// reading it and before it can leave p, at its end or at a Trap, so the value
// r held before p ran is never seen. p must have no callees. Jumps only go
// forward, so one pass in program order meets every path into an instruction
// before the instruction.
func (p *Program) setsFirst(r int) bool {
	set := make([]bool, len(p.code)+1) // set[pc]: r is written on every path into pc, true where none arrives
	for pc := range set {
		set[pc] = pc > 0
	}
	for pc, in := range p.code {
		var reads, writes bool
		for f := ops[in.Op].fields; f != ""; f = f[2:] {
			if int(in.field(f[0])) == r {
				reads, writes = reads || f[1] == 'r', writes || f[1] == 'w'
			}
		}
		written := set[pc]
		if !written && (reads || in.Op == Trap) {
			return false
		}
		written = written || writes && in.Op != Trap // a Trap writes only as it leaves
		if in.Op != Jmp {
			set[pc+1] = set[pc+1] && written
		}
		if in.Op == Jz || in.Op == Jnz || in.Op == Jmp {
			set[in.A] = set[in.A] && written
		}
	}
	return set[len(p.code)]
}

// shifted is a callee of a linked program's second part, run on that part's
// registers.
type shifted struct {
	Callee
	base int
}

func (c shifted) Call(r []int64) int64 { return c.Callee.Call(r[c.base:]) }
func (c shifted) String() string       { return fmt.Sprint(c.Callee) }

// check is the one validation behind Run's missing error path.
func (p *Program) check() error {
	for pc, in := range p.code {
		if int(in.Op) >= len(ops) {
			return fmt.Errorf("flat: instruction %d: unknown opcode %d", pc, in.Op)
		}
		for f := ops[in.Op].fields; f != ""; f = f[2:] {
			v, what := int(in.field(f[0])), ""
			switch f[1] {
			case 'w', 'r':
				if v >= len(p.init) {
					what = "register"
				} else if f[1] == 'w' && p.fixed[v] {
					what = "write to constant register"
				}
			case 'j':
				if v <= pc || v > len(p.code) {
					what = "jump target"
				}
			case 'c':
				if v >= len(p.callees) {
					what = "callee"
				}
			}
			if what != "" {
				return fmt.Errorf("flat: instruction %d (%s): %s %d out of range", pc, ops[in.Op].name, what, v)
			}
		}
	}
	return nil
}

// String disassembles the program, one instruction per line with jump
// targets as line numbers, after a line for each register that starts
// nonzero.
func (p *Program) String() string {
	var b strings.Builder
	for r, v := range p.init {
		if v != 0 && !p.fixed[r] {
			fmt.Fprintf(&b, "; %s = %d\n", p.RegName(r), v)
		}
	}
	for pc, in := range p.code {
		fmt.Fprintf(&b, "%3d  %-4s", pc, ops[in.Op].name)
		sep := " "
		for f := ops[in.Op].fields; f != ""; f, sep = f[2:], ", " {
			switch v := in.field(f[0]); f[1] {
			case 'w', 'r':
				fmt.Fprintf(&b, "%s%s", sep, p.RegName(int(v)))
			case 'j':
				fmt.Fprintf(&b, " -> %d", v)
			case 'c':
				fmt.Fprintf(&b, "%s%v", sep, p.callees[v])
			default:
				fmt.Fprintf(&b, "%s%d", sep, v)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Builder assembles a program. Registers are numbered in allocation order,
// so a block from Regs is contiguous in the frame.
type Builder struct {
	p      Program
	consts map[int64]int
}

// NewBuilder starts a program over the given datapath width.
func NewBuilder(w phv.Width) *Builder {
	return &Builder{p: Program{w: w}, consts: map[int64]int{}}
}

// Regs allocates n consecutive registers that start at zero, named name0,
// name1, …, and returns the first.
func (b *Builder) Regs(name string, n int) int {
	first := len(b.p.init)
	for i := 0; i < n; i++ {
		b.reg(fmt.Sprintf("%s%d", name, i), 0, false)
	}
	return first
}

// Reg allocates one named register with an initial value.
func (b *Builder) Reg(name string, init int64) int { return b.reg(name, init, false) }

// Const returns the register holding the constant v.
func (b *Builder) Const(v int64) int {
	r, ok := b.consts[v]
	if !ok {
		r = b.reg("", v, true)
		b.consts[v] = r
	}
	return r
}

func (b *Builder) reg(name string, init int64, fixed bool) int {
	b.p.init = append(b.p.init, init)
	b.p.names = append(b.p.names, name)
	b.p.fixed = append(b.p.fixed, fixed)
	return len(b.p.init) - 1
}

// Callee registers a routine for Call instructions and returns its index.
func (b *Builder) Callee(c Callee) int {
	b.p.callees = append(b.p.callees, c)
	return len(b.p.callees) - 1
}

// Op appends "dst = op x, y" and returns dst; a negative dst means a fresh
// temporary. Unary opcodes ignore y.
func (b *Builder) Op(op Op, dst, x, y int) int {
	if dst < 0 {
		dst = b.reg("", 0, false)
	}
	b.p.code = append(b.p.code, Instr{Op: op, A: uint32(dst), B: uint32(x), C: uint32(y)})
	return dst
}

// Move makes dst hold src's value and returns the register that does: src
// itself, with nothing emitted, when dst is negative — a rename.
func (b *Builder) Move(dst, src int) int {
	if dst < 0 || dst == src {
		return src
	}
	return b.Op(Mov, dst, src, 0)
}

// Logic emits the short-circuit x && y (or, with or set, x || y) as a 0/1
// value: t = bool(x), then — skipped when x decides — whatever y appends and
// t = bool(the register y returns). The result lands in dst as by Move.
func (b *Builder) Logic(or bool, dst, x int, y func() int) int {
	skip := Jz
	if or {
		skip = Jnz
	}
	t := b.Op(Bool, -1, x, 0)
	decided := b.Jump(skip, t)
	b.Op(Bool, t, y(), 0)
	b.Land(decided)
	return b.Move(dst, t)
}

// Jump appends a jump (Jz and Jnz test cond) whose target a later Land sets,
// and returns its index.
func (b *Builder) Jump(op Op, cond int) int {
	b.p.code = append(b.p.code, Instr{Op: op, B: uint32(cond)})
	return len(b.p.code) - 1
}

// Land points the given jumps at the next instruction to be appended.
func (b *Builder) Land(jumps ...int) {
	for _, j := range jumps {
		b.p.code[j].A = uint32(len(b.p.code))
	}
}

// Build checks and returns the program; the builder must not be used again.
func (b *Builder) Build() (*Program, error) {
	p := &b.p
	return p, p.check()
}
