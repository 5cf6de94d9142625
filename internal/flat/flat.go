// Package flat is the straight-line evaluator under both fuzz loops: an
// immutable, loop-free program of three-address instructions over one
// []int64 frame in which constants, state slots, register banks, inputs and
// temporaries are all just registers. Package core fuses a prechecked RMT
// pipeline's live ALUs into one such program (muxes become register
// renaming) and package domino lowers a bound transaction to another; package
// drmt lowers the dRMT ISA program and the table-level machine to two more.
// Link appends one program to another, the second reading the first's input
// registers in place, so both sides of the Fig. 5 comparison are one program
// on one frame; an Oracle (oracle.go) is that program with its inputs, its
// compare pairs and its trap register, and holds the one packet loop and the
// one counting run both machine models use.
//
// A Builder hands out registers and appends instructions; Build and Link
// check every register index, jump target and bank once, so Run has
// no error path, cannot loop and allocates nothing. Every instruction is one
// of the opcodes below: a program calls nothing outside itself. Jumps
// only go forward. A Trap instruction is how a lowered program that can fail
// (a Domino local read before assignment, a dRMT instruction on a field the
// packet lacks) stops early: it stores a code in a register the caller
// inspects after Run.
//
// Optimize (optimize.go) rewrites a checked program into one that dispatches
// fewer instructions on the same frame: it folds an operation on two
// constants to the constant Run computes at the program's width, and a
// compare-and-branch on two constants to a jmp or nothing; it numbers values
// across the whole program, so a value computed twice is read where it was
// computed first; it fuses a compare and the jeq or jne that tests it into
// one compare-and-branch (Jlt, Jgt, Jle, Jge beside Jeq and Jne), threads
// jumps, and drops decided branches, dead code and dead stores. Packages
// core and domino fold nothing as they lower, so the width of a program they
// build is only in its truncated literals, and Optimize folds at the width
// the program runs at. It keeps every register number — a fold may append a
// constant register after them — and every register a caller can see — a
// constant, a bank cell, one the caller lists as observed, one a path reads
// before writing — and may leave any other, a private register whatever its
// name, with another value. An
// observed register that every run ends as a copy of another ends in the
// copy's source instead, which Optimize's end map names, and the copy goes.
// Package sim runs the fuzzer's oracle, the cone with the specification
// linked after it, optimized; every rewrite is proved by Sym on the Table-1
// oracles (TestOptimizeProved) and fuzzed against Run.
//
// Sym (sym.go) runs a program once over a frame of bit-vectors (package bv)
// instead of values, in one pass in program order: every branch and Trap
// splits the path on a decision, joins merge frames by ITEs on the
// decision that split them, a bank access is an ITE over the cells, and the
// arithmetic is Run's: on 64-bit vectors, or on vectors of the program's own
// width, where nothing needs masking. On constants it folds to what Run
// computes; over free variables a question about every frame the program can
// start from — two linked programs agreeing, a lowered Domino specification
// against a pipeline — is a formula for the SAT solver.
package flat

import (
	"fmt"
	"maps"
	"slices"
	"strings"

	"druzhba/internal/phv"
)

// Op is an instruction opcode. Add through Ge are numbered like
// aludsl.BinOp and domino.BinKind, so a lowering converts those operators by
// value. A unary operation, and a test of one register, is a binary one
// against the constant-0 register (Builder.Const(0)): -x is sub #0, x; !x is
// eq x, #0; x as a 0/1 truth value is ne x, #0; a jump on x being 0 is
// jeq x, #0. Jeq through Jge jump where the compare of the same name holds;
// the lowerings emit Jeq and Jne, and Optimize the rest, where it fuses a
// compare and its test into one of them. They follow Jne, so the numbers
// before keep their meaning.
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
	Mov  // r[A] = r[B]
	Jmp  // continue at instruction A
	Trap // if r[B] == 0 { r[A] = C; stop }
	And  // r[A] = r[B] & r[C], the width masks of narrower fields and registers

	// Load and Store address the cells of register bank B (A for a store) by
	// the value of an index register, wrapped into the bank: by modulo, or —
	// LoadMask and StoreMask, which the builder picks for a bank whose cell
	// count is a power of two — by a mask. A store keeps the stored value's
	// low bits, as many as the bank's width.
	Load      // r[A] = cell r[C] of bank B
	LoadMask  //
	Store     // cell r[B] of bank A = r[C]
	StoreMask //

	Jeq // if r[B] == r[C] continue at instruction A
	Jne // if r[B] != r[C] continue at instruction A
	Jlt // if r[B] < r[C] continue at instruction A (likewise Jgt … Jge)
	Jgt
	Jle
	Jge
)

// branch reports whether op is a compare-and-branch, Jeq through Jge: a jump
// to A that is taken when the compare of the same name holds on B and C.
func (op Op) branch() bool { return op >= Jeq && op <= Jge }

// The outcomes of comparing B with C. A compare yields 1, and a
// compare-and-branch jumps, on the outcomes in its entry of rels.
const (
	relLT uint8 = 1 << iota
	relEQ
	relGT
)

var rels = [...]uint8{
	Eq: relEQ, Ne: relLT | relGT, Lt: relLT, Gt: relGT, Le: relLT | relEQ, Ge: relEQ | relGT,
	Jeq: relEQ, Jne: relLT | relGT, Jlt: relLT, Jgt: relGT, Jle: relLT | relEQ, Jge: relEQ | relGT,
}

// ops names every opcode and says what its fields are, in the order the
// disassembly prints them: a field letter then w (register written), r
// (register read), j (jump target), b (bank index) or i (immediate).
var ops = [...]struct{ name, fields string }{
	Add: {"add", "AwBrCr"}, Sub: {"sub", "AwBrCr"}, Mul: {"mul", "AwBrCr"}, Div: {"div", "AwBrCr"}, Mod: {"mod", "AwBrCr"},
	Eq: {"eq", "AwBrCr"}, Ne: {"ne", "AwBrCr"}, Lt: {"lt", "AwBrCr"}, Gt: {"gt", "AwBrCr"}, Le: {"le", "AwBrCr"}, Ge: {"ge", "AwBrCr"},
	Mov: {"mov", "AwBr"}, Jmp: {"jmp", "Aj"}, Trap: {"trap", "AwBrCi"},
	And: {"and", "AwBrCr"}, Load: {"load", "AwBbCr"}, LoadMask: {"load", "AwBbCr"}, Store: {"store", "AbBrCr"}, StoreMask: {"store", "AbBrCr"},
	Jeq: {"jeq", "BrCrAj"}, Jne: {"jne", "BrCrAj"}, Jlt: {"jlt", "BrCrAj"}, Jgt: {"jgt", "BrCrAj"}, Jle: {"jle", "BrCrAj"}, Jge: {"jge", "BrCrAj"},
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
// index, a bank index or an immediate is the opcode's business (see Op).
type Instr struct {
	Op      Op
	A, B, C uint32
}

// bank is a run of consecutive registers that Load and Store index.
type bank struct {
	name         string
	first, cells int
	mask         int64 // what a store keeps of the value
}

// Program is a checked instruction sequence with the initial image of its
// frame. It is immutable and safe for concurrent use; every runner owns a
// frame (NewFrame).
type Program struct {
	w     phv.Width
	code  []Instr
	init  []int64 // initial frame: constants, state initial values, zeros
	names []named // the registers the builder named, in register order
	fixed []bool  // constant registers, which no instruction may write
	banks []bank
	runs  []run       // registers named after their place in a run
	parts [2]*Program // a linked program's a and b, whose names its registers keep (names is nil)
}

// named is a register and the name the builder gave it.
type named struct {
	reg  int
	name string
}

// run is registers from Regs (name0, name1, …) or a bank (name[0], …).
type run struct {
	name     string
	first, n int
	bank     bool
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
	if i, ok := slices.BinarySearchFunc(p.names, r, func(n named, r int) int { return n.reg - r }); ok {
		return p.names[i].name
	}
	for _, g := range p.runs {
		if i := r - g.first; i >= 0 && i < g.n {
			if g.bank {
				return fmt.Sprintf("%s[%d]", g.name, i)
			}
			return fmt.Sprintf("%s%d", g.name, i)
		}
	}
	return ""
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
		case Mov:
			r[in.A] = r[in.B]
		case Jmp:
			pc = int(in.A) - 1
		case Trap:
			if r[in.B] == 0 {
				r[in.A] = int64(in.C)
				return
			}
		case And:
			r[in.A] = r[in.B] & r[in.C]
		case Load:
			b := &p.banks[in.B]
			r[in.A] = r[b.first+wrap(r[in.C], b.cells)]
		case LoadMask:
			b := &p.banks[in.B]
			r[in.A] = r[b.first+int(r[in.C]&int64(b.cells-1))]
		case Store:
			b := &p.banks[in.A]
			r[b.first+wrap(r[in.B], b.cells)] = r[in.C] & b.mask
		case StoreMask:
			b := &p.banks[in.A]
			r[b.first+int(r[in.B]&int64(b.cells-1))] = r[in.C] & b.mask
		case Jeq:
			if r[in.B] == r[in.C] {
				pc = int(in.A) - 1
			}
		case Jne:
			if r[in.B] != r[in.C] {
				pc = int(in.A) - 1
			}
		case Jlt:
			if r[in.B] < r[in.C] {
				pc = int(in.A) - 1
			}
		case Jgt:
			if r[in.B] > r[in.C] {
				pc = int(in.A) - 1
			}
		case Jle:
			if r[in.B] <= r[in.C] {
				pc = int(in.A) - 1
			}
		case Jge:
			if r[in.B] >= r[in.C] {
				pc = int(in.A) - 1
			}
		}
	}
}

// wrap wraps an index into a bank of n >= 1 cells.
func wrap(idx int64, n int) int {
	i := idx % int64(n)
	if i < 0 {
		i += int64(n)
	}
	return int(i)
}

// Mutate returns the program with its instructions rewritten by edit, checked
// like any other; the differential tests plant structural mistakes with it.
func (p *Program) Mutate(edit func(code []Instr) []Instr) (*Program, error) {
	q := *p
	q.code = edit(append([]Instr(nil), p.code...))
	return &q, q.check()
}

// Counting returns a clone of p that also counts how often each of p's
// instructions runs: register first+i counts instruction i. Its frame
// (NewFrame) starts with p's registers, so p and the clone can take turns on
// one frame. What a run does not report — matches per table, instructions
// dispatched — is read from this clone, so p itself counts nothing.
func (p *Program) Counting() (counting *Program, first int) {
	first = len(p.init)
	q := &Program{
		w:     p.w,
		code:  make([]Instr, 0, 2*len(p.code)),
		init:  slices.Concat(p.init, make([]int64, len(p.code)), []int64{1}),
		fixed: slices.Concat(p.fixed, make([]bool, len(p.code)), []bool{true}),
		runs:  p.runs,
		banks: p.banks,
	}
	if q.names = p.names; p.parts[0] != nil {
		for r := range p.init {
			if n := p.name(r); n != "" {
				q.names = append(q.names, named{r, n})
			}
		}
	}
	one := uint32(len(q.init) - 1)
	for i, in := range p.code {
		q.code = append(q.code, Instr{Op: Add, A: uint32(first + i), B: uint32(first + i), C: one})
		for f := ops[in.Op].fields; f != ""; f = f[2:] {
			if f[1] == 'j' {
				in = in.setField(f[0], 2*in.field(f[0]))
			}
		}
		q.code = append(q.code, in)
	}
	return q, first
}

// Link returns one program that runs a and then b on one frame. a keeps its
// registers, instructions and banks; b's registers follow a's, so b
// never writes one of a's. bind maps registers of b to registers of a holding
// their values: one b only reads is renamed to a's register, and one b writes
// gets its own, set from a's by a mov at b's start unless b cannot see the
// value (setsFirst). A bank cell cannot be bound. regs[r] is where b's
// register r lives in the linked frame. A Trap in a stops the program before
// b. a and b must be programs Build, Mutate or Link returned without error.
func Link(a, b *Program, bind map[int]int) (linked *Program, regs []int, err error) {
	if a.w != b.w {
		return nil, nil, fmt.Errorf("flat: link of a %d-bit program after a %d-bit one", b.w.Bits(), a.w.Bits())
	}
	base := len(a.init)
	writes := make([]bool, len(b.init))
	for _, in := range b.code {
		b.access(in, func(r int, write bool) { writes[r] = writes[r] || write })
	}
	p := &Program{
		w:     a.w,
		code:  append(make([]Instr, 0, len(a.code)+len(bind)+len(b.code)), a.code...),
		init:  slices.Concat(a.init, b.init),
		fixed: slices.Concat(a.fixed, b.fixed),
		banks: append(make([]bank, 0, len(a.banks)+len(b.banks)), a.banks...),
		parts: [2]*Program{a, b},
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
		case b.fixed[r] || b.cell(r) || src < 0 || src >= base:
			return nil, nil, fmt.Errorf("flat: link: cannot bind %s to register %d", b.RegName(r), src)
		case writes[r] && !b.setsFirst(r):
			p.code = append(p.code, Instr{Op: Mov, A: uint32(base + r), B: uint32(src)})
		case !writes[r]:
			regs[r] = src
		}
	}
	if bound != len(bind) {
		return nil, nil, fmt.Errorf("flat: link: %d bound registers are not registers of the second program", len(bind)-bound)
	}
	for _, bk := range b.banks {
		bk.first += base
		p.banks = append(p.banks, bk)
	}
	start := uint32(len(p.code))
	for _, in := range b.code {
		for f := ops[in.Op].fields; f != ""; f = f[2:] {
			switch v := in.field(f[0]); f[1] {
			case 'w', 'r':
				in = in.setField(f[0], uint32(regs[v]))
			case 'j':
				in = in.setField(f[0], v+start)
			case 'b':
				in = in.setField(f[0], v+uint32(len(a.banks)))
			}
		}
		p.code = append(p.code, in)
	}
	return p, regs, p.check()
}

// access calls each with every register a checked instruction reads or
// writes: its register operands and the cells of the bank it loads or stores
// (a store writes one of them).
func (p *Program) access(in Instr, each func(r int, write bool)) {
	for f := ops[in.Op].fields; f != ""; f = f[2:] {
		if f[1] == 'w' || f[1] == 'r' {
			each(int(in.field(f[0])), f[1] == 'w')
		}
	}
	switch in.Op {
	case Load, LoadMask, Store, StoreMask:
		bank := in.B
		if in.Op >= Store {
			bank = in.A
		}
		bk := p.banks[bank]
		for c := bk.first; c < bk.first+bk.cells; c++ {
			each(c, in.Op >= Store)
		}
	}
}

// cell reports whether register r is a cell of one of p's banks.
func (p *Program) cell(r int) bool {
	for _, bk := range p.banks {
		if r >= bk.first && r < bk.first+bk.cells {
			return true
		}
	}
	return false
}

// setsFirst reports whether every path through p writes register r before
// reading it and before it can leave p, at its end or at a Trap, so the value
// r held before p ran is never seen. r is no bank cell (a store may write
// another). Jumps only go forward, so one pass in
// program order meets every path into an instruction before the instruction.
func (p *Program) setsFirst(r int) bool {
	set := make([]bool, len(p.code)+1) // set[pc]: r is written on every path into pc, true where none arrives
	for pc := range set {
		set[pc] = pc > 0
	}
	for pc, in := range p.code {
		var reads, writes bool
		p.access(in, func(reg int, write bool) {
			if reg == r {
				reads, writes = reads || !write, writes || write
			}
		})
		written := set[pc]
		if !written && (reads || in.Op == Trap) {
			return false
		}
		written = written || writes && in.Op != Trap // a Trap writes only as it leaves
		if in.Op == Jmp || in.Op.branch() {
			set[in.A] = set[in.A] && written
		}
		if in.Op != Jmp {
			set[pc+1] = set[pc+1] && written
		}
	}
	return set[len(p.code)]
}

// check is the one validation behind Run's missing error path.
func (p *Program) check() error {
	for _, bk := range p.banks {
		if bk.cells < 1 || bk.first < 0 || bk.first+bk.cells > len(p.init) {
			return fmt.Errorf("flat: bank %s: %d cells from register %d reach outside the frame of %d", bk.name, bk.cells, bk.first, len(p.init))
		}
		if slices.Contains(p.fixed[bk.first:bk.first+bk.cells], true) {
			return fmt.Errorf("flat: bank %s holds a constant register", bk.name)
		}
	}
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
			case 'b':
				if v >= len(p.banks) {
					what = "bank"
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
		if in.Op >= Load && in.Op <= StoreMask {
			b.WriteString(p.access1(in))
			b.WriteByte('\n')
			continue
		}
		sep := " "
		for f := ops[in.Op].fields; f != ""; f, sep = f[2:], ", " {
			switch v := in.field(f[0]); f[1] {
			case 'w', 'r':
				fmt.Fprintf(&b, "%s%s", sep, p.RegName(int(v)))
			case 'j':
				fmt.Fprintf(&b, " -> %d", v)
			default:
				fmt.Fprintf(&b, "%s%d", sep, v)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// access1 renders the operands of a bank access, the cell as bank[index],
// wrapped by %cells or &mask.
func (p *Program) access1(in Instr) string {
	cell := func(bank, idx uint32) string {
		bk := p.banks[bank]
		if in.Op == LoadMask || in.Op == StoreMask {
			return fmt.Sprintf("%s[%s&%d]", bk.name, p.RegName(int(idx)), bk.cells-1)
		}
		return fmt.Sprintf("%s[%s%%%d]", bk.name, p.RegName(int(idx)), bk.cells)
	}
	if in.Op <= LoadMask {
		return fmt.Sprintf(" %s, %s", p.RegName(int(in.A)), cell(in.B, in.C))
	}
	return fmt.Sprintf(" %s, %s", cell(in.A, in.B), p.RegName(int(in.C)))
}

// Builder assembles a program. Registers are numbered in allocation order,
// so a block from Regs is contiguous in the frame.
type Builder struct {
	p      Program
	consts map[int64]int // nil until Reserve sizes it or Const needs it
}

// NewBuilder starts a program over the given datapath width.
func NewBuilder(w phv.Width) *Builder {
	return &Builder{p: Program{w: w}}
}

// Size is how large a program comes out, as far as its lowering can tell
// before emitting it. A count may be an estimate; zero reserves nothing.
type Size struct {
	Regs   int // registers
	Instrs int // instructions
	Consts int // distinct constants (Const)
	Names  int // registers named one at a time (Reg)
	Runs   int // blocks of registers (Regs, Bank)
}

// Reserve makes room for s more of everything a program holds, so a caller
// that knows roughly how large its program comes out does not pay for the
// program growing to it.
func (b *Builder) Reserve(s Size) {
	b.p.init = slices.Grow(b.p.init, s.Regs)
	b.p.fixed = slices.Grow(b.p.fixed, s.Regs)
	b.p.code = slices.Grow(b.p.code, s.Instrs)
	b.p.names = slices.Grow(b.p.names, s.Names)
	b.p.runs = slices.Grow(b.p.runs, s.Runs)
	if s.Consts > 0 {
		consts := make(map[int64]int, len(b.consts)+s.Consts)
		maps.Copy(consts, b.consts)
		b.consts = consts
	}
}

// Regs allocates n consecutive registers that start at zero, named name0,
// name1, …, and returns the first.
func (b *Builder) Regs(name string, n int) int {
	return b.run(name, n, false)
}

// run allocates n registers that start at zero, named after their place in
// the run when a listing asks.
func (b *Builder) run(name string, n int, bank bool) int {
	first := len(b.p.init)
	b.p.init = append(b.p.init, make([]int64, n)...)
	b.p.fixed = append(b.p.fixed, make([]bool, n)...)
	b.p.runs = append(b.p.runs, run{name: name, first: first, n: n, bank: bank})
	return first
}

// Reg allocates one named register with an initial value.
func (b *Builder) Reg(name string, init int64) int { return b.reg(name, init, false) }

// Const returns the register holding the constant v.
func (b *Builder) Const(v int64) int {
	r, ok := b.consts[v]
	if !ok {
		if b.consts == nil {
			b.consts = map[int64]int{}
		}
		r = b.reg("", v, true)
		b.consts[v] = r
	}
	return r
}

// Constant returns the value of register r when it is a constant register.
func (b *Builder) Constant(r int) (v int64, ok bool) {
	return b.p.init[r], b.p.fixed[r]
}

func (b *Builder) reg(name string, init int64, fixed bool) int {
	b.p.init = append(b.p.init, init)
	if name != "" {
		b.p.names = append(b.p.names, named{len(b.p.init) - 1, name})
	}
	b.p.fixed = append(b.p.fixed, fixed)
	return len(b.p.init) - 1
}

// Op appends "dst = op x, y" and returns dst; a negative dst means a fresh
// temporary. Mov ignores y.
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
// value: t = x != 0, then — skipped when x decides — whatever y appends and
// t = (the register y returns) != 0. The result lands in dst as by Move.
func (b *Builder) Logic(or bool, dst, x int, y func() int) int {
	skip := Jeq
	if or {
		skip = Jne
	}
	zero := b.Const(0)
	t := b.Op(Ne, -1, x, zero)
	decided := b.Branch(skip, t, zero)
	b.Op(Ne, t, y(), zero)
	b.Land(decided)
	return b.Move(dst, t)
}

// Len returns the number of instructions appended so far.
func (b *Builder) Len() int { return len(b.p.code) }

// Bank allocates a bank of cells registers that start at zero, named
// name[0], name[1], …, whose stores keep the value's bits in mask, and
// returns its index and its first register.
func (b *Builder) Bank(name string, cells int, mask int64) (index, first int) {
	first = b.run(name, cells, true)
	b.p.banks = append(b.p.banks, bank{name: name, first: first, cells: cells, mask: mask})
	return len(b.p.banks) - 1, first
}

// Load appends "dst = cell idx of the bank", the index wrapped by a mask
// when the bank's cell count is a power of two and by modulo otherwise, and
// returns dst; a negative dst means a fresh temporary.
func (b *Builder) Load(dst, bank, idx int) int {
	return b.Op(b.wrapped(Load, bank), dst, bank, idx)
}

// Store appends "cell idx of the bank = v", wrapped as by Load.
func (b *Builder) Store(bank, idx, v int) {
	b.Op(b.wrapped(Store, bank), bank, idx, v)
}

// wrapped returns op, or its mask form for a bank of 2^k cells.
func (b *Builder) wrapped(op Op, bank int) Op {
	if n := b.p.banks[bank].cells; n&(n-1) == 0 {
		return op + 1
	}
	return op
}

// Jump appends a Jmp whose target a later Land sets, and returns its index.
func (b *Builder) Jump() int { return b.Branch(Jmp, 0, 0) }

// Branch appends a compare-and-branch (Jeq through Jge) of x with y, whose
// target a later Land sets, and returns its index.
func (b *Builder) Branch(op Op, x, y int) int {
	b.p.code = append(b.p.code, Instr{Op: op, B: uint32(x), C: uint32(y)})
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
