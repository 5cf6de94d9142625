// isa.go implements §7's second future-work direction: "modeling dRMT to
// the same low level granularity as our RMT model by designing a new
// instruction set with similar properties to our RMT instruction set."
//
// The dRMT ISA is a register-machine instruction set executed by every
// match+action processor. It shares the RMT instruction set's hardware
// properties:
//
//   - feedforward control flow: branch targets are strictly forward, the
//     ISA analogue of a pipeline's inability to send a PHV backwards
//     (Verify rejects programs with backward edges);
//   - total, fixed-width arithmetic: every ALU instruction carries a bit
//     width, results wrap modulo 2^width, division by zero yields 0;
//   - configuration through opcodes and immediates, with match units
//     delivering action-select values and action-data parameters into
//     registers, the way RMT match units drive action-unit inputs.
//
// Assemble lowers a mini-P4 program to one ISA program; ISAMachine runs it
// over the same centralized table entries and register arrays as the
// table-level Machine, so the two execution models can be differentially
// tested against each other.
package drmt

import (
	"fmt"
	"slices"
	"strings"

	"druzhba/internal/flat"
	"druzhba/internal/p4"
	"druzhba/internal/phv"
)

// ALUOp enumerates ISA ALU operations.
type ALUOp uint8

const (
	ALUAdd ALUOp = iota
	ALUSub
	ALUMul
	ALUDiv
	ALUMod
	ALUEq
	ALUNeq
	ALULt
	ALULe
	ALUAnd
	ALUOr
)

var aluOpNames = [...]string{
	ALUAdd: "add", ALUSub: "sub", ALUMul: "mul", ALUDiv: "div", ALUMod: "mod",
	ALUEq: "eq", ALUNeq: "neq", ALULt: "lt", ALULe: "le", ALUAnd: "and", ALUOr: "or",
}

func (o ALUOp) String() string { return aluOpNames[o] }

// Op enumerates ISA instructions.
type Op uint8

const (
	// OpLoadImm: R[Dst] = Imm.
	OpLoadImm Op = iota
	// OpLoadField: R[Dst] = F[Sym].
	OpLoadField
	// OpStoreField: F[Sym] = R[A], truncated to the field's width.
	OpStoreField
	// OpALU: R[Dst] = AOp(R[A], R[B]) at width Bits.
	OpALU
	// OpLoadReg: R[Dst] = S[Sym][wrap(R[A])] — a crossbar read of a
	// centralized register array cell.
	OpLoadReg
	// OpStoreReg: S[Sym][wrap(R[A])] = R[B], truncated to the array's
	// width — a crossbar write.
	OpStoreReg
	// OpMatch: consult table Sym with the packet's current fields;
	// R[Dst] = 1-based index of the selected action in the table's
	// dispatch list (0 = miss with no default) and the action-data
	// parameters land in the param registers.
	OpMatch
	// OpBZ: if R[A] == 0, jump to Target (forward only).
	OpBZ
	// OpBNZ: if R[A] != 0, jump to Target (forward only).
	OpBNZ
	// OpJmp: jump to Target (forward only).
	OpJmp
	// OpDrop: mark the packet dropped (sets the drop register to 1).
	OpDrop
	// OpHalt: stop executing the program.
	OpHalt
)

var opNames = [...]string{
	OpLoadImm: "loadi", OpLoadField: "loadf", OpStoreField: "storef",
	OpALU: "alu", OpLoadReg: "loadr", OpStoreReg: "storer",
	OpMatch: "match", OpBZ: "bz", OpBNZ: "bnz", OpJmp: "jmp",
	OpDrop: "drop", OpHalt: "halt",
}

func (o Op) String() string { return opNames[o] }

// Instr is one ISA instruction.
type Instr struct {
	Op     Op
	Dst    int   // destination register
	A, B   int   // source registers
	Imm    int64 // OpLoadImm immediate
	AOp    ALUOp // OpALU operation
	Bits   int   // OpALU width
	Sym    int   // field / register-array / table symbol index
	Target int   // absolute jump target (OpBZ, OpBNZ, OpJmp)
}

// Reserved register indices.
const (
	RegZero = 0 // always 0
	RegDrop = 1 // drop flag (OpDrop sets it to 1)
	RegSel  = 2 // match action-select result
	// RegParam0 is the first action-data parameter register.
	RegParam0 = 3
)

// ISAProgram is an assembled dRMT processor program plus its symbol
// tables.
type ISAProgram struct {
	Instrs []Instr

	Fields    []string // field symbol index -> "header.field"
	RegArrays []string // register-array symbol index -> register name
	Tables    []string // table symbol index -> table name

	// Dispatch[tableIdx] lists the action names a match on that table can
	// select, in dispatch order: R[RegSel] = position+1.
	Dispatch [][]string

	// NumRegs is the register file size the program requires.
	NumRegs int
	// NumParams is the number of action-data parameter registers
	// (RegParam0 .. RegParam0+NumParams-1).
	NumParams int

	fieldBits map[int]int // field symbol -> declared width
	regBits   map[int]int // array symbol -> declared width
}

// Verify checks the ISA's hardware invariants: the register file holds the
// reserved and action-data parameter registers a MATCH writes, every
// register index is in range and every control transfer is strictly forward
// (the feedforward property the RMT pipeline has by construction).
func (p *ISAProgram) Verify() error {
	if p.NumParams < 0 || p.NumRegs < RegParam0+p.NumParams {
		return fmt.Errorf("drmt isa: %d registers cannot hold the %d reserved and %d action-data parameter registers", p.NumRegs, RegParam0, p.NumParams)
	}
	for pc, in := range p.Instrs {
		bad := func(format string, args ...any) error {
			return fmt.Errorf("drmt isa: instr %d (%s): %s", pc, in.Op, fmt.Sprintf(format, args...))
		}
		checkReg := func(r int) error {
			if r < 0 || r >= p.NumRegs {
				return bad("register %d out of range [0,%d)", r, p.NumRegs)
			}
			return nil
		}
		switch in.Op {
		case OpLoadImm:
			if err := checkReg(in.Dst); err != nil {
				return err
			}
		case OpLoadField, OpStoreField:
			if in.Sym < 0 || in.Sym >= len(p.Fields) {
				return bad("field symbol %d out of range", in.Sym)
			}
			if err := checkReg(in.Dst); err != nil {
				return err
			}
			if err := checkReg(in.A); err != nil {
				return err
			}
		case OpALU:
			for _, r := range []int{in.Dst, in.A, in.B} {
				if err := checkReg(r); err != nil {
					return err
				}
			}
			if in.Bits < 1 || in.Bits > 62 {
				return bad("width %d out of range", in.Bits)
			}
		case OpLoadReg, OpStoreReg:
			if in.Sym < 0 || in.Sym >= len(p.RegArrays) {
				return bad("register-array symbol %d out of range", in.Sym)
			}
			for _, r := range []int{in.Dst, in.A, in.B} {
				if err := checkReg(r); err != nil {
					return err
				}
			}
		case OpMatch:
			if in.Sym < 0 || in.Sym >= len(p.Tables) {
				return bad("table symbol %d out of range", in.Sym)
			}
			if err := checkReg(in.Dst); err != nil {
				return err
			}
		case OpBZ, OpBNZ, OpJmp:
			if in.Target <= pc {
				return bad("backward jump to %d (feedforward violation)", in.Target)
			}
			if in.Target > len(p.Instrs) {
				return bad("jump target %d beyond program end", in.Target)
			}
			if in.Op != OpJmp {
				if err := checkReg(in.A); err != nil {
					return err
				}
			}
		case OpDrop, OpHalt:
		default:
			return bad("unknown opcode %d", in.Op)
		}
	}
	return nil
}

// Disassemble renders the program as readable assembly.
func (p *ISAProgram) Disassemble() string {
	var b strings.Builder
	for pc := range p.Instrs {
		in := &p.Instrs[pc]
		sym := ""
		switch in.Op {
		case OpLoadField, OpStoreField:
			sym = p.Fields[in.Sym]
		case OpLoadReg, OpStoreReg:
			sym = p.RegArrays[in.Sym]
		case OpMatch:
			sym = p.Tables[in.Sym]
		}
		fmt.Fprintf(&b, "%4d: %s\n", pc, in.format(sym))
	}
	return b.String()
}

// format renders the instruction; sym is the name its Sym operand stands
// for.
func (in *Instr) format(sym string) string {
	reg := func(r int) string { return fmt.Sprintf("r%d", r) }
	switch in.Op {
	case OpLoadImm:
		return fmt.Sprintf("loadi  %s, %d", reg(in.Dst), in.Imm)
	case OpLoadField, OpMatch:
		return fmt.Sprintf("%-6s %s, %s", in.Op, reg(in.Dst), sym)
	case OpStoreField:
		return fmt.Sprintf("storef %s, %s", sym, reg(in.A))
	case OpALU:
		return fmt.Sprintf("alu.%s/%d %s, %s, %s", in.AOp, in.Bits, reg(in.Dst), reg(in.A), reg(in.B))
	case OpLoadReg:
		return fmt.Sprintf("loadr  %s, %s[%s]", reg(in.Dst), sym, reg(in.A))
	case OpStoreReg:
		return fmt.Sprintf("storer %s[%s], %s", sym, reg(in.A), reg(in.B))
	case OpBZ, OpBNZ:
		return fmt.Sprintf("%-6s %s, %d", in.Op, reg(in.A), in.Target)
	case OpJmp:
		return fmt.Sprintf("jmp    %d", in.Target)
	}
	return in.Op.String() // drop, halt
}

// --- Assembler ----------------------------------------------------------------

// asm is the assembler's working state.
type asm struct {
	prog *p4.Program
	out  *ISAProgram

	fieldIdx map[string]int
	arrayIdx map[string]int
	tableIdx map[string]int

	nextReg int // next free temporary register
}

// Assemble lowers a mini-P4 program to a dRMT ISA program: one MATCH per
// table in control order, a branch-dispatched action body per selectable
// action, and register/field micro-ops for every action primitive.
func Assemble(prog *p4.Program) (*ISAProgram, error) {
	a := &asm{
		prog:     prog,
		out:      &ISAProgram{fieldBits: map[int]int{}, regBits: map[int]int{}},
		fieldIdx: map[string]int{},
		arrayIdx: map[string]int{},
		tableIdx: map[string]int{},
	}
	for _, f := range prog.FieldNames() {
		bits, err := prog.FieldBits(f)
		if err != nil {
			return nil, err
		}
		a.fieldIdx[f] = len(a.out.Fields)
		a.out.fieldBits[len(a.out.Fields)] = bits
		a.out.Fields = append(a.out.Fields, f)
	}
	for _, r := range prog.Registers {
		a.arrayIdx[r.Name] = len(a.out.RegArrays)
		a.out.regBits[len(a.out.RegArrays)] = r.Bits
		a.out.RegArrays = append(a.out.RegArrays, r.Name)
	}

	maxParams := 0
	for _, act := range prog.Actions {
		if len(act.Params) > maxParams {
			maxParams = len(act.Params)
		}
	}
	a.out.NumParams = maxParams
	a.nextReg = RegParam0 + maxParams

	// Room for the program: a drop test and a MATCH per table, four dispatch
	// instructions per action, what its primitives take (see prim), and the
	// halt.
	size := 1
	for _, name := range prog.Control {
		if t := prog.Table(name); t != nil {
			size += 2
			for _, act := range dispatchList(t) {
				if act := prog.Action(act); act != nil {
					size += 4
					for _, pr := range act.Prims {
						size += primSize(pr)
					}
				}
			}
		}
	}
	a.out.Instrs = make([]Instr, 0, size)

	for _, name := range prog.Control {
		t := prog.Table(name)
		if t == nil {
			return nil, fmt.Errorf("drmt isa: control applies unknown table %q", name)
		}
		if err := a.table(t); err != nil {
			return nil, err
		}
	}
	a.emit(Instr{Op: OpHalt})
	a.out.NumRegs = a.nextReg
	if err := a.out.Verify(); err != nil {
		return nil, fmt.Errorf("drmt isa: assembler produced invalid program: %w", err)
	}
	return a.out, nil
}

func (a *asm) emit(in Instr) int {
	a.out.Instrs = append(a.out.Instrs, in)
	return len(a.out.Instrs) - 1
}

// patch sets the target of a previously emitted branch.
func (a *asm) patch(pc int) { a.out.Instrs[pc].Target = len(a.out.Instrs) }

// temp allocates a scratch register.
func (a *asm) temp() int {
	r := a.nextReg
	a.nextReg++
	return r
}

// dispatchList returns the actions a match on t can select: the table's
// declared actions, plus the default action when it is not declared.
func dispatchList(t *p4.Table) []string {
	out := append([]string(nil), t.Actions...)
	if t.Default != nil {
		found := false
		for _, n := range out {
			if n == t.Default.Name {
				found = true
			}
		}
		if !found {
			out = append(out, t.Default.Name)
		}
	}
	return out
}

// table emits the MATCH + dispatch + action bodies for one table.
func (a *asm) table(t *p4.Table) error {
	tIdx := len(a.out.Tables)
	a.tableIdx[t.Name] = tIdx
	a.out.Tables = append(a.out.Tables, t.Name)
	dispatch := dispatchList(t)
	a.out.Dispatch = append(a.out.Dispatch, dispatch)

	// Dropped packets skip every later table (Machine.ProcessSlots checks
	// the flag before each lookup).
	skipTable := a.emit(Instr{Op: OpBNZ, A: RegDrop})

	a.emit(Instr{Op: OpMatch, Dst: RegSel, Sym: tIdx})

	// Dispatch: compare RegSel against each action's 1-based position.
	rImm := a.temp()
	rCmp := a.temp()
	var endJumps []int
	for i, actName := range dispatch {
		act := a.prog.Action(actName)
		if act == nil {
			return fmt.Errorf("drmt isa: table %q selects unknown action %q", t.Name, actName)
		}
		a.emit(Instr{Op: OpLoadImm, Dst: rImm, Imm: int64(i + 1)})
		a.emit(Instr{Op: OpALU, AOp: ALUEq, Bits: 62, Dst: rCmp, A: RegSel, B: rImm})
		skipBody := a.emit(Instr{Op: OpBZ, A: rCmp})
		if err := a.action(act); err != nil {
			return err
		}
		endJumps = append(endJumps, a.emit(Instr{Op: OpJmp}))
		a.patch(skipBody)
	}
	for _, pc := range endJumps {
		a.patch(pc)
	}
	a.patch(skipTable)
	return nil
}

// materialize loads an operand's value into a register and returns it.
// Parameters live in their dedicated registers; literals and fields use a
// scratch register.
func (a *asm) materialize(act *p4.Action, o p4.Operand) (int, error) {
	switch o.Kind {
	case p4.OpLiteral:
		r := a.temp()
		a.emit(Instr{Op: OpLoadImm, Dst: r, Imm: o.Value})
		return r, nil
	case p4.OpField:
		idx, ok := a.fieldIdx[o.Name]
		if !ok {
			return 0, fmt.Errorf("drmt isa: unknown field %q", o.Name)
		}
		r := a.temp()
		a.emit(Instr{Op: OpLoadField, Dst: r, Sym: idx})
		return r, nil
	case p4.OpParam:
		for i, p := range act.Params {
			if p == o.Name {
				return RegParam0 + i, nil
			}
		}
		return 0, fmt.Errorf("drmt isa: action %q has no parameter %q", act.Name, o.Name)
	}
	return 0, fmt.Errorf("drmt isa: bad operand kind %d", o.Kind)
}

// primSize is the number of instructions prim assembles a primitive to: its
// own, and one to materialize each operand that is not a parameter.
func primSize(pr p4.Primitive) int {
	n := 0
	switch pr.Op {
	case p4.PrimModifyField, p4.PrimRegWrite, p4.PrimDrop:
		n = 1
	case p4.PrimRegRead:
		n = 2
	case p4.PrimAddToField, p4.PrimRegAdd:
		n = 3
	}
	for _, o := range pr.Args {
		if o.Kind != p4.OpParam {
			n++
		}
	}
	return n
}

// action lowers one action body.
func (a *asm) action(act *p4.Action) error {
	for _, pr := range act.Prims {
		if err := a.prim(act, pr); err != nil {
			return fmt.Errorf("action %q: %w", act.Name, err)
		}
	}
	return nil
}

func (a *asm) prim(act *p4.Action, pr p4.Primitive) error {
	fieldSym := func(name string) (int, error) {
		idx, ok := a.fieldIdx[name]
		if !ok {
			return 0, fmt.Errorf("drmt isa: unknown field %q", name)
		}
		return idx, nil
	}
	arraySym := func(name string) (int, error) {
		idx, ok := a.arrayIdx[name]
		if !ok {
			return 0, fmt.Errorf("drmt isa: unknown register %q", name)
		}
		return idx, nil
	}
	switch pr.Op {
	case p4.PrimModifyField:
		f, err := fieldSym(pr.Field)
		if err != nil {
			return err
		}
		r, err := a.materialize(act, pr.Args[0])
		if err != nil {
			return err
		}
		a.emit(Instr{Op: OpStoreField, Sym: f, A: r})
	case p4.PrimAddToField:
		f, err := fieldSym(pr.Field)
		if err != nil {
			return err
		}
		rv, err := a.materialize(act, pr.Args[0])
		if err != nil {
			return err
		}
		rf := a.temp()
		a.emit(Instr{Op: OpLoadField, Dst: rf, Sym: f})
		rsum := a.temp()
		a.emit(Instr{Op: OpALU, AOp: ALUAdd, Bits: a.out.fieldBits[f], Dst: rsum, A: rf, B: rv})
		a.emit(Instr{Op: OpStoreField, Sym: f, A: rsum})
	case p4.PrimRegWrite:
		arr, err := arraySym(pr.Reg)
		if err != nil {
			return err
		}
		ri, err := a.materialize(act, pr.Args[0])
		if err != nil {
			return err
		}
		rv, err := a.materialize(act, pr.Args[1])
		if err != nil {
			return err
		}
		a.emit(Instr{Op: OpStoreReg, Sym: arr, A: ri, B: rv})
	case p4.PrimRegAdd:
		arr, err := arraySym(pr.Reg)
		if err != nil {
			return err
		}
		ri, err := a.materialize(act, pr.Args[0])
		if err != nil {
			return err
		}
		rv, err := a.materialize(act, pr.Args[1])
		if err != nil {
			return err
		}
		rc := a.temp()
		a.emit(Instr{Op: OpLoadReg, Dst: rc, Sym: arr, A: ri})
		rsum := a.temp()
		a.emit(Instr{Op: OpALU, AOp: ALUAdd, Bits: a.out.regBits[arr], Dst: rsum, A: rc, B: rv})
		a.emit(Instr{Op: OpStoreReg, Sym: arr, A: ri, B: rsum})
	case p4.PrimRegRead:
		arr, err := arraySym(pr.Reg)
		if err != nil {
			return err
		}
		f, err := fieldSym(pr.Field)
		if err != nil {
			return err
		}
		ri, err := a.materialize(act, pr.Args[0])
		if err != nil {
			return err
		}
		rc := a.temp()
		a.emit(Instr{Op: OpLoadReg, Dst: rc, Sym: arr, A: ri})
		a.emit(Instr{Op: OpStoreField, Sym: f, A: rc})
	case p4.PrimDrop:
		a.emit(Instr{Op: OpDrop})
	case p4.PrimNoOp:
	default:
		return fmt.Errorf("drmt isa: unknown primitive %v", pr.Op)
	}
	return nil
}

// --- Executor -----------------------------------------------------------------

// ISAStats extends the run statistics with instruction-level counts.
type ISAStats struct {
	Stats
	// Instructions is the total number of instructions executed.
	Instructions int64
	// MatchOps is the total number of MATCH instructions executed (each
	// is one crossbar access).
	MatchOps int64
}

// isaTable is one OpMatch target: its Match's outcomes (tableOutcomes), the
// action call each selects (nil: the miss) and that call's 1-based index in
// the table's dispatch list (0: outside it).
type isaTable struct {
	name     string
	outcomes []flat.Outcome
	calls    []*p4.ActionCall
	sels     []int64
	err      error // the table is unknown to the program (injected ISA)
}

// outcome returns what a MATCH on the table selects as outcome oi; a miss
// (matched false) leaves select and parameters zero.
func (mt *isaTable) outcome(oi int) (matched bool, sel int64, args []int64, action string) {
	if c := mt.calls[oi]; c != nil {
		return true, mt.sels[oi], c.Args, c.Name
	}
	return false, 0, nil, ""
}

// outcomeName labels outcome oi of a MATCH on the table.
func (mt *isaTable) outcomeName(oi int) string {
	matched, _, args, action := mt.outcome(oi)
	parts := make([]string, len(args))
	for i, v := range args {
		parts[i] = fmt.Sprint(v)
	}
	call := action + "(" + strings.Join(parts, ", ") + ")"
	switch {
	case !matched:
		return "miss"
	case oi < len(mt.calls)-1:
		return fmt.Sprintf("%d %s", oi, call)
	}
	return "default " + call
}

// ISAMachine executes an assembled ISA program over the same centralized
// state (match table entries, register arrays) as the table-level Machine.
// The program is lowered once, at construction, onto its table entries to
// a flat program (lower.go); ExecSlots runs it on a slot-vector packet, and
// Run converts map packets at its boundary.
type ISAMachine struct {
	prog    *p4.Program
	isa     *ISAProgram
	entries *EntrySet
	hw      HWConfig

	layout      *SlotLayout
	matchTables []isaTable // indexed by table symbol
	engine                 // the lowered program and its frame
	count, err  int        // registers: source instructions retired; the error that stopped the packet, errs[err-1]
	errs        []error
	blocks      []lowBlock // the lowered program's blocks, in order
}

// NewISAMachine builds an executor. When isa is nil the program is
// assembled from the P4 source.
func NewISAMachine(prog *p4.Program, isa *ISAProgram, entries *EntrySet, hw HWConfig) (*ISAMachine, error) {
	layout, err := NewSlotLayout(prog)
	if err != nil {
		return nil, err
	}
	m, err := newISAMachine(prog, isa, entries, hw, layout)
	if err != nil {
		return nil, err
	}
	m.frame = m.code.NewFrame()
	return m, nil
}

// newISAMachine is NewISAMachine over a shared layout, without a frame (the
// differential fuzzer builds both machines over one and runs their linked
// program).
func newISAMachine(prog *p4.Program, isa *ISAProgram, entries *EntrySet, hw HWConfig, layout *SlotLayout) (*ISAMachine, error) {
	var err error
	if isa == nil {
		isa, err = Assemble(prog)
		if err != nil {
			return nil, err
		}
	}
	if err := isa.Verify(); err != nil {
		return nil, err
	}
	m := &ISAMachine{prog: prog, isa: isa, entries: entries, hw: hw.Defaults(), layout: layout}
	lw := lowerer{
		m:         m,
		b:         flat.NewBuilder(width),
		fieldSlot: make([]int, len(isa.Fields)),
		fieldMask: make([]int64, len(isa.Fields)),
		cells:     make([]int, len(isa.RegArrays)),
		bankMask:  make([]int64, len(isa.RegArrays)),
	}
	for i, name := range isa.Fields {
		w, err := phv.NewWidth(isa.fieldBits[i])
		if err != nil {
			return nil, err
		}
		lw.fieldMask[i] = w.Mask()
		if s, ok := layout.fieldIdx[name]; ok {
			lw.fieldSlot[i] = s
		} else {
			lw.fieldSlot[i] = -1 // a slot packet "lacks" this field
		}
	}
	for i, name := range isa.RegArrays {
		r := prog.Register(name)
		if r == nil {
			return nil, fmt.Errorf("drmt isa: program has no register %q", name)
		}
		w, err := phv.NewWidth(r.Bits)
		if err != nil {
			return nil, err
		}
		if r.Count < 1 {
			// The parser rejects it; a hand-built Program can still carry an
			// empty bank, which has no cell for an index to wrap to.
			return nil, fmt.Errorf("drmt isa: register %q has no cells", name)
		}
		lw.bankMask[i], lw.cells[i] = w.Mask(), r.Count
	}
	if m.matchTables, err = m.compileMatchTables(); err != nil {
		return nil, err
	}
	if err := lw.lower(); err != nil {
		return nil, err
	}
	return m, nil
}

// compileMatchTables resolves every OpMatch target's outcomes against the
// dispatch lists once, for the lowering. A MATCH writes its bound arguments
// into the NumParams parameter registers, so a binding with more arguments
// than that (possible only under an injected ISA program) is refused here.
func (m *ISAMachine) compileMatchTables() ([]isaTable, error) {
	out := make([]isaTable, len(m.isa.Tables))
	for ti, name := range m.isa.Tables {
		mt := &out[ti]
		mt.name = name
		t := m.prog.Table(name)
		if t == nil {
			// Reported the first time the table is consulted, as the
			// reference does.
			mt.err = fmt.Errorf("unknown table %q", name)
			continue
		}
		var calls []*p4.ActionCall
		for _, e := range m.entries.ForTable(name) {
			calls = append(calls, &e.Action)
		}
		for _, c := range append(calls, t.Default) {
			if c != nil && len(c.Args) > m.isa.NumParams {
				return nil, fmt.Errorf("drmt isa: table %q binds %d-argument action %q, the ISA program has %d parameter registers", name, len(c.Args), c.Name, m.isa.NumParams)
			}
		}
		mt.outcomes, mt.calls = tableOutcomes(t, m.entries, m.layout)
		for _, c := range mt.calls {
			sel := 0
			if c != nil {
				sel = slices.Index(m.isa.Dispatch[ti], c.Name) + 1
			}
			mt.sels = append(mt.sels, int64(sel))
		}
	}
	return out, nil
}

// Program returns the ISA program under execution.
func (m *ISAMachine) Program() *ISAProgram { return m.isa }

// Layout returns the machine's slot layout.
func (m *ISAMachine) Layout() *SlotLayout { return m.layout }

// Clone returns a machine with private register-array state. The P4
// program, ISA program, table entries, hardware configuration, precompiled
// match tables and lowered program are immutable after construction and
// stay shared; campaign workers run shards on clones so no mutable state
// crosses goroutines.
func (m *ISAMachine) Clone() *ISAMachine {
	c := *m
	c.engine = m.engine.clone()
	return &c
}

// Register returns a copy of a register array's cells.
func (m *ISAMachine) Register(name string) ([]int64, bool) {
	if i := slices.Index(m.isa.RegArrays, name); i >= 0 {
		return slices.Clone(m.bank(i)), true
	}
	return nil, false
}

// ResetState zeroes all register arrays.
func (m *ISAMachine) ResetState() { m.resetState() }

// Run executes the ISA program for every packet, dispatching packets to
// processors round-robin like the table-level machine. Per-packet latency
// is the executed instruction count (one instruction per cycle). Each
// packet is copied into a slot vector, executed, and copied back with its
// timing annotations; a packet that lacks a program field is rejected. The
// matches are counted by the lowered program's counting clone, which
// Dispatched reads too.
func (m *ISAMachine) Run(packets []*Packet) (*ISAStats, error) {
	stats := &ISAStats{Stats: newStats(len(packets), m.hw.Processors)}
	p := m.counted()
	buf := make([]int64, m.layout.NumFields())
	for i, pkt := range packets {
		if err := m.layout.PacketToSlots(pkt, buf); err != nil {
			return nil, fmt.Errorf("drmt isa: packet %d: %w", pkt.ID, err)
		}
		executed, dropped, err := m.run(p, buf)
		if err != nil {
			return nil, fmt.Errorf("drmt isa: packet %d: %w", pkt.ID, err)
		}
		dropped = dropped || pkt.Dropped
		m.layout.SlotsToPacket(buf, dropped, pkt)
		stats.Instructions += int64(executed)
		pkt.ArriveAt = i
		pkt.Processor, pkt.CompleteAt = stats.record(i, executed, dropped)
	}
	stats.MatchOps = stats.finish(m.isa.Tables, m.matchCounts(len(m.isa.Tables)))
	return stats, nil
}

// Dispatched returns how many instructions of the lowered program the last
// Run dispatched, its count additions included: what the packets cost on
// the frame, where ISAStats.Instructions counts the source program's.
func (m *ISAMachine) Dispatched() int64 {
	if m.counting == nil {
		return 0
	}
	return sum64(m.frame[m.counters : m.counters+m.code.Len()])
}

// ExecSlots runs the program on one layout-ordered slot-vector packet in
// place — the lowered program on the machine's frame, with no allocation
// and no map lookups. It returns the executed source-instruction count (the
// per-packet latency, one instruction per cycle) and the drop flag; an
// error reports the count up to and including the failing instruction.
// Register-array state accumulates across calls.
//
//dvet:hotpath allocs=0
func (m *ISAMachine) ExecSlots(pkt []int64) (executed int, dropped bool, err error) {
	return m.run(m.code, pkt)
}

// run runs p, the lowered program or its counting clone, on one packet.
func (m *ISAMachine) run(p *flat.Program, pkt []int64) (executed int, dropped bool, err error) {
	m.frame[m.count] = 0
	dropped = m.exec(p, pkt)
	f := m.frame
	if code := f[m.err]; code != 0 {
		f[m.err] = 0
		err = m.errs[code-1]
	}
	return int(f[m.count]), dropped, err
}

// aluWidths holds the prebuilt width of every ALU bit count Verify accepts.
var aluWidths = func() (w [63]phv.Width) {
	for bits := 1; bits < len(w); bits++ {
		w[bits] = phv.MustWidth(bits)
	}
	return w
}()

// aluEvalW applies an ISA ALU operation at a prebuilt width.
func aluEvalW(op ALUOp, w phv.Width, a, b int64) int64 {
	a, b = w.Trunc(a), w.Trunc(b)
	switch op {
	case ALUAdd:
		return w.Add(a, b)
	case ALUSub:
		return w.Sub(a, b)
	case ALUMul:
		return w.Mul(a, b)
	case ALUDiv:
		return w.Div(a, b)
	case ALUMod:
		return w.Mod(a, b)
	case ALUEq:
		return phv.Bool(a == b)
	case ALUNeq:
		return phv.Bool(a != b)
	case ALULt:
		return phv.Bool(a < b)
	case ALULe:
		return phv.Bool(a <= b)
	case ALUAnd:
		return phv.Bool(phv.Truthy(a) && phv.Truthy(b))
	case ALUOr:
		return phv.Bool(phv.Truthy(a) || phv.Truthy(b))
	}
	return 0
}
