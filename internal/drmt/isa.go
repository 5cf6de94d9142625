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
	dst, a, b := reg(in.Dst), reg(in.A), reg(in.B)
	switch in.Op {
	case OpLoadImm:
		a = fmt.Sprint(in.Imm)
	case OpLoadField, OpMatch:
		a = sym
	case OpStoreField, OpStoreReg:
		dst = sym
	case OpLoadReg:
		b = sym
	}
	return formatOp(in.Op, in.AOp, in.Bits, dst, a, b, in.Target)
}

// formatOp is the one listing syntax, over operands already named:
// Disassemble prints source instructions through it and ISAMachine.Lowered
// the ops they were lowered to. A bank is storer's dst and loadr's b, a
// table is match's a.
func formatOp(op Op, aop ALUOp, bits int, dst, a, b string, target int) string {
	switch op {
	case OpLoadImm, OpLoadField, OpStoreField, OpMatch:
		return fmt.Sprintf("%-6s %s, %s", op, dst, a)
	case OpALU:
		return fmt.Sprintf("alu.%s/%d %s, %s, %s", aop, bits, dst, a, b)
	case OpLoadReg:
		return fmt.Sprintf("loadr  %s, %s[%s]", dst, b, a)
	case OpStoreReg:
		return fmt.Sprintf("storer %s[%s], %s", dst, a, b)
	case OpBZ, OpBNZ:
		return fmt.Sprintf("%-6s %s, %d", op, a, target)
	case OpJmp:
		return fmt.Sprintf("jmp    %d", target)
	}
	return op.String() // drop, halt
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

// isaEntry is one table entry resolved against the ISA program's dispatch
// list and the shared slot layout: what the lowering turns into one outcome
// of the table's MATCH, with the block specialised on the 1-based dispatch
// index and the bound action-data arguments.
type isaEntry struct {
	field   int   // layout field slot
	key     int64 // the entry matches a field value v when v&mask == key:
	mask    int64 // an exact entry's mask is all ones, a ternary key is pre-masked
	sel     int64 // 1-based dispatch index; 0 = action outside dispatch list
	args    []int64
	actName string
}

// isaTable is one OpMatch target with its entries and default precompiled.
type isaTable struct {
	name    string
	entries []isaEntry
	hasDef  bool
	defSel  int64
	defArgs []int64
	defName string
	err     error // the table is unknown to the program (injected ISA)
}

// ISAMachine executes an assembled ISA program over the same centralized
// state (match table entries, register arrays) as the table-level Machine.
// The program is lowered once, at construction, onto its table entries (see
// lower.go); ExecSlots runs the lowered code and is the one interpreter:
// packets are layout-ordered []int64 vectors copied into and out of a reused
// frame, and Run converts map packets at its boundary.
type ISAMachine struct {
	prog    *p4.Program
	isa     *ISAProgram
	entries *EntrySet
	hw      HWConfig

	regBanks [][]int64 // indexed by register-array symbol

	layout      *SlotLayout
	matchTables []isaTable // indexed by table symbol
	low         *lowered   // what ExecSlots runs; immutable, shared by clones
	frame       []int64    // what ExecSlots runs on: field slots, registers, constants
	matchCount  []int      // per table symbol, cleared by Run
}

// NewISAMachine builds an executor. When isa is nil the program is
// assembled from the P4 source.
func NewISAMachine(prog *p4.Program, isa *ISAProgram, entries *EntrySet, hw HWConfig) (*ISAMachine, error) {
	layout, err := NewSlotLayout(prog)
	if err != nil {
		return nil, err
	}
	return newISAMachine(prog, isa, entries, hw, layout)
}

// newISAMachine is NewISAMachine over a shared layout (the differential
// fuzzer builds both machines over one).
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
	m := &ISAMachine{
		prog:       prog,
		isa:        isa,
		entries:    entries,
		hw:         hw.Defaults(),
		layout:     layout,
		matchCount: make([]int, len(isa.Tables)),
		regBanks:   make([][]int64, len(isa.RegArrays)),
	}
	lw := lowerer{
		m:         m,
		fieldSlot: make([]int32, len(isa.Fields)),
		fieldMask: make([]int64, len(isa.Fields)),
		regMask:   make([]int64, len(isa.RegArrays)),
	}
	for i, name := range isa.Fields {
		w, err := phv.NewWidth(isa.fieldBits[i])
		if err != nil {
			return nil, err
		}
		lw.fieldMask[i] = w.Mask()
		if s, ok := layout.fieldIdx[name]; ok {
			lw.fieldSlot[i] = int32(s)
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
		lw.regMask[i] = w.Mask()
		m.regBanks[i] = make([]int64, r.Count)
	}
	if m.matchTables, err = m.compileMatchTables(); err != nil {
		return nil, err
	}
	m.low = lw.lower()
	m.frame = m.low.newFrame()
	return m, nil
}

// compileMatchTables resolves every OpMatch target's entries and default
// against the dispatch lists once, for the lowering. A MATCH writes its bound
// arguments
// into the NumParams parameter registers, so a binding with more arguments
// than that (possible only under an injected ISA program) is refused here.
func (m *ISAMachine) compileMatchTables() ([]isaTable, error) {
	dispatchIdx := func(tableSym int, action string) int64 {
		for i, name := range m.isa.Dispatch[tableSym] {
			if name == action {
				return int64(i + 1)
			}
		}
		return 0
	}
	checkArgs := func(table string, call p4.ActionCall) error {
		if len(call.Args) > m.isa.NumParams {
			return fmt.Errorf("drmt isa: table %q binds %d-argument action %q, the ISA program has %d parameter registers", table, len(call.Args), call.Name, m.isa.NumParams)
		}
		return nil
	}
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
		for _, e := range m.entries.ForTable(name) {
			if err := checkArgs(name, e.Action); err != nil {
				return nil, err
			}
			fs, ok := m.layout.fieldIdx[e.Field]
			if !ok {
				continue // a non-program field never matches a slot packet
			}
			ie := isaEntry{
				field:   fs,
				key:     e.Key,
				mask:    -1,
				sel:     dispatchIdx(ti, e.Action.Name),
				args:    e.Action.Args,
				actName: e.Action.Name,
			}
			if e.Kind == p4.MatchTernary {
				ie.key, ie.mask = e.Key&e.Mask, e.Mask
			}
			mt.entries = append(mt.entries, ie)
		}
		if t.Default != nil {
			if err := checkArgs(name, *t.Default); err != nil {
				return nil, err
			}
			mt.hasDef = true
			mt.defSel = dispatchIdx(ti, t.Default.Name)
			mt.defArgs = t.Default.Args
			mt.defName = t.Default.Name
		}
	}
	return out, nil
}

// Program returns the ISA program under execution.
func (m *ISAMachine) Program() *ISAProgram { return m.isa }

// Layout returns the machine's slot layout.
func (m *ISAMachine) Layout() *SlotLayout { return m.layout }

// Clone returns a machine with private register-array state and frame.
// The P4 program, ISA program, table entries, hardware configuration,
// precompiled match tables and lowered code are immutable after
// construction and stay shared; campaign workers run shards on clones so
// no mutable state crosses goroutines.
func (m *ISAMachine) Clone() *ISAMachine {
	c := *m
	c.regBanks = make([][]int64, len(m.regBanks))
	for i, cells := range m.regBanks {
		c.regBanks[i] = append([]int64(nil), cells...)
	}
	c.frame = m.low.newFrame()
	c.matchCount = make([]int, len(m.matchCount))
	return &c
}

// DispatchCounter returns a clone whose ExecSlots counts the lowered ops it
// dispatches, not the source instructions they retire: the same code with
// every op retiring 1.
func (m *ISAMachine) DispatchCounter() *ISAMachine {
	c := m.Clone()
	low := *m.low
	low.code = slices.Clone(low.code)
	for i := range low.code {
		low.code[i].retire = 1
	}
	c.low = &low
	return c
}

// Register returns a copy of a register array's cells.
func (m *ISAMachine) Register(name string) ([]int64, bool) {
	for i, n := range m.isa.RegArrays {
		if n == name {
			return append([]int64(nil), m.regBanks[i]...), true
		}
	}
	return nil, false
}

// ResetState zeroes all register arrays.
func (m *ISAMachine) ResetState() {
	for _, r := range m.regBanks {
		for i := range r {
			r[i] = 0
		}
	}
}

// Run executes the ISA program for every packet, dispatching packets to
// processors round-robin like the table-level machine. Per-packet latency
// is the executed instruction count (one instruction per cycle). Run is an
// adapter over ExecSlots: each packet is copied into a slot vector,
// executed, and copied back with its timing annotations; a packet that
// lacks a program field is rejected.
func (m *ISAMachine) Run(packets []*Packet) (*ISAStats, error) {
	stats := &ISAStats{Stats: newStats(len(packets), m.hw.Processors)}
	clear(m.matchCount)
	buf := make([]int64, m.layout.NumFields())
	for i, pkt := range packets {
		if err := m.layout.PacketToSlots(pkt, buf); err != nil {
			return nil, fmt.Errorf("drmt isa: packet %d: %w", pkt.ID, err)
		}
		executed, dropped, err := m.ExecSlots(buf)
		if err != nil {
			return nil, fmt.Errorf("drmt isa: packet %d: %w", pkt.ID, err)
		}
		dropped = dropped || pkt.Dropped
		m.layout.SlotsToPacket(buf, dropped, pkt)
		stats.Instructions += int64(executed)
		pkt.ArriveAt = i
		pkt.Processor, pkt.CompleteAt = stats.record(i, executed, dropped)
	}
	stats.MatchOps = stats.finish(m.isa.Tables, m.matchCount)
	return stats, nil
}

// ExecSlots runs the program on one layout-ordered slot-vector packet in
// place — the hot path. The packet is copied into the frame, the lowered
// code (lower.go) runs on it, and the field slots are copied back: every
// operand is a frame index whether it names a field, a register or a
// constant, a MATCH scans its precompiled outcomes and continues in the block
// specialised on the first that matches, and every op adds the number of source
// instructions it stands for, so a clean execution performs no allocation
// and no map lookups. It returns the executed source-instruction count (the
// per-packet latency, one instruction per cycle) and the drop flag; an error
// reports the count up to and including the failing instruction.
// Register-array state accumulates across calls; executed MATCH instructions
// accumulate in matchCount until the next Run.
//
//dvet:hotpath allocs=0
func (m *ISAMachine) ExecSlots(pkt []int64) (executed int, dropped bool, err error) {
	low := m.low
	f := m.frame
	// A packet is a handful of words: a loop beats the call into memmove.
	fields := f[:low.regBase]
	pkt = pkt[:len(fields)]
	for i, v := range pkt {
		fields[i] = v
	}
	for _, r := range low.zero {
		f[r] = 0
	}
	code := low.code
	pc := low.entry
	for {
		o := &code[pc]
		executed += int(o.retire)
		pc++
		switch o.op {
		case OpLoadImm, OpLoadField, OpStoreField:
			f[o.dst] = f[o.a] & o.x
		case OpALU:
			f[o.dst] = aluEvalW(o.aop, aluWidths[o.bits], f[o.a], f[o.b])
		case opAdd:
			f[o.dst] = (f[o.a] + f[o.b]) & o.x
		case OpLoadReg:
			cells := m.regBanks[o.b]
			f[o.dst] = cells[wrap(f[o.a], len(cells))]
		case opLoadRegMask:
			cells := m.regBanks[o.b]
			f[o.dst] = cells[f[o.a]&int64(len(cells)-1)]
		case OpStoreReg:
			cells := m.regBanks[o.dst]
			cells[wrap(f[o.a], len(cells))] = f[o.b] & o.x
		case opStoreRegMask:
			cells := m.regBanks[o.dst]
			cells[f[o.a]&int64(len(cells)-1)] = f[o.b] & o.x
		case OpMatch:
			m.matchCount[o.a]++
			// The table's last outcome — the default, or the miss — matches
			// every packet.
			for k := int(o.x); ; k++ {
				if e := &low.outcomes[k]; f[e.field]&e.mask == e.key {
					pc = e.block
					break
				}
			}
		case OpBZ:
			if f[o.a] == 0 {
				pc = int32(o.x)
			}
		case OpBNZ:
			if f[o.a] != 0 {
				pc = int32(o.x)
			}
		case OpJmp:
			pc = int32(o.x)
		case OpDrop:
			dropped = true
			f[o.dst] = 1
		case OpHalt:
			for i, v := range fields {
				pkt[i] = v
			}
			return executed, dropped, nil
		case opFail:
			copy(pkt, fields)
			return executed, dropped, low.errs[o.x]
		}
	}
}

// wrap wraps a register-array index into a bank of n >= 1 cells.
func wrap(idx int64, n int) int64 {
	r := idx % int64(n)
	if r < 0 {
		r += int64(n)
	}
	return r
}

// wrapIndex wraps a register-array index like the table-level machine
// (hash-indexed register array semantics).
func wrapIndex(idx int64, n int) int {
	if n == 0 {
		return 0
	}
	return int(wrap(idx, n))
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
