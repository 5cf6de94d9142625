// fuse.go turns a prechecked pipeline, or a range of its stages, into one flat
// register program (see the package comment): muxes become register
// renaming, and only the ALUs a liveness keeps are emitted, each lowered
// inline from its program as written, a builtin call as the choice its
// machine code makes. Nothing is folded: an operation on constants is emitted
// as written, so the width enters a lowered program only through its
// truncated literals, and flat.Optimize folds what runs.
package core

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"druzhba/internal/aludsl"
	"druzhba/internal/flat"
	"druzhba/internal/machinecode"
	"druzhba/internal/phv"
)

// Fused is a prechecked pipeline, or a range of its stages, as one flat
// program, plus where the containers and state live in its frame. It is
// shared, and immutable but for Linked's memo; all mutable state — stateful
// ALU state included — is in the frame each runner owns (NewFrame; Reset
// zeroes the state again), and Run cannot fail: Build proved every ALU
// program total and flat checked the program.
// Build fuses the output cone (Pipeline.Cone, what a fuzzer executes);
// FuseGrid fuses the whole grid, and ExecuteStage runs one program a stage.
type Fused struct {
	*flat.Program
	width, phvLen int
	in            int      // register of input container 0; the rest follow
	out           []int    // out[c]: the register holding output container c after Run
	state         [][]int  // state[stage][slot]: first state register of the stateful ALU, -1 when it is not in the program
	live          [][]bool // live[stage][latch]: the ALU is in the program

	mu     sync.Mutex
	linked []*linkedEntry // Linked's memo: a specification or two per build
}

type linkedEntry struct {
	key, val any
	once     sync.Once
}

// Linked returns what link returns for key, calling link only the first time
// key is asked for (a concurrent caller waits for it): package sim links each
// specification after the cone once per build, and every fuzzer of the
// pipeline and its clones shares it.
func (f *Fused) Linked(key any, link func() any) any {
	f.mu.Lock()
	i := slices.IndexFunc(f.linked, func(e *linkedEntry) bool { return e.key == key })
	if i < 0 {
		i = len(f.linked)
		f.linked = append(f.linked, &linkedEntry{key: key})
	}
	e := f.linked[i]
	f.mu.Unlock()
	e.once.Do(func() { e.val = link() })
	return e.val
}

// Cone returns the pipeline's output cone as a fused program — only the ALUs
// whose results can reach a container of the output PHV, so the state of a
// stateful ALU no container can observe is not simulated — or nil when the
// pipeline is not Prechecked. Clones share it.
func (p *Pipeline) Cone() *Fused { return p.cone }

// FuseGrid fuses every ALU of the grid, so a frame carries the state of every
// stateful ALU; nil when the pipeline is not Prechecked.
func (p *Pipeline) FuseGrid() *Fused {
	if !p.Prechecked() {
		return nil
	}
	f, err := lower(p.spec, p.read, p.spec.grid(), 0, p.spec.Depth)
	if err != nil {
		panic(err) // Build proved the grid and fused the cone: the same lowering of the same programs
	}
	return f
}

// lowerStages lowers each stage of a prechecked pipeline on its own: its
// inputs are the stage's input PHV, its outputs the stage's output PHV. Every
// stateful ALU is kept, since its state is observable, and every stateless
// one an output mux of the stage selects.
func lowerStages(n Spec, c *Code) []*Fused {
	progs := make([]*Fused, n.Depth)
	for si := range progs {
		live := make([][]bool, n.Depth)
		live[si] = make([]bool, n.latches())
		for latch := range live[si] {
			live[si][latch] = latch >= n.Width || slices.Contains(c.Muxes.Output[si], int64(latch+1))
		}
		f, err := lower(n, c, live, si, si+1)
		if err != nil {
			panic(err) // Build proved the grid and fused the cone: the same lowering of the same programs
		}
		progs[si] = f
	}
	return progs
}

// Lower lowers the ALUs live keeps (MuxTable.Live over c.Muxes) into one flat
// program at the spec's width, straight from c, the machine code as the spec
// read it (Spec.Read): the lowering Build fuses with, with no Pipeline built.
// It refuses what CheckLower refuses. The width enters the program only
// through its truncated literals, so the program lowered at one width, on a
// narrower frame (flat.SymFrame cuts its constants), is the program lowered at
// the narrower one.
func (s *Spec) Lower(c *Code, live [][]bool) (*Fused, error) {
	if err := s.CheckLower(c, live); err != nil {
		return nil, err
	}
	n, _ := s.Normalize() // CheckLower normalized it
	return lower(n, c, live, 0, n.Depth)
}

// CheckLower reports why Lower would refuse c and live, at any width: a spec
// that describes no pipeline, machine code with errors, or a kept ALU whose
// program cannot be evaluated with it (aludsl.CheckTotal).
func (s *Spec) CheckLower(c *Code, live [][]bool) error {
	n, err := s.Normalize()
	if err != nil {
		return err
	}
	if len(c.Errs) > 0 {
		return errors.Join(c.Errs...)
	}
	for si, stage := range live {
		for latch, l := range stage {
			if !l {
				continue
			}
			a := &c.ALUs[si][latch]
			if err := aludsl.CheckTotal(a.Prog, a.Hole); err != nil {
				return fmt.Errorf("core: stage %d %s ALU %d: %w", si, machinecode.KindName(latch >= n.Width), latch%n.Width, err)
			}
		}
	}
	return nil
}

// lower is the one fusing loop: stage by stage over stages [lo, hi) it lowers
// the ALUs live keeps inline, each ALU's program as written with its holes
// read from c, and reduces the muxes to register renaming. The program's
// inputs are stage lo's input PHV, its outputs stage hi-1's output PHV.
func lower(n Spec, code *Code, live [][]bool, lo, hi int) (*Fused, error) {
	b := flat.NewBuilder(n.Bits)
	size := flat.Size{Regs: n.PHVLen + 4, Runs: 1} // the inputs, and room for a few constants
	for si := lo; si < hi; si++ {
		for a, l := range live[si] {
			if l {
				k := emits(code.ALUs[si][a].Prog.Body)
				size.Regs, size.Instrs = size.Regs+k+code.ALUs[si][a].Prog.NumState(), size.Instrs+k
				if a >= n.Width {
					size.Runs++ // the stateful ALU's state
				}
			}
		}
	}
	b.Reserve(size)
	f := &Fused{width: n.Width, phvLen: n.PHVLen, in: b.Regs("in", n.PHVLen), state: make([][]int, n.Depth), live: live}
	cur, next := make([]int, n.PHVLen), make([]int, n.PHVLen) // container -> register, -1 for a column nothing downstream reads
	for c := range cur {
		cur[c] = f.in + c
	}
	m := n.latches() - n.Width // stateful ALUs a stage
	latch, states := make([]int, n.latches()), slices.Repeat([]int{-1}, n.Depth*m)
	for si := range f.state {
		f.state[si] = states[si*m : (si+1)*m]
	}
	for si := lo; si < hi; si++ {
		for a, sel := range code.Muxes.Operand[si] {
			if latch[a] = -1; !live[si][a] {
				continue
			}
			l := aluLowering{b: b, w: n.Bits, alu: &code.ALUs[si][a], stage: si, latch: a, ops: make([]int, len(sel)), state: -1}
			for op, c := range sel {
				l.ops[op] = cur[c]
			}
			if slot := a - n.Width; slot >= 0 {
				l.state = b.Regs(fmt.Sprintf("s%d.%d.", si, slot), n.StatefulALU.NumState())
				f.state[si][slot] = l.state
			}
			latch[a] = l.inline()
		}
		for c, sel := range code.Muxes.Output[si] {
			if next[c] = cur[c]; sel != 0 {
				next[c] = latch[sel-1]
			}
		}
		cur, next = next, cur
	}
	f.out = cur
	var err error
	f.Program, err = b.Build()
	return f, err
}

// emits estimates what lowering the statements emits, so that lower can
// reserve it: an instruction per assignment and return, and three per if (a
// compare, the branch and a jump), each writing at most one register.
func emits(list []aludsl.Stmt) int {
	n := len(list)
	for _, s := range list {
		if s, ok := s.(*aludsl.If); ok {
			n += 2 + emits(s.Then) + emits(s.Else)
		}
	}
	return n
}

// Inputs returns the frame's input registers, one per container: write a
// packet there, then Run.
func (f *Fused) Inputs(frame []int64) []phv.Value {
	return frame[f.in : f.in+f.phvLen : f.in+f.phvLen]
}

// InputReg returns the register of input container c.
func (f *Fused) InputReg(c int) int { return f.in + c }

// Out returns, per output container, the register that holds it after Run —
// an input register where the container passed through every stage. The
// slice is shared; do not modify it.
func (f *Fused) Out() []int { return f.out }

// StateReg returns the first state register of the stateful ALU at (stage,
// slot), -1 when the program does not contain it; its state variables follow
// in order.
func (f *Fused) StateReg(stage, slot int) int { return f.state[stage][slot] }

// LoadState copies p's stateful ALU state into the frame, for the ALUs the
// program contains; StoreState copies it back. p must have the spec f was
// fused from: the pipeline itself, a clone, or a build at another level.
func (f *Fused) LoadState(frame []int64, p *Pipeline) {
	for si, row := range f.state {
		for slot, r := range row {
			if r >= 0 {
				copy(frame[r:], p.state(si, slot))
			}
		}
	}
}

// StoreState is the inverse of LoadState.
func (f *Fused) StoreState(frame []int64, p *Pipeline) {
	for si, row := range f.state {
		for slot, r := range row {
			if r >= 0 {
				copy(p.state(si, slot), frame[r:])
			}
		}
	}
}

// ALUCounts returns how many ALUs the program executes per PHV and how many
// the grid holds.
func (f *Fused) ALUCounts() (live, total int) {
	for _, stage := range f.live {
		for _, l := range stage {
			if total++; l {
				live++
			}
		}
	}
	return live, total
}

// Executes reports whether the program contains the ALU at (stage, kind,
// slot). Coordinates outside the grid report false.
func (f *Fused) Executes(stage int, stateful bool, slot int) bool {
	if stage < 0 || stage >= len(f.live) || slot < 0 || slot >= f.width {
		return false
	}
	if stateful {
		slot += f.width
	}
	return slot < len(f.live[stage]) && f.live[stage][slot]
}

// aluLowering lowers one live ALU, the program at (stage, latch) with its
// machine code alu: ops are the registers its operand muxes renamed, state its
// first state register, params the registers holding the arguments of the
// helper call whose body is being lowered.
type aluLowering struct {
	b            *flat.Builder
	w            phv.Width
	alu          *ALUCode
	stage, latch int
	ops          []int
	state        int
	params       []int
}

// inline lowers the body and returns the register holding the ALU's result:
// with a single return, at the end, whatever register the value already lives
// in; otherwise a register every return path writes, the implicit output —
// post-update state_0, or 0 for a stateless ALU — where the body falls off
// its end.
func (l *aluLowering) inline() int {
	body := l.alu.Prog.Body
	if n := len(body) - 1; n >= 0 {
		if last, ok := body[n].(*aludsl.Return); ok && !returns(body[:n]) {
			l.stmts(body[:n], -1, nil)
			return l.expr(last.Value, -1)
		}
	}
	res := l.b.Reg(fmt.Sprintf("r%d.%d", l.stage, l.latch), 0)
	var exits []int
	if !l.stmts(body, res, &exits) {
		if l.state >= 0 {
			l.b.Move(res, l.state)
		} else {
			l.b.Move(res, l.b.Const(0))
		}
	}
	l.b.Land(exits...)
	return res
}

// returns reports whether a Return occurs anywhere in the statements.
func returns(list []aludsl.Stmt) bool {
	for _, s := range list {
		switch s := s.(type) {
		case *aludsl.Return:
			return true
		case *aludsl.If:
			if returns(s.Then) || returns(s.Else) {
				return true
			}
		}
	}
	return false
}

// stmts lowers a statement list; a Return writes res and jumps to the exit
// (collected in exits). The result reports that control cannot fall off the
// end of the list.
func (l *aluLowering) stmts(list []aludsl.Stmt, res int, exits *[]int) (terminated bool) {
	for _, s := range list {
		switch s := s.(type) {
		case *aludsl.Assign:
			l.expr(s.RHS, l.state+s.LHS.Index)
		case *aludsl.Return:
			l.expr(s.Value, res)
			*exits = append(*exits, l.b.Jump())
			return true
		case *aludsl.If:
			toElse := l.b.Branch(flat.Jeq, l.expr(s.Cond, -1), l.b.Const(0))
			thenDone := l.stmts(s.Then, res, exits)
			if len(s.Else) == 0 {
				l.b.Land(toElse)
				continue
			}
			var toEnd []int
			if !thenDone {
				toEnd = append(toEnd, l.b.Jump())
			}
			l.b.Land(toElse)
			elseDone := l.stmts(s.Else, res, exits)
			l.b.Land(toEnd...)
			if thenDone && elseDone {
				return true
			}
		}
	}
	return false
}

// expr lowers an expression and returns the register holding its value: dst
// when dst >= 0, else wherever the value already lives (a leaf is a rename)
// or a fresh temporary. Only the last instruction writes dst, after every
// operand has been read, so dst may be a register the expression reads.
func (l *aluLowering) expr(e aludsl.Expr, dst int) int {
	switch e := e.(type) {
	case *aludsl.Num:
		return l.b.Move(dst, l.b.Const(l.w.Trunc(e.Value)))
	case *aludsl.Ident:
		switch e.Class {
		case aludsl.VarState:
			return l.b.Move(dst, l.state+e.Index)
		case aludsl.VarField:
			return l.b.Move(dst, l.ops[e.Index])
		case aludsl.VarParam:
			return l.b.Move(dst, l.params[e.Index])
		case aludsl.VarHole:
			return l.b.Move(dst, l.b.Const(l.w.Trunc(l.alu.Holes[e.Index])))
		}
	case *aludsl.Unary:
		zero := l.b.Const(0)
		if e.Op == aludsl.OpNeg {
			return l.b.Op(flat.Sub, dst, zero, l.expr(e.X, -1))
		}
		return l.b.Op(flat.Eq, dst, l.expr(e.X, -1), zero)
	case *aludsl.Binary:
		x := l.expr(e.X, -1)
		if e.Op == aludsl.OpAnd || e.Op == aludsl.OpOr {
			return l.b.Logic(e.Op == aludsl.OpOr, dst, x, func() int { return l.expr(e.Y, -1) })
		}
		return l.b.Op(flat.Op(e.Op), dst, x, l.expr(e.Y, -1))
	case *aludsl.HoleCall:
		// A selector lowers only the argument it picks, an operator both
		// operands, even to pass one through.
		mc := l.alu.Holes[e.Slot]
		ch, _ := e.Choose(mc)
		switch {
		case ch.Kind == aludsl.ChooseZero:
			return l.b.Move(dst, l.b.Const(0))
		case ch.Kind == aludsl.ChooseValue:
			return l.b.Move(dst, l.b.Const(l.w.Trunc(mc)))
		case !ch.Strict:
			return l.expr(e.Args[ch.Arg], dst)
		}
		x, y := l.expr(e.Args[0], -1), l.expr(e.Args[1], -1)
		switch {
		case ch.Kind == aludsl.ChooseArg:
			return l.b.Move(dst, [2]int{x, y}[ch.Arg])
		case ch.Op == aludsl.OpAnd || ch.Op == aludsl.OpOr:
			return l.b.Logic(ch.Op == aludsl.OpOr, dst, x, func() int { return y })
		}
		return l.b.Op(flat.Op(ch.Op), dst, x, y)
	case *aludsl.Call:
		// As the interpreter runs a helper call: every argument in the
		// caller's frame, then the body in a frame of those values.
		// Expressions have no effects, so the body reads the argument
		// registers unchanged.
		args := make([]int, len(e.Args))
		for i, a := range e.Args {
			args[i] = l.expr(a, -1)
		}
		caller := l.params
		l.params = args
		v := l.expr(e.Func.Body, dst)
		l.params = caller
		return v
	}
	// Build or Lower ran CheckTotal on this program with its machine code:
	// nothing else is left in it.
	panic(fmt.Sprintf("core: fuse: %s: cannot lower %T %v", l.alu.Prog.Name, e, e))
}
