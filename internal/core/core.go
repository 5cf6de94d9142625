// Package core implements Druzhba's RMT machine model (§2.3 of the paper):
// a feedforward pipeline of stages, each containing stateless and stateful
// ALUs, input multiplexers that feed PHV container values to ALU operands,
// and output multiplexers that select one result per PHV container.
//
// A Pipeline is built from a hardware Spec (pipeline depth and width plus
// ALU descriptions in the ALU DSL) and a machine code program, at one of
// four optimization levels — Fig. 6 of the paper and one step past it:
//
//   - Unoptimized: machine code values are looked up in a hash table and
//     dispatched on at every execution (version 1);
//   - SCCPropagation: every helper specialised to its machine code value
//     (version 2);
//   - SCCInlining: helper calls additionally inlined (version 3);
//   - Compiled: the ALU bodies as straight-line three-address code, the role
//     the Rust compiler plays for the paper's generated pipeline
//     descriptions, without leaving the process.
//
// Versions 2 and 3 are source shapes dgen emits (package codegen, through
// package opt). In process, every level above Unoptimized builds one
// pipeline: each ALU's program as written, its machine code read once, and
// the lowering to flat code (fuse.go) takes each builtin's choice as SCC
// propagation would. It folds nothing, so a lowered program's width is only
// in its truncated literals; the fuzzer's oracle folds operations on
// constants at its width (flat.Optimize), as SCC propagation and inlining
// would. The three stay levels because campaign matrices and reports name
// them.
//
// Build does each piece of work once and copies nothing it does not keep.
// The machine code is read in one pass over RequiredPairs order (Spec.Read:
// each name formatted into one reused buffer, looked up and range-checked
// once, its value kept by position), and validation, the mux table and
// every ALU's holes come from that pass.
//
// The package executes one PHV through the dataflow of the pipeline; the
// tick-accurate simulation loop (read/write PHV halves, one stage per tick)
// lives in package sim.
//
// # Two executors
//
// The AST interpreter serves Unoptimized alone: ExecuteStage runs every ALU
// of a stage through aludsl.Run, each program as written, its holes and muxes
// resolved through the machine code's hash table at every execution, and
// returns every failure as an error. It accepts every pipeline, is the
// reference the flat programs are tested against, and runs verify's
// counterexample replay.
//
// The levels above Unoptimized are Prechecked: every mux selection is a
// build-time constant and the whole grid is proved total with its machine
// code (Spec.CheckLower), so they run flat register programs (fuse.go,
// package flat): one lowering, over a range of stages and the ALUs a liveness
// keeps, each ALU body inline and the muxes reduced to register renaming.
//
//   - The stage programs, one a stage with every stateful ALU and every
//     stateless one the stage's output muxes select, are what ExecuteStage
//     runs; the state lives in their frames. They are built the first time
//     the pipeline executes or its state is touched (Prepare), once for it
//     and its clones, so dsim, ddbg, sim.Stream and sim.Run see every
//     stateful ALU's state advance.
//   - The output cone (Cone), lowered by Build, holds the ALUs a backward
//     liveness pass over the baked muxes (MuxTable.Live) finds able to reach
//     an output container: 33 of 198 across the Table-1 fixtures
//     (blue-decrease 2/16, blue-increase 1/16, sampling 2/4, marple-new-flow
//     2/8, marple-tcp-nmo 2/12, snap-heavy-hitter 1/2, stateful-firewall
//     4/40, flowlets 4/40, learn-filter 9/30, rcp 4/18, conga 1/10,
//     spam-detection 1/2). It computes the same output PHVs and does not
//     simulate the state no container can observe, so only the fuzzer
//     (sim.NewFuzzer), which never reads state, runs it; a fuzz cell never
//     builds the stage programs.
//   - The grid (FuseGrid) keeps every ALU; sim.Batch runs it.
//   - Spec.Lower is the lowering with no Pipeline built, over whichever ALUs
//     a MuxTable.Live selection keeps: the cone verify lowers once at its
//     widest width and proves, the specification linked after it, with
//     flat.Sym on a frame of each cell's width.
package core

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"druzhba/internal/aludsl"
	"druzhba/internal/machinecode"
	"druzhba/internal/phv"
)

// OptLevel selects the pipeline-generation optimization level.
type OptLevel int

const (
	// Unoptimized treats machine code as runtime variables (Fig. 6 v1).
	Unoptimized OptLevel = iota
	// SCCPropagation names Fig. 6's version 2, SCC propagation.
	SCCPropagation
	// SCCInlining names version 3, SCC propagation then inlining.
	SCCInlining
	// Compiled is an extension beyond the paper's three levels: the fused
	// program (Cone, FuseGrid) carries every ALU body as straight-line code.
	// Every level above Unoptimized builds that pipeline.
	Compiled
)

// AllLevels lists the paper's three levels plus the Compiled extension.
func AllLevels() []OptLevel {
	return []OptLevel{Unoptimized, SCCPropagation, SCCInlining, Compiled}
}

func (l OptLevel) String() string {
	switch l {
	case Unoptimized:
		return "unoptimized"
	case SCCPropagation:
		return "scc"
	case SCCInlining:
		return "scc+inline"
	case Compiled:
		return "compiled"
	default:
		return fmt.Sprintf("OptLevel(%d)", int(l))
	}
}

// ParseLevel parses an optimization level name: the paper's three levels
// plus Compiled.
func ParseLevel(name string) (OptLevel, error) {
	switch name {
	case "unoptimized", "v1", "0":
		return Unoptimized, nil
	case "scc", "v2", "1":
		return SCCPropagation, nil
	case "scc+inline", "inline", "v3", "2":
		return SCCInlining, nil
	case "compiled", "v4", "3":
		return Compiled, nil
	default:
		return 0, fmt.Errorf("unknown optimization level %q (want unoptimized, scc, scc+inline or compiled)", name)
	}
}

// Spec describes the hardware configuration handed to dgen: the pipeline
// dimensions and the ALU descriptions (§3.1, "the depth and width of the
// pipeline, a high-level representation of the ALU structure").
type Spec struct {
	Depth int // number of pipeline stages
	Width int // ALUs of each kind per stage

	// PHVLen is the number of PHV containers; 0 means Width.
	PHVLen int

	// Bits is the datapath width; the zero value means 32 bits.
	Bits phv.Width

	// StatefulALU and StatelessALU are the ALU DSL programs instantiated in
	// every stage. StatefulALU may be nil for a stateless-only pipeline.
	StatefulALU  *aludsl.Program
	StatelessALU *aludsl.Program
}

// Normalize returns the spec with its defaults applied (PHVLen 0 means
// Width, an unset Bits means 32) or the reason it describes no pipeline.
// Every consumer of a Spec defaults it through here, never by hand.
func (s *Spec) Normalize() (Spec, error) {
	n := *s
	if n.Depth < 1 {
		return n, fmt.Errorf("core: pipeline depth %d < 1", n.Depth)
	}
	if n.Width < 1 {
		return n, fmt.Errorf("core: pipeline width %d < 1", n.Width)
	}
	if n.PHVLen == 0 {
		n.PHVLen = n.Width
	}
	if n.PHVLen < 1 {
		return n, fmt.Errorf("core: PHV length %d < 1", n.PHVLen)
	}
	if !n.Bits.Valid() {
		n.Bits = phv.Default32
	}
	if n.StatelessALU == nil {
		return n, errors.New("core: Spec.StatelessALU is required")
	}
	if n.StatelessALU.Kind != aludsl.Stateless {
		return n, fmt.Errorf("core: Spec.StatelessALU %q is not stateless", n.StatelessALU.Name)
	}
	if n.StatefulALU != nil && n.StatefulALU.Kind != aludsl.Stateful {
		return n, fmt.Errorf("core: Spec.StatefulALU %q is not stateful", n.StatefulALU.Name)
	}
	return n, nil
}

// HoleSpec describes one machine code pair the pipeline requires.
type HoleSpec struct {
	Name   string
	Domain int // number of valid values; 0 means unbounded (immediates)
}

// RequiredPairs enumerates every machine code pair a pipeline built from the
// spec consumes, in a deterministic order (stage-major, stateless before
// stateful, operand muxes before ALU holes, output muxes last per stage).
func (s *Spec) RequiredPairs() ([]HoleSpec, error) {
	n, err := s.Normalize()
	if err != nil {
		return nil, err
	}
	return n.requiredPairs(), nil
}

// requiredPairs is RequiredPairs on a normalized spec: pairs' names made
// as strings, for the callers that keep them.
func (s *Spec) requiredPairs() []HoleSpec {
	out := make([]HoleSpec, 0, s.numPairs())
	s.pairs(func(name []byte, domain int) {
		out = append(out, HoleSpec{Name: string(name), Domain: domain})
	})
	return out
}

// pairs visits a normalized spec's pairs in RequiredPairs order, each with
// its name and domain: the one place the pairs' names are made. The name is
// formatted into one reused buffer and is valid only during the call.
func (s *Spec) pairs(visit func(name []byte, domain int)) {
	var buf [64]byte
	name := buf[:0]
	s.walk(func(si, slot int, p *aludsl.Program) {
		stateful := p.Kind == aludsl.Stateful
		for op := 0; op < p.NumOperands(); op++ {
			name = machinecode.AppendOperandMuxName(name[:0], si, stateful, slot, op)
			visit(name, s.PHVLen)
		}
		for _, h := range p.Holes {
			name = machinecode.AppendALUHoleName(name[:0], si, stateful, slot, h.Name)
			visit(name, h.Domain)
		}
	}, func(si int) {
		for c := 0; c < s.PHVLen; c++ {
			name = machinecode.AppendOutputMuxName(name[:0], si, c)
			visit(name, s.latches()+1) // 0 = pass-through, 1..latches = the stage's ALUs
		}
	})
}

// numPairs is the number of pairs RequiredPairs names.
func (s *Spec) numPairs() int {
	perALU := func(p *aludsl.Program) int {
		if p == nil {
			return 0
		}
		return p.NumOperands() + len(p.Holes)
	}
	return s.Depth * (s.Width*(perALU(s.StatelessALU)+perALU(s.StatefulALU)) + s.PHVLen)
}

// latches is the number of ALUs in a stage: Width stateless ones, then Width
// stateful ones if the spec has a stateful ALU.
func (s *Spec) latches() int {
	if s.StatefulALU != nil {
		return 2 * s.Width
	}
	return s.Width
}

// walk visits a normalized spec's primitives in RequiredPairs order: per
// stage, every ALU in latch order (stateless slots, then stateful ones), then
// the stage's output muxes.
func (s *Spec) walk(alu func(si, slot int, p *aludsl.Program), outputs func(si int)) {
	for si := 0; si < s.Depth; si++ {
		for _, p := range []*aludsl.Program{s.StatelessALU, s.StatefulALU} {
			for slot := 0; p != nil && slot < s.Width; slot++ {
				alu(si, slot, p)
			}
		}
		outputs(si)
	}
}

// Code is machine code read against a spec by Spec.Read: every pair
// RequiredPairs names, looked up and range-checked once, with its value kept
// by position. It keeps no names. A missing pair reads 0.
type Code struct {
	Muxes *MuxTable   // every mux selection
	ALUs  [][]ALUCode // ALUs[stage][latch]
	// Errs is what Validate reports: one error per missing pair or
	// out-of-range value, in RequiredPairs order.
	Errs []error
}

// ALUCode is one ALU's share of the machine code. Its operand mux
// selections are in Code.Muxes.
type ALUCode struct {
	Prog  *aludsl.Program
	Holes []int64 // the values of Prog's holes, in Holes order
}

// Hole returns the value of the ALU-local hole name, an aludsl.HoleLookup.
func (a *ALUCode) Hole(local string) (int64, bool) {
	for i, h := range a.Prog.Holes {
		if h.Name == local {
			return a.Holes[i], true
		}
	}
	return 0, false
}

// Read reads machine code against the spec in one pass in RequiredPairs
// order: each pair's name is formatted into one reused buffer, looked up and
// range-checked once, and its value kept by position. A name becomes a
// string only for an error. A spec error is returned as the error; the
// code's errors are in Code.Errs.
func (s *Spec) Read(code *machinecode.Program) (*Code, error) {
	n, err := s.Normalize()
	if err != nil {
		return nil, err
	}
	return n.read(code), nil
}

// read is Read on a normalized spec. Its allocations do not depend on the
// number of pairs: the ALUs' hole values and the mux selections are windows
// of one backing array of values, and the stages' ALUs and operand muxes
// share one each.
func (s *Spec) read(code *machinecode.Program) *Code {
	np, latches := s.numPairs(), s.latches()
	vals := make([]int64, 0, np)
	c := &Code{
		Muxes: &MuxTable{Output: make([][]int64, s.Depth), Operand: make([][][]int64, s.Depth)},
		ALUs:  make([][]ALUCode, s.Depth),
	}
	s.pairs(func(name []byte, domain int) {
		v, ok := code.GetBytes(name)
		switch {
		case !ok:
			c.Errs = append(c.Errs, fmt.Errorf("core: missing machine code pair %q", name))
		case domain > 0 && (v < 0 || v >= int64(domain)):
			c.Errs = append(c.Errs, fmt.Errorf("core: machine code pair %q = %d out of range [0,%d)", name, v, domain))
		}
		vals = append(vals, v)
	})
	alus, operands := make([]ALUCode, s.Depth*latches), make([][]int64, s.Depth*latches)
	for si := range c.ALUs {
		lo, hi := si*latches, (si+1)*latches
		c.ALUs[si], c.Muxes.Operand[si] = alus[lo:lo:hi], operands[lo:lo:hi]
	}
	at := 0
	next := func(k int) (lo, hi int) {
		lo, at = at, at+k
		return lo, at
	}
	s.walk(func(si, slot int, p *aludsl.Program) {
		ops, opsEnd := next(p.NumOperands())
		holes, holesEnd := next(len(p.Holes))
		c.Muxes.Operand[si] = append(c.Muxes.Operand[si], vals[ops:opsEnd:opsEnd])
		c.ALUs[si] = append(c.ALUs[si], ALUCode{Prog: p, Holes: vals[holes:holesEnd:holesEnd]})
	}, func(si int) {
		lo, hi := next(s.PHVLen)
		c.Muxes.Output[si] = vals[lo:hi:hi]
	})
	return c
}

// Validate checks a machine code program against the spec, returning one
// error per missing pair or out-of-range value in RequiredPairs order: Read's
// Code.Errs. A nil slice means the code is compatible with the pipeline.
func (s *Spec) Validate(code *machinecode.Program) []error {
	c, err := s.Read(code)
	if err != nil {
		return []error{err}
	}
	return c.Errs
}

// compiledALU is one ALU of an Unoptimized pipeline: its program, run by the
// AST interpreter, with every machine code name it reads at each execution.
type compiledALU struct {
	prog         *aludsl.Program
	operandNames []string
	env          aludsl.Env // env.State is the ALU's state
}

// stage is one stage of an Unoptimized pipeline.
type stage struct {
	alus        []*compiledALU // indexed by latch slot: stateless ALUs, then stateful ones
	outputNames []string
	latch       []phv.Value // latch[i] holds the last result of alus[i]
}

// Pipeline is an executable pipeline description: the output of dgen, ready
// for simulation by dsim.
type Pipeline struct {
	spec  Spec
	level OptLevel
	code  *machinecode.Program

	// Unoptimized: the interpreter's ALUs, stage by stage.
	stages []*stage

	// Prechecked: the machine code as read, the fused output cone, the stage
	// programs (shared with clones, built on first use) and this pipeline's
	// frames, one per stage program, which hold its stateful ALU state; nil
	// until the pipeline first executes or its state is touched.
	read   *Code
	cone   *Fused
	progs  *stagePrograms
	frames [][]int64
}

// stagePrograms are a prechecked pipeline's stages, one fused program each.
type stagePrograms struct {
	once sync.Once
	f    []*Fused
}

// Build compiles a spec and machine code into an executable pipeline at the
// given optimization level. The machine code is read in one pass (Spec.Read)
// and validated first; incompatible machine code (missing pairs, out-of-range
// values) fails the build. At the optimized levels the whole grid is then
// proved total with its machine code (Spec.CheckLower) and the output cone
// lowered; the stage programs wait until the pipeline first executes.
func Build(s Spec, code *machinecode.Program, level OptLevel) (*Pipeline, error) {
	n, err := s.Normalize()
	if err != nil {
		return nil, err
	}
	c := n.read(code)
	if len(c.Errs) > 0 {
		return nil, errors.Join(c.Errs...)
	}
	switch {
	case level == Unoptimized:
		return build(n, code), nil
	case level < Unoptimized || level > Compiled:
		return nil, fmt.Errorf("core: unknown optimization level %v", level)
	}
	// The trust boundary: nothing downstream guards evaluation of a
	// caller-supplied AST.
	if err := n.CheckLower(c, n.grid()); err != nil {
		return nil, err
	}
	cone, err := lower(n, c, c.Muxes.Live(slices.Repeat([]bool{true}, n.PHVLen), nil), 0, n.Depth)
	if err != nil {
		return nil, err
	}
	return &Pipeline{spec: n, level: level, code: code, read: c, cone: cone, progs: &stagePrograms{}}, nil
}

// BuildUnchecked is Build without machine code validation: missing pairs
// surface as runtime execution errors instead (the behaviour of the paper's
// original dsim, which consumed machine code at runtime; the §5.2 case study
// hit exactly this failure class). Only the Unoptimized level can be built
// unchecked, since the others read every value at build time.
func BuildUnchecked(s Spec, code *machinecode.Program) (*Pipeline, error) {
	n, err := s.Normalize()
	if err != nil {
		return nil, err
	}
	return build(n, code), nil
}

// build lays out an Unoptimized pipeline: every ALU with the names of its
// operand muxes and holes, which it resolves through the machine code at run
// time, in RequiredPairs order.
func build(n Spec, code *machinecode.Program) *Pipeline {
	p := &Pipeline{spec: n, level: Unoptimized, code: code}
	names := make([]string, 0, n.numPairs())
	n.pairs(func(name []byte, _ int) { names = append(names, string(name)) })
	next := func(k int) []string {
		out := names[:k:k]
		names = names[k:]
		return out
	}
	p.stages = make([]*stage, n.Depth)
	for si := range p.stages {
		st := &stage{alus: make([]*compiledALU, n.latches()), latch: make([]phv.Value, n.latches())}
		for latch := range st.alus {
			prog := n.StatelessALU
			if latch >= n.Width {
				prog = n.StatefulALU
			}
			operands, holes := next(prog.NumOperands()), next(len(prog.Holes))
			globals := make(map[string]string, len(holes))
			for i, h := range prog.Holes {
				globals[h.Name] = holes[i]
			}
			// Version-1 semantics: every hole reference performs hash
			// lookups at execution time.
			lookup := func(local string) (int64, bool) {
				global, ok := globals[local]
				if !ok {
					return 0, false
				}
				return code.Get(global)
			}
			st.alus[latch] = newALU(prog, operands, n.Bits, lookup)
		}
		st.outputNames = next(n.PHVLen)
		p.stages[si] = st
	}
	return p
}

// grid is a liveness that keeps every ALU of the spec's grid.
func (s *Spec) grid() [][]bool {
	live := make([][]bool, s.Depth)
	for si := range live {
		live[si] = slices.Repeat([]bool{true}, s.latches())
	}
	return live
}

// Spec returns the (normalized) spec the pipeline was built from.
func (p *Pipeline) Spec() Spec { return p.spec }

// Level returns the pipeline's optimization level.
func (p *Pipeline) Level() OptLevel { return p.level }

// Depth returns the number of stages.
func (p *Pipeline) Depth() int { return p.spec.Depth }

// PHVLen returns the number of PHV containers the pipeline expects.
func (p *Pipeline) PHVLen() int { return p.spec.PHVLen }

// Bits returns the datapath width.
func (p *Pipeline) Bits() phv.Width { return p.spec.Bits }

// Clone returns a deep copy of the pipeline that shares every immutable
// build product — the read machine code, the fused cone, the stage programs
// and the machine code program — but owns fresh mutable execution state:
// stateful ALU state (copied from the receiver) and, at Unoptimized, operand
// scratch buffers and per-stage output latches. A clone may execute
// concurrently with the original and with other clones.
func (p *Pipeline) Clone() *Pipeline {
	q := &Pipeline{spec: p.spec, level: p.level, code: p.code, read: p.read, cone: p.cone, progs: p.progs}
	for _, st := range p.stages {
		alus := make([]*compiledALU, len(st.alus))
		for i, a := range st.alus {
			alus[i] = newALU(a.prog, a.operandNames, a.env.Width, a.env.Holes)
		}
		q.stages = append(q.stages, &stage{alus: alus, outputNames: st.outputNames, latch: make([]phv.Value, len(st.latch))})
	}
	// A prechecked pipeline that never executed holds zero state, and is not
	// to be written to here: clones of one master are made concurrently.
	if p.progs == nil || p.frames != nil {
		for si := range p.spec.Depth {
			for slot := range p.stateful() {
				copy(q.state(si, slot), p.state(si, slot))
			}
		}
	}
	return q
}

// newALU returns an Unoptimized ALU running prog with its own operand buffer
// and zero state. The names and the hole lookup are read-only after build, so
// clones share them.
func newALU(prog *aludsl.Program, operandNames []string, w phv.Width, holes aludsl.HoleLookup) *compiledALU {
	return &compiledALU{prog: prog, operandNames: operandNames, env: aludsl.Env{
		Width:    w,
		Operands: make([]phv.Value, prog.NumOperands()),
		State:    make([]phv.Value, prog.NumState()),
		Holes:    holes,
	}}
}

// MuxTable is a pipeline's mux selections as build-time constants, the form
// SCC propagation leaves them in (Spec.Read fills it). ALUs are named by
// latch slot: stateless ALU k of a stage is latch k, stateful ALU k is latch
// Width+k.
type MuxTable struct {
	// Output[stage][container] is the container's output mux selection: 0
	// passes the stage's input container through, sel > 0 reads latch sel-1.
	Output [][]int64
	// Operand[stage][latch][op] is the input container the ALU's operand
	// mux op selects.
	Operand [][][]int64
}

// Live is the backward liveness pass over baked muxes: live[stage][latch]
// reports whether the ALU's result can reach a container of out at the
// pipeline's output, or the ALU is pinned (pinned may be nil; the verifier
// pins the ALUs whose state it compares). An output mux selecting 0 keeps
// its container live one stage upstream, a selected ALU becomes live, and a
// live ALU makes its operand-mux containers live upstream; ALU bodies are
// not inspected. A stateful ALU's state depends on nothing but its own
// operands, so the live set is closed under state as well.
func (m *MuxTable) Live(out []bool, pinned [][]bool) [][]bool {
	live := make([][]bool, len(m.Output))
	cur := append([]bool(nil), out...) // containers read downstream of the current stage
	upstream := make([]bool, len(out))
	for si := len(m.Output) - 1; si >= 0; si-- {
		selected := make([]bool, len(m.Operand[si]))
		if pinned != nil {
			copy(selected, pinned[si])
		}
		clear(upstream)
		for c, sel := range m.Output[si] {
			switch {
			case !cur[c]:
			case sel == 0:
				upstream[c] = true
			default:
				selected[sel-1] = true
			}
		}
		for latch, ops := range m.Operand[si] {
			if !selected[latch] {
				continue
			}
			for _, c := range ops {
				upstream[c] = true
			}
		}
		live[si] = selected
		cur, upstream = upstream, cur
	}
	return live
}

// Prepare makes the pipeline ready to execute stage by stage, so that its
// first ExecuteStage allocates nothing: at a prechecked level it builds the
// stage programs, once for the pipeline and its clones, and lays out this
// pipeline's frames. ExecuteStage and the state accessors call it themselves.
func (p *Pipeline) Prepare() {
	if p.progs == nil || p.frames != nil {
		return
	}
	p.progs.once.Do(func() { p.progs.f = lowerStages(p.spec, p.read) })
	p.frames = make([][]int64, len(p.progs.f))
	for si, f := range p.progs.f {
		p.frames[si] = f.NewFrame()
	}
}

// stateful is the number of stateful ALUs a stage holds.
func (p *Pipeline) stateful() int { return p.spec.latches() - p.spec.Width }

// state returns the state vector of the stateful ALU at (stage si, slot), in
// place: the interpreter's own at Unoptimized, its registers in the stage's
// frame at a prechecked level. Every reader and writer of pipeline state goes
// through it.
func (p *Pipeline) state(si, slot int) []phv.Value {
	if p.progs == nil {
		return p.stages[si].alus[p.spec.Width+slot].env.State
	}
	p.Prepare()
	r, k := p.progs.f[si].StateReg(si, slot), p.spec.StatefulALU.NumState()
	return p.frames[si][r : r+k : r+k]
}

// ResetState zeroes every stateful ALU's state vector.
func (p *Pipeline) ResetState() {
	for si := 0; si < p.spec.Depth; si++ {
		for slot := 0; slot < p.stateful(); slot++ {
			clear(p.state(si, slot))
		}
	}
}

// SetState overwrites the state vector of the stateful ALU at (stage, slot).
func (p *Pipeline) SetState(stageIdx, slot int, vals []phv.Value) error {
	if stageIdx < 0 || stageIdx >= p.spec.Depth {
		return fmt.Errorf("core: stage %d out of range", stageIdx)
	}
	if slot < 0 || slot >= p.stateful() {
		return fmt.Errorf("core: stateful ALU %d out of range in stage %d", slot, stageIdx)
	}
	state := p.state(stageIdx, slot)
	if len(vals) != len(state) {
		return fmt.Errorf("core: state length %d != %d", len(vals), len(state))
	}
	for i, v := range vals {
		state[i] = p.spec.Bits.Trunc(v)
	}
	return nil
}

// StateSnapshot copies every stateful ALU's state, indexed
// [stage][slot][state variable].
func (p *Pipeline) StateSnapshot() phv.StateSnapshot {
	snap := make(phv.StateSnapshot, p.spec.Depth)
	for si := range snap {
		snap[si] = make([][]phv.Value, p.stateful())
		for slot := range snap[si] {
			snap[si][slot] = append([]phv.Value(nil), p.state(si, slot)...)
		}
	}
	return snap
}

// Prechecked reports whether Build proved execution total: every mux
// selection validated and baked, every ALU program passed through
// aludsl.CheckTotal with its machine code, so no execution of the pipeline
// can fail. True for every optimized level — the pipelines that run as flat
// programs; false for Unoptimized, whose version-1 semantics resolve machine
// code through the hash table at each execution and can therefore fail at
// run time (the BuildUnchecked path).
func (p *Pipeline) Prechecked() bool { return p.level != Unoptimized }

// ExecuteStage runs stage si on the input container values, writing the
// stage's result into out (len(in) == len(out) == PHVLen). Stateful ALU
// state is mutated.
//
// At Unoptimized it is the deliberately naive reference: the AST interpreter,
// each mux resolved through the machine-code table on every execution — the
// paper's version-1 semantics, written to be read, not to be fast; do not
// optimize it. At a prechecked level it copies in into the stage program's
// frame, runs it and reads out back, which cannot fail.
func (p *Pipeline) ExecuteStage(si int, in, out []phv.Value) error {
	if si < 0 || si >= p.spec.Depth {
		return fmt.Errorf("core: stage %d out of range", si)
	}
	if p.progs != nil {
		p.Prepare()
		f, frame := p.progs.f[si], p.frames[si]
		copy(f.Inputs(frame), in)
		f.Run(frame)
		for c, r := range f.Out() {
			out[c] = frame[r]
		}
		return nil
	}
	st := p.stages[si]
	for i, a := range st.alus {
		v, err := p.runALU(a, in)
		if err != nil {
			return err
		}
		st.latch[i] = v
	}
	for c, name := range st.outputNames {
		v, ok := p.code.Get(name)
		if !ok {
			return fmt.Errorf("core: missing machine code pair %q", name)
		}
		switch sel := int(v); {
		case sel == 0:
			out[c] = in[c]
		case sel >= 1 && sel <= len(st.latch):
			out[c] = st.latch[sel-1]
		default:
			return fmt.Errorf("core: output mux for stage %d container %d selects %d, out of range", si, c, sel)
		}
	}
	return nil
}

func (p *Pipeline) runALU(a *compiledALU, in []phv.Value) (phv.Value, error) {
	for op, name := range a.operandNames {
		v, ok := p.code.Get(name)
		if !ok {
			return 0, fmt.Errorf("core: missing machine code pair %q", name)
		}
		if v < 0 || int(v) >= len(in) {
			return 0, fmt.Errorf("core: %q = %d out of range [0,%d)", name, v, len(in))
		}
		a.env.Operands[op] = in[v]
	}
	return aludsl.Run(a.prog, &a.env)
}

// Process runs one PHV through every stage in dataflow order, returning the
// transformed PHV values. This is equivalent to the tick-accurate simulation
// for a single PHV (state updates commit between stages either way); package
// sim provides the tick-level loop for full traces.
func (p *Pipeline) Process(in *phv.PHV) (*phv.PHV, error) {
	if in.Len() != p.spec.PHVLen {
		return nil, fmt.Errorf("core: PHV has %d containers, pipeline expects %d", in.Len(), p.spec.PHVLen)
	}
	cur := in.Values()
	next := make([]phv.Value, len(cur))
	for si := range p.spec.Depth {
		if err := p.ExecuteStage(si, cur, next); err != nil {
			return nil, err
		}
		cur, next = next, cur
	}
	return phv.FromValues(cur), nil
}
