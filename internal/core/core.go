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
// the lowering to flat code (fuse.go) takes each builtin's choice and folds
// constants as SCC propagation and inlining would. The three stay levels
// because campaign matrices and reports name them.
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
// ExecuteStage is the reference: it runs every ALU of a stage through the AST
// interpreter — each program as written, its holes read from the hash table
// at Unoptimized and by position from the read machine code above it — writes each
// result to the ALU's latch slot and lets the output muxes read the latches.
// It accepts every pipeline, and dsim, ddbg, sim.Stream, sim.Run and verify's
// counterexample replay all run on it, so they see every stateful ALU's
// state advance.
//
// The levels above Unoptimized are Prechecked: every mux selection is a
// build-time constant and every ALU program is proved total with its machine
// code, so dead-code elimination is the classic follow-on and Build fuses the
// pipeline into one flat register program (fuse.go, package flat), every ALU
// body lowered inline. Chipmunk-style machine code
// routes only a handful of a depth x width grid's ALUs to a container (33 of
// 198 across the Table-1 fixtures; blue-decrease 2/16, blue-increase 1/16,
// sampling 2/4, marple-new-flow 2/8, marple-tcp-nmo 2/12, snap-heavy-hitter
// 1/2, stateful-firewall 4/40, flowlets 4/40, learn-filter 9/30, rcp 4/18,
// conga 1/10, spam-detection 1/2): Cone is the program of the ALUs a
// backward liveness pass over the baked muxes (MuxTable.Live) finds able to
// reach an output container, with the muxes themselves reduced to register
// renaming. It computes the same output PHVs and skips the rest — the state
// of stateful ALUs that no container can observe is not simulated there — so
// only the fuzzer (sim.NewFuzzer), which compares output PHVs and never
// reads state, runs on it. FuseGrid is the same lowering with every ALU kept.
//
// Spec.Lower is that lowering with no Pipeline built, over whichever ALUs a
// MuxTable.Live selection keeps. It is not a third executor but the program
// package verify proves: flat.Sym of the compared cone, lowered once per
// question and width.
package core

import (
	"errors"
	"fmt"
	"slices"

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
// number of pairs: values and selections share one backing array each, as
// do the stages' ALUs and operand muxes.
func (s *Spec) read(code *machinecode.Program) *Code {
	np, latches := s.numPairs(), s.latches()
	vals, sels := make([]int64, 0, np), make([]int, 0, np)
	c := &Code{
		Muxes: &MuxTable{Output: make([][]int, s.Depth), Operand: make([][][]int, s.Depth)},
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
		vals, sels = append(vals, v), append(sels, int(v))
	})
	alus, operands := make([]ALUCode, s.Depth*latches), make([][]int, s.Depth*latches)
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
		c.Muxes.Operand[si] = append(c.Muxes.Operand[si], sels[ops:opsEnd:opsEnd])
		c.ALUs[si] = append(c.ALUs[si], ALUCode{Prog: p, Holes: vals[holes:holesEnd:holesEnd]})
	}, func(si int) {
		lo, hi := next(s.PHVLen)
		c.Muxes.Output[si] = sels[lo:hi:hi]
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

// compiledALU is one ALU instance placed at (stage, slot).
type compiledALU struct {
	prog     *aludsl.Program
	stage    int
	slot     int
	stateful bool
	numOps   int

	// latch is the ALU's index in its stage's alus and latch slices:
	// stateless ALUs occupy [0, Width), stateful ones [Width, 2*Width), so
	// an output mux selection sel > 0 reads latch[sel-1].
	latch int

	// Unoptimized engine: names resolved through the machine code map at
	// every execution.
	operandMuxNames []string
	localToGlobal   map[string]string

	// Optimized engines: selections baked at build time.
	operandMux []int

	state []phv.Value
	env   aludsl.Env
}

type stage struct {
	alus     []*compiledALU // every ALU of the stage, indexed by latch slot
	stateful []*compiledALU // alus[Width:], the ALUs that carry state

	outputMuxNames []string // unoptimized
	outputMux      []int    // optimized

	latch []phv.Value // latch[i] holds the last result of alus[i]
}

// Pipeline is an executable pipeline description: the output of dgen, ready
// for simulation by dsim.
type Pipeline struct {
	spec   Spec
	level  OptLevel
	code   *machinecode.Program
	read   *Code  // the machine code as a prechecked pipeline read it; nil when unoptimized
	cone   *Fused // the output cone as one flat program; nil when unoptimized
	stages []*stage
}

// Build compiles a spec and machine code into an executable pipeline at the
// given optimization level. The machine code is read in one pass (Spec.Read)
// and validated first; incompatible machine code (missing pairs, out-of-range
// values) fails the build. At the optimized levels every ALU's program is
// then proved total with its machine code (aludsl.CheckTotal).
func Build(s Spec, code *machinecode.Program, level OptLevel) (*Pipeline, error) {
	n, err := s.Normalize()
	if err != nil {
		return nil, err
	}
	c := n.read(code)
	if len(c.Errs) > 0 {
		return nil, errors.Join(c.Errs...)
	}
	return build(n, code, c, level)
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
	return build(n, code, n.read(code), Unoptimized)
}

func build(n Spec, code *machinecode.Program, c *Code, level OptLevel) (*Pipeline, error) {
	if level < Unoptimized || level > Compiled {
		return nil, fmt.Errorf("core: unknown optimization level %v", level)
	}
	p := &Pipeline{spec: n, level: level, code: code}
	// names holds the pairs' names, in RequiredPairs order, for the
	// Unoptimized engine, which resolves them at run time; next takes the
	// following k.
	var names []string
	if level == Unoptimized {
		names = make([]string, 0, n.numPairs())
		n.pairs(func(name []byte, _ int) { names = append(names, string(name)) })
	}
	next := func(k int) []string {
		out := names[:k:k]
		names = names[k:]
		return out
	}
	for si, alus := range c.ALUs {
		st := &stage{alus: make([]*compiledALU, len(alus))}
		for latch := range alus {
			ac := &alus[latch]
			a := newALU(n, si, latch, ac.Prog)
			if level == Unoptimized {
				a.operandMuxNames = next(a.numOps)
				holes := next(len(ac.Prog.Holes))
				a.localToGlobal = make(map[string]string, len(holes))
				for i, h := range ac.Prog.Holes {
					a.localToGlobal[h.Name] = holes[i]
				}
				// Version-1 semantics: every hole reference performs hash
				// lookups at execution time.
				a.env.Holes = func(local string) (int64, bool) {
					global, ok := a.localToGlobal[local]
					if !ok {
						return 0, false
					}
					return code.Get(global)
				}
			} else {
				// The trust boundary: nothing downstream guards evaluation
				// of a caller-supplied AST.
				if err := aludsl.CheckTotal(ac.Prog, ac.Hole); err != nil {
					return nil, fmt.Errorf("core: stage %d %s ALU %d: %w", si, machinecode.KindName(a.stateful), a.slot, err)
				}
				a.env.HoleValues = ac.Holes
				a.operandMux = c.Muxes.Operand[si][latch]
			}
			st.alus[latch] = a
		}
		st.stateful = st.alus[n.Width:]
		st.latch = make([]phv.Value, len(st.alus))
		if level == Unoptimized {
			st.outputMuxNames = next(n.PHVLen)
		} else {
			st.outputMux = c.Muxes.Output[si]
		}
		p.stages = append(p.stages, st)
	}
	if level != Unoptimized {
		p.read = c
		var err error
		if p.cone, err = lower(n, c, c.Muxes.Live(slices.Repeat([]bool{true}, n.PHVLen), nil)); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// newALU places an ALU running prog at (stage si, latch slot latch), with
// fresh state and scratch; build sets how the level reads its machine code.
func newALU(n Spec, si, latch int, prog *aludsl.Program) *compiledALU {
	a := &compiledALU{prog: prog, stage: si, slot: latch, latch: latch, numOps: prog.NumOperands()}
	if latch >= n.Width {
		a.stateful = true
		a.slot -= n.Width
		a.state = make([]phv.Value, prog.NumState())
	}
	a.env = aludsl.Env{
		Width:    n.Bits,
		Operands: make([]phv.Value, a.numOps),
		State:    a.state,
	}
	return a
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
// build product — the read machine code, baked mux selections, the fused
// cone and the machine code program — but owns fresh mutable execution
// state: stateful ALU state vectors (copied from the receiver), operand
// scratch buffers and per-stage output latches. A clone may execute
// concurrently with the original and with other clones.
func (p *Pipeline) Clone() *Pipeline {
	q := &Pipeline{spec: p.spec, level: p.level, code: p.code, read: p.read, cone: p.cone}
	q.stages = make([]*stage, len(p.stages))
	for i, st := range p.stages {
		alus := cloneALUs(st.alus)
		q.stages[i] = &stage{
			alus:           alus,
			stateful:       alus[p.spec.Width:],
			outputMuxNames: st.outputMuxNames,
			outputMux:      st.outputMux,
			latch:          make([]phv.Value, len(st.latch)),
		}
	}
	return q
}

// MuxTable is a pipeline's mux selections as build-time constants, the form
// SCC propagation leaves them in (Spec.Read fills it). ALUs are named by
// latch slot: stateless ALU k of a stage is latch k, stateful ALU k is latch
// Width+k.
type MuxTable struct {
	// Output[stage][container] is the container's output mux selection: 0
	// passes the stage's input container through, sel > 0 reads latch sel-1.
	Output [][]int
	// Operand[stage][latch][op] is the input container the ALU's operand
	// mux op selects.
	Operand [][][]int
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

func cloneALUs(alus []*compiledALU) []*compiledALU {
	out := make([]*compiledALU, len(alus))
	for i, a := range alus {
		b := &compiledALU{
			prog:            a.prog,
			stage:           a.stage,
			slot:            a.slot,
			stateful:        a.stateful,
			numOps:          a.numOps,
			latch:           a.latch,
			operandMuxNames: a.operandMuxNames,
			localToGlobal:   a.localToGlobal,
			operandMux:      a.operandMux,
		}
		if a.state != nil {
			b.state = append([]phv.Value(nil), a.state...)
		}
		// The Holes lookup reads the original ALU's localToGlobal map and
		// the machine code program, HoleValues the read Code's hole values,
		// all read-only after build, so sharing them across clones is safe.
		b.env = aludsl.Env{
			Width:      a.env.Width,
			Operands:   make([]phv.Value, a.numOps),
			State:      b.state,
			Holes:      a.env.Holes,
			HoleValues: a.env.HoleValues,
		}
		out[i] = b
	}
	return out
}

// Reset returns the pipeline to its post-build condition: every stateful
// ALU state vector and every per-stage output latch is zeroed. Equivalent
// to ResetState for observable behaviour (latches are overwritten before
// use); it exists for callers that reuse one pipeline across independent
// runs instead of cloning per run.
func (p *Pipeline) Reset() {
	p.ResetState()
	for _, st := range p.stages {
		for i := range st.latch {
			st.latch[i] = 0
		}
	}
}

// ResetState zeroes every stateful ALU's state vector.
func (p *Pipeline) ResetState() {
	for _, st := range p.stages {
		for _, a := range st.stateful {
			for i := range a.state {
				a.state[i] = 0
			}
		}
	}
}

// SetState overwrites the state vector of the stateful ALU at (stage, slot).
func (p *Pipeline) SetState(stageIdx, slot int, vals []phv.Value) error {
	if stageIdx < 0 || stageIdx >= len(p.stages) {
		return fmt.Errorf("core: stage %d out of range", stageIdx)
	}
	st := p.stages[stageIdx]
	if slot < 0 || slot >= len(st.stateful) {
		return fmt.Errorf("core: stateful ALU %d out of range in stage %d", slot, stageIdx)
	}
	a := st.stateful[slot]
	if len(vals) != len(a.state) {
		return fmt.Errorf("core: state length %d != %d", len(vals), len(a.state))
	}
	for i, v := range vals {
		a.state[i] = p.spec.Bits.Trunc(v)
	}
	return nil
}

// StateSnapshot copies every stateful ALU's state, indexed
// [stage][slot][state variable].
func (p *Pipeline) StateSnapshot() phv.StateSnapshot {
	snap := make(phv.StateSnapshot, len(p.stages))
	for i, st := range p.stages {
		snap[i] = make([][]phv.Value, len(st.stateful))
		for j, a := range st.stateful {
			snap[i][j] = append([]phv.Value(nil), a.state...)
		}
	}
	return snap
}

// Prechecked reports whether Build proved execution total: every mux
// selection validated and baked into a slice, every ALU program passed
// through aludsl.CheckTotal with its machine code, so no execution
// of the pipeline can fail. True for every optimized level — the pipelines
// Build fuses; false for Unoptimized, whose version-1 semantics
// resolve machine code through the hash table at each execution and can
// therefore fail at run time (the BuildUnchecked path).
func (p *Pipeline) Prechecked() bool { return p.level != Unoptimized }

// ExecuteStage runs stage si on the input container values, writing the
// stage's result into out (len(in) == len(out) == PHVLen). Stateful ALU
// state is mutated.
//
// ExecuteStage is the deliberately naive reference executor: it checks every
// index, returns every failure as an error, and at the Unoptimized level
// resolves each mux through the machine-code table on every execution — the
// paper's version-1 semantics, written to be read, not to be fast. It is the
// one executor that accepts every pipeline, and the one the tests compare
// the fused programs against; do not optimize it.
func (p *Pipeline) ExecuteStage(si int, in, out []phv.Value) error {
	if si < 0 || si >= len(p.stages) {
		return fmt.Errorf("core: stage %d out of range", si)
	}
	st := p.stages[si]
	for _, a := range st.alus {
		v, err := p.runALU(a, in)
		if err != nil {
			return err
		}
		st.latch[a.latch] = v
	}
	for c := 0; c < p.spec.PHVLen; c++ {
		var sel int
		if p.level == Unoptimized {
			v, ok := p.code.Get(st.outputMuxNames[c])
			if !ok {
				return fmt.Errorf("core: missing machine code pair %q", st.outputMuxNames[c])
			}
			sel = int(v)
		} else {
			sel = st.outputMux[c]
		}
		switch {
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
	if a.operandMux != nil {
		for op, idx := range a.operandMux {
			a.env.Operands[op] = in[idx]
		}
	} else {
		for op, name := range a.operandMuxNames {
			v, ok := p.code.Get(name)
			if !ok {
				return 0, fmt.Errorf("core: missing machine code pair %q", name)
			}
			if v < 0 || int(v) >= len(in) {
				return 0, fmt.Errorf("core: %q = %d out of range [0,%d)", name, v, len(in))
			}
			a.env.Operands[op] = in[v]
		}
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
	for si := range p.stages {
		if err := p.ExecuteStage(si, cur, next); err != nil {
			return nil, err
		}
		cur, next = next, cur
	}
	return phv.FromValues(cur), nil
}
