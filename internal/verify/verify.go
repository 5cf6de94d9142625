// Package verify implements the formal-verification direction of §7 of the
// paper: "This specification and the pipeline description can be
// transformed into SMT formulas so that equivalence can be formally
// proven." It complements the fuzz testing of Fig. 5 — fuzzing samples the
// input space, the verifier covers it exhaustively at a chosen bit width.
//
// Both sides are executed symbolically: PHV containers and state become
// bit-vectors (package bv), control flow becomes if-then-else merging, and
// the claim "some compared container differs in some transaction, or the
// specification fails" becomes a SAT instance (package sat). The pipeline
// description (machine code bound to a hardware spec) is walked here, ALU
// by ALU. The Domino specification is the program a fuzz shard runs:
// domino.Bind lowers it to package flat at the cell's width, and flat.Sym
// evaluates that program at the same width — one Domino semantics for the
// fuzzer and the prover, whose state (§3.3: behaviour "on both PHVs and
// state values") is registers of that program. UNSAT proves the compiler's
// machine code equivalent to the specification over every input of the
// verification width for the unrolled number of transactions; SAT yields a
// concrete input trace, replayed through the pipeline and the specification
// as a fuzz shard runs them: a counterexample, or the specification's error.
//
// §7 also asks for "PHV and state value constraints": Options.MaxInput
// restricts the verified input space the same way the paper's case study
// restricted the synthesizer's (which is exactly how the "works below 100,
// fails at 10-bit inputs" failure class of §5.2 arises — see the package
// tests, which reproduce it formally).
package verify

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync/atomic"

	"druzhba/internal/aludsl"
	"druzhba/internal/bv"
	"druzhba/internal/core"
	"druzhba/internal/domino"
	"druzhba/internal/machinecode"
	"druzhba/internal/phv"
	"druzhba/internal/sat"
)

// MaxBits is the widest verification width: the 32-bit datapath Table 1 is
// fuzzed at. It is the one bound on Options.Bits; campaign grids are checked
// against it through CheckBits.
const MaxBits = 32

// CheckBits reports whether bits is a verification width.
func CheckBits(bits int) error {
	if bits < 1 || bits > MaxBits {
		return fmt.Errorf("verification width %d outside [1,%d]", bits, MaxBits)
	}
	return nil
}

// Options configures an equivalence proof.
type Options struct {
	// Bits is the verification bit width (1..MaxBits; default 8). The proof
	// is exhaustive over inputs of this width. Larger widths grow the gate
	// graph; the §5.2 case study found its failures at 10 bits.
	Bits int

	// Steps is the number of consecutive transactions to unroll (default
	// 2). Stateful bugs that need k packets to surface require Steps >= k.
	Steps int

	// MaxInput constrains every input container to [0, MaxInput). 0 means
	// the full range of the verification width. This is the verifier
	// counterpart of the traffic generator's value bound.
	MaxInput int64

	// Containers lists the container indices whose equality is asserted
	// (nil = the containers bound to fields the Domino program writes,
	// matching the fuzz harness).
	Containers []int

	// MaxConflicts bounds solver effort (0 = unlimited); when exhausted
	// the result reports Unknown.
	MaxConflicts int64

	// StateBindings optionally binds Domino state variables to pipeline
	// state slots; when set, the proof additionally asserts the bound
	// state values are equal after the final transaction (§3.3: the
	// specification captures "the intended algorithmic behavior on both
	// PHVs and state values").
	StateBindings map[string]StateLoc
}

// StateLoc names one state slot of a pipeline: the stateful ALU at
// (Stage, Slot), state variable Index.
type StateLoc struct {
	Stage, Slot, Index int
}

func (o Options) withDefaults() Options {
	if o.Bits == 0 {
		o.Bits = 8
	}
	if o.Steps == 0 {
		o.Steps = 2
	}
	return o
}

// Result reports the outcome of an equivalence proof.
type Result struct {
	// Equivalent is true when the pipeline provably matches the
	// specification for every input of the verification width over the
	// unrolled steps.
	Equivalent bool

	// Unknown is true when the solver's conflict budget was exhausted
	// before a verdict.
	Unknown bool

	Bits  int // verification width used
	Steps int // transactions unrolled

	// On inequivalence (Equivalent == false, Unknown == false):

	// Counterexample is the input trace (Steps PHVs) that separates
	// pipeline and specification.
	Counterexample *phv.Trace
	// FailStep is the first transaction whose outputs differ (the last
	// transaction when only bound state diverges).
	FailStep int
	// PipelineOut and SpecOut are the differing output PHVs at FailStep.
	PipelineOut, SpecOut *phv.PHV
	// StateDiverged is true when the counterexample separates bound state
	// values (Options.StateBindings) rather than output containers;
	// PipelineState and SpecState then hold the differing values per
	// bound Domino state name.
	StateDiverged bool
	PipelineState map[string]phv.Value
	SpecState     map[string]phv.Value

	// SolverStats reports proof effort.
	SolverStats sat.Stats
	// Vars is the number of SAT variables in the emitted instance: the cone
	// of the miter and of the input constraints, 1 when the miter folded
	// to a constant while it was built.
	Vars int
	// Clauses is the number of problem clauses in the emitted instance.
	Clauses int
	// GatesBuilt and GatesEmitted count the AND/XOR/ITE gates symbolic
	// execution constructed and the ones the solver was handed.
	GatesBuilt, GatesEmitted int
}

// solveCount counts SAT solver invocations process-wide. Campaign tests pin
// the zero-re-proof guarantee of the content-addressed cache on it.
var solveCount atomic.Int64

// SolveCount returns the number of SAT solves performed by this package
// since process start. It only ever increases; tests snapshot it around an
// operation to count the solves the operation performed.
func SolveCount() int64 { return solveCount.Load() }

// String renders the result for humans.
func (r *Result) String() string {
	switch {
	case r.Unknown:
		return fmt.Sprintf("UNKNOWN: solver budget exhausted (%d-bit, %d steps)", r.Bits, r.Steps)
	case r.Equivalent:
		return fmt.Sprintf("PROVED: pipeline ≡ spec for all %d-bit inputs over %d transactions (%d vars, %d conflicts)",
			r.Bits, r.Steps, r.Vars, r.SolverStats.Conflicts)
	case r.StateDiverged:
		return fmt.Sprintf("COUNTEREXAMPLE: after transaction %d: state diverged: pipeline %v, spec %v",
			r.FailStep, r.PipelineState, r.SpecState)
	default:
		return fmt.Sprintf("COUNTEREXAMPLE: transaction %d: input %s: pipeline %s, spec %s",
			r.FailStep, r.Counterexample.At(r.FailStep), r.PipelineOut, r.SpecOut)
	}
}

// Equivalence proves or refutes that machine code bound to a hardware spec
// implements the Domino specification under the field binding. The
// hardware spec's Bits field is overridden by opts.Bits; the machine code
// must validate against the spec.
func Equivalence(spec core.Spec, code *machinecode.Program, prog *domino.Program, fields domino.FieldMap, opts Options) (*Result, error) {
	return EquivalenceContext(context.Background(), spec, code, prog, fields, opts)
}

// EquivalenceContext is Equivalence with cancellation: when ctx is
// cancelled the SAT search is interrupted and the result reports Unknown
// (never an invented verdict). This is what lets campaign job timeouts
// abandon a wedged proof instead of leaking the solving goroutine.
func EquivalenceContext(ctx context.Context, spec core.Spec, code *machinecode.Program, prog *domino.Program, fields domino.FieldMap, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	p, err := NewProblem(spec, code, prog, fields, opts)
	if err != nil {
		return nil, err
	}
	return p.Prove(ctx, opts.Bits, opts.Steps)
}

// Problem is an equivalence question with everything that does not depend
// on the proof cell — the (bits, steps) point — worked out once: the
// normalized spec and validated machine code, the compared containers, the
// mux selections and ALU hole values (core.Spec.Read's one pass), and the
// ALUs in the cone of what is compared. It is read-only after NewProblem, so
// the cells of a campaign job share one.
type Problem struct {
	spec   core.Spec // normalized; Prove sets Bits per cell
	code   *machinecode.Program
	prog   *domino.Program
	fields domino.FieldMap
	opts   Options // MaxInput, MaxConflicts, StateBindings

	bindingNames []string // opts.StateBindings' keys, sorted
	containers   []int    // compared containers

	muxes *core.MuxTable
	live  [][]bool         // live[stage][latch]: the ALU is in the compared cone
	alus  [][]core.ALUCode // alus[stage][latch]: the ALU's program and hole values
}

// NewProblem checks the question and prepares it. opts.Bits and opts.Steps
// are ignored: they are Prove's arguments.
func NewProblem(spec core.Spec, code *machinecode.Program, prog *domino.Program, fields domino.FieldMap, opts Options) (*Problem, error) {
	spec, err := spec.Normalize()
	if err != nil {
		return nil, fmt.Errorf("verify: %w", err)
	}
	read, err := spec.Read(code)
	if err != nil {
		return nil, fmt.Errorf("verify: %w", err)
	}
	if len(read.Errs) > 0 {
		return nil, fmt.Errorf("verify: machine code incompatible with pipeline: %w", errors.Join(read.Errs...))
	}
	for _, name := range prog.Fields() {
		if _, ok := fields[name]; !ok {
			return nil, fmt.Errorf("verify: field %q is not bound to a container", name)
		}
	}
	p := &Problem{spec: spec, code: code, prog: prog, fields: fields, opts: opts, containers: opts.Containers}
	if p.containers == nil {
		p.containers, err = domino.WrittenContainers(prog, fields)
		if err != nil {
			return nil, fmt.Errorf("verify: %w", err)
		}
	}
	// Sorted field order: the first out-of-range binding reported must not
	// depend on map order.
	for _, name := range sortedKeys(fields) {
		if c := fields[name]; c < 0 || c >= spec.PHVLen {
			return nil, fmt.Errorf("verify: field %q bound to container %d, PHV has %d", name, c, spec.PHVLen)
		}
	}
	out := make([]bool, spec.PHVLen)
	for _, c := range p.containers {
		if c < 0 || c >= spec.PHVLen {
			return nil, fmt.Errorf("verify: compared container %d out of range [0,%d)", c, spec.PHVLen)
		}
		out[c] = true
	}
	// Names sorted so the formula, and which broken binding is reported
	// first, is deterministic.
	p.bindingNames = sortedKeys(opts.StateBindings)
	pinned := make([][]bool, spec.Depth)
	for si := range pinned {
		pinned[si] = make([]bool, 2*spec.Width)
	}
	for _, name := range p.bindingNames {
		if !slices.ContainsFunc(prog.States, func(s domino.StateDecl) bool { return s.Name == name }) {
			return nil, fmt.Errorf("verify: state binding %q is not a Domino state variable", name)
		}
		loc := opts.StateBindings[name]
		if spec.StatefulALU == nil {
			return nil, fmt.Errorf("verify: pipeline has no stateful ALUs to bind state %+v", loc)
		}
		if loc.Stage < 0 || loc.Stage >= spec.Depth || loc.Slot < 0 || loc.Slot >= spec.Width ||
			loc.Index < 0 || loc.Index >= spec.StatefulALU.NumState() {
			return nil, fmt.Errorf("verify: state location %+v out of range", loc)
		}
		pinned[loc.Stage][spec.Width+loc.Slot] = true
	}
	if len(p.containers) == 0 && len(p.bindingNames) == 0 {
		return nil, errors.New("verify: nothing to compare: the Domino program writes no packet field and no state is bound (Options.StateBindings, dverify -state), so any machine code would be proved")
	}

	p.muxes, p.alus = read.Muxes, read.ALUs
	p.live = p.muxes.Live(out, pinned)
	return p, nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Prove decides one cell of the problem: equivalence over every input of
// the given width for the given number of unrolled transactions.
func (p *Problem) Prove(ctx context.Context, bits, steps int) (*Result, error) {
	if err := CheckBits(bits); err != nil {
		return nil, fmt.Errorf("verify: %w", err)
	}
	if steps < 1 {
		return nil, fmt.Errorf("verify: unrolling depth %d < 1", steps)
	}
	w := phv.MustWidth(bits)
	spec := p.spec
	spec.Bits = w
	bind, err := domino.Bind(p.prog, p.fields, w)
	if err != nil {
		return nil, fmt.Errorf("verify: %w", err)
	}
	lowered, layout := bind.Lowered(), bind.Layout()

	solver := sat.New()
	solver.MaxConflicts = p.opts.MaxConflicts
	solver.Interrupt = func() bool { return ctx.Err() != nil }
	b := bv.NewBuilder(solver)

	pipe := newSymPipeline(b, p, w)
	init, zero := lowered.NewFrame(), b.Const(bits, 0)
	frame := lowered.SymFrame(b, bits, func(r int) bv.Vec { return b.Const(bits, init[r]) })

	var (
		inputs   [][]bv.Vec
		mismatch = b.False()
		trapped  = b.False()
	)
	for step := 0; step < steps; step++ {
		in := make([]bv.Vec, spec.PHVLen)
		for c := range in {
			in[c] = b.Var(bits)
			if m := p.opts.MaxInput; m > 0 && m <= w.Mask() {
				b.Assert(b.Ult(in[c], b.Const(bits, m)))
			}
		}
		inputs = append(inputs, in)

		pipeOut, err := pipe.step(in)
		if err != nil {
			return nil, err
		}
		// One run of the specification, as a PHVSpec makes it: the bound
		// fields read the packet, the flags and the error register start at
		// zero, everything else — the state — is what the last run left.
		for c, r := range layout.Fields {
			if r >= 0 {
				frame[r] = in[c]
			}
		}
		for _, r := range layout.Clear {
			frame[r] = zero
		}
		var failed sat.Lit
		frame, failed = lowered.Sym(b, frame)
		trapped = b.Or(trapped, failed)
		for _, c := range p.containers {
			want := in[c]
			if c < len(layout.Fields) && layout.Fields[c] >= 0 {
				want = frame[layout.Fields[c]]
			}
			mismatch = b.Or(mismatch, b.Ne(pipeOut[c], want))
		}
	}
	// §3.3/§7: optionally assert the bound state values match after the
	// final transaction.
	for _, name := range p.bindingNames {
		loc := p.opts.StateBindings[name]
		pipeVec := pipe.state[loc.Stage][spec.Width+loc.Slot][loc.Index]
		mismatch = b.Or(mismatch, b.Ne(pipeVec, frame[layout.State[name]]))
	}
	// A specification that can fail is never proved: a trace on which it
	// does is a model too, and replay reports the failure.
	mismatch = b.Or(mismatch, trapped)
	b.Assert(mismatch)
	b.Emit()

	res := &Result{Bits: bits, Steps: steps, Vars: solver.NumVars(), Clauses: solver.NumClauses()}
	res.GatesBuilt, res.GatesEmitted = b.Gates()
	if ctx.Err() != nil {
		res.Unknown = true
		return res, nil
	}
	solveCount.Add(1)
	switch b.Solve() {
	case sat.Unsat:
		res.Equivalent = true
	case sat.Unknown:
		res.Unknown = true
	case sat.Sat:
		trace := phv.NewTrace()
		for _, in := range inputs {
			vals := make([]phv.Value, len(in))
			for c, vec := range in {
				vals[c] = b.Value(vec)
			}
			trace.Append(phv.FromValues(vals))
		}
		res.Counterexample = trace
		// Replay concretely through the real pipeline and interpreter:
		// the reported outputs come from the production execution paths,
		// and a model that does not reproduce concretely is an internal
		// error (symbolic/concrete semantic drift), not a finding.
		if err := res.replay(spec, p.code, bind.NewSpec(), trace, p.containers, p.opts.StateBindings); err != nil {
			return nil, err
		}
	}
	res.SolverStats = solver.Stats
	return res, nil
}

// replay runs the counterexample trace through the concrete pipeline and
// Domino machine, locates the first transaction whose compared containers
// really differ, and records its outputs. Where the specification fails
// first, its error is the result, as it is a fuzz shard's. A SAT model that
// does not reproduce concretely indicates symbolic/concrete semantic drift
// and is reported as an internal error.
func (r *Result) replay(spec core.Spec, code *machinecode.Program, dspec *domino.PHVSpec, trace *phv.Trace, containers []int, bindings map[string]StateLoc) error {
	p, err := core.Build(spec, code, core.SCCInlining)
	if err != nil {
		return fmt.Errorf("verify: replay build: %w", err)
	}
	p.ResetState()
	for i := 0; i < trace.Len(); i++ {
		in := trace.At(i)
		got, err := p.Process(in.Clone())
		if err != nil {
			return fmt.Errorf("verify: replay pipeline: %w", err)
		}
		want, err := dspec.Process(in.Clone())
		if err != nil {
			return fmt.Errorf("verify: spec %q, transaction %d: %w", dspec.Name(), i, err)
		}
		for _, c := range containers {
			if got.Get(c) != want.Get(c) {
				r.FailStep = i
				r.PipelineOut = got
				r.SpecOut = want
				return nil
			}
		}
	}
	// Outputs matched everywhere; the divergence must be in bound state.
	if len(bindings) > 0 {
		snap := p.StateSnapshot()
		diverged := false
		pipeState := map[string]phv.Value{}
		specState := map[string]phv.Value{}
		// Sorted order so which broken binding gets reported first is
		// run-independent.
		names := make([]string, 0, len(bindings))
		for name := range bindings {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			loc := bindings[name]
			dv, ok := dspec.State(name)
			if !ok {
				return fmt.Errorf("verify: replay: Domino has no state %q", name)
			}
			if loc.Stage >= len(snap) || loc.Slot >= len(snap[loc.Stage]) || loc.Index >= len(snap[loc.Stage][loc.Slot]) {
				return fmt.Errorf("verify: replay: state location %+v out of range", loc)
			}
			pv := snap[loc.Stage][loc.Slot][loc.Index]
			pipeState[name] = pv
			specState[name] = dv
			if pv != dv {
				diverged = true
			}
		}
		if diverged {
			r.StateDiverged = true
			r.FailStep = trace.Len() - 1
			r.PipelineState = pipeState
			r.SpecState = specState
			return nil
		}
	}
	return errors.New("verify: internal: SAT counterexample does not reproduce concretely")
}

// --- Symbolic pipeline --------------------------------------------------------

// symPipeline executes a pipeline description symbolically, one transaction
// (PHV) at a time, threading stateful-ALU state between transactions.
// Processing a PHV through the dataflow stage by stage is equivalent to the
// tick-accurate simulation (PHVs traverse stages in order and never
// overtake), which is the same argument core.Pipeline.Process relies on.
// Only the ALUs in the problem's cone execute: a dead ALU has no gates, its
// latch and the containers that select it are nil vectors nothing reads.
type symPipeline struct {
	b    *bv.Builder
	p    *Problem
	w    phv.Width
	bits int

	// state[stage][latch] is the state vector of the stateful ALU there
	// (nil for stateless latches).
	state [][][]bv.Vec
}

func newSymPipeline(b *bv.Builder, p *Problem, w phv.Width) *symPipeline {
	sp := &symPipeline{b: b, p: p, w: w, bits: w.Bits()}
	sp.state = make([][][]bv.Vec, p.spec.Depth)
	for si := range sp.state {
		sp.state[si] = make([][]bv.Vec, len(p.live[si]))
		if p.spec.StatefulALU == nil {
			continue
		}
		for latch := p.spec.Width; latch < 2*p.spec.Width; latch++ {
			vars := make([]bv.Vec, p.spec.StatefulALU.NumState())
			for i := range vars {
				vars[i] = b.Const(sp.bits, 0) // ResetState semantics
			}
			sp.state[si][latch] = vars
		}
	}
	return sp
}

// step processes one PHV through every stage, returning the output
// containers and updating internal state.
func (sp *symPipeline) step(in []bv.Vec) ([]bv.Vec, error) {
	cur := in
	for si := 0; si < sp.p.spec.Depth; si++ {
		next, err := sp.execStage(si, cur)
		if err != nil {
			return nil, err
		}
		cur = next
	}
	return cur, nil
}

func (sp *symPipeline) execStage(si int, in []bv.Vec) ([]bv.Vec, error) {
	latch := make([]bv.Vec, len(sp.p.live[si]))
	for l, live := range sp.p.live[si] {
		if !live {
			continue
		}
		out, err := sp.execALU(si, l, in)
		if err != nil {
			return nil, err
		}
		latch[l] = out
	}
	out := make([]bv.Vec, len(in))
	for c, sel := range sp.p.muxes.Output[si] {
		if sel == 0 {
			out[c] = in[c]
		} else {
			out[c] = latch[sel-1]
		}
	}
	return out, nil
}

func (sp *symPipeline) execALU(si, latch int, in []bv.Vec) (bv.Vec, error) {
	alu := &sp.p.alus[si][latch]
	prog := alu.Prog
	operands := make([]bv.Vec, prog.NumOperands())
	for op, c := range sp.p.muxes.Operand[si][latch] {
		operands[op] = in[c]
	}
	e := &symALU{
		b:        sp.b,
		bits:     sp.bits,
		w:        sp.w,
		lookup:   alu.Hole,
		operands: operands,
		state:    cloneVecs(sp.state[si][latch]),
		kind:     prog.Kind,
	}
	out, err := e.run(prog)
	if err != nil {
		return nil, err
	}
	// Branch merging rebinds the executor's state slice; commit the final
	// (merged) state back to the pipeline.
	sp.state[si][latch] = e.state
	return out, nil
}

// --- Symbolic ALU execution ---------------------------------------------------

// symALU executes one ALU DSL program symbolically: state writes become
// guarded updates, if/else becomes ITE merging, and builtins resolve their
// machine code values concretely (so mux selections and opcodes specialize
// exactly as SCC propagation would).
type symALU struct {
	b        *bv.Builder
	bits     int
	w        phv.Width
	lookup   aludsl.HoleLookup
	operands []bv.Vec
	state    []bv.Vec // working copy; holds the final state after run
	params   []bv.Vec // current helper-call frame
	kind     aludsl.ALUKind
}

// retState tracks the symbolic "a return has executed" flag and value.
type retState struct {
	val  bv.Vec
	done sat.Lit
}

func (e *symALU) run(prog *aludsl.Program) (out bv.Vec, err error) {
	defer func() {
		if r := recover(); r != nil {
			if ve, ok := r.(symError); ok {
				err = fmt.Errorf("verify: %s: %s", prog.Name, string(ve))
				return
			}
			panic(r)
		}
	}()
	rs := &retState{val: e.b.Const(e.bits, 0), done: e.b.False()}
	e.execStmts(prog.Body, rs)
	// Implicit output: post-update state_0 for stateful ALUs, else 0.
	fallback := e.b.Const(e.bits, 0)
	if e.kind == aludsl.Stateful && len(e.state) > 0 {
		fallback = e.state[0]
	}
	return e.b.Ite(rs.done, rs.val, fallback), nil
}

type symError string

func (e *symALU) failf(format string, args ...any) bv.Vec {
	panic(symError(fmt.Sprintf(format, args...)))
}

func (e *symALU) execStmts(stmts []aludsl.Stmt, rs *retState) {
	for _, s := range stmts {
		switch s := s.(type) {
		case *aludsl.Assign:
			v := e.eval(s.RHS)
			old := e.state[s.LHS.Index]
			e.state[s.LHS.Index] = e.b.Ite(rs.done, old, v)
		case *aludsl.Return:
			v := e.eval(s.Value)
			rs.val = e.b.Ite(rs.done, rs.val, v)
			rs.done = e.b.True()
		case *aludsl.If:
			c := e.b.Truthy(e.eval(s.Cond))
			baseState := cloneVecs(e.state)
			baseRS := *rs
			e.execStmts(s.Then, rs)
			thenState := e.state
			thenRS := *rs
			e.state = baseState
			*rs = baseRS
			if s.Else != nil {
				e.execStmts(s.Else, rs)
			}
			for i := range e.state {
				e.state[i] = e.b.Ite(c, thenState[i], e.state[i])
			}
			rs.val = e.b.Ite(c, thenRS.val, rs.val)
			rs.done = e.b.IteLit(c, thenRS.done, rs.done)
		default:
			e.failf("unknown statement %T", s)
		}
	}
}

func cloneVecs(v []bv.Vec) []bv.Vec { return append([]bv.Vec(nil), v...) }

func (e *symALU) hole(name string) int64 {
	v, ok := e.lookup(name)
	if !ok {
		e.failf("missing machine code pair for %q", name)
	}
	return v
}

func (e *symALU) eval(x aludsl.Expr) bv.Vec {
	switch x := x.(type) {
	case *aludsl.Num:
		return e.b.Const(e.bits, e.w.Trunc(x.Value))
	case *aludsl.Ident:
		switch x.Class {
		case aludsl.VarState:
			return e.state[x.Index]
		case aludsl.VarField:
			if x.Index >= len(e.operands) {
				return e.failf("operand %d out of range (%d operands)", x.Index, len(e.operands))
			}
			return e.operands[x.Index]
		case aludsl.VarHole:
			return e.b.Const(e.bits, e.w.Trunc(e.hole(x.Name)))
		case aludsl.VarParam:
			return e.params[x.Index]
		default:
			return e.failf("unresolved identifier %q", x.Name)
		}
	case *aludsl.Unary:
		v := e.eval(x.X)
		switch x.Op {
		case aludsl.OpNeg:
			return e.b.Neg(v)
		case aludsl.OpNot:
			return e.b.FromBool(e.b.IsZero(v), e.bits)
		}
		return e.failf("unknown unary op %v", x.Op)
	case *aludsl.Binary:
		// Expressions are side-effect free, so short-circuit and strict
		// evaluation agree; evaluate strictly.
		l := e.eval(x.X)
		r := e.eval(x.Y)
		return e.binOp(x.Op, l, r)
	case *aludsl.HoleCall:
		return e.evalHoleCall(x)
	case *aludsl.Call:
		args := make([]bv.Vec, len(x.Args))
		for i, a := range x.Args {
			args[i] = e.eval(a)
		}
		saved := e.params
		e.params = args
		v := e.eval(x.Func.Body)
		e.params = saved
		return v
	default:
		return e.failf("unknown expression node %T", x)
	}
}

// binOp is the gates of l op r, a comparison or logical operator as a 0/1
// vector.
func (e *symALU) binOp(op aludsl.BinOp, l, r bv.Vec) bv.Vec {
	b := e.b
	switch op {
	case aludsl.OpAdd:
		return b.Add(l, r)
	case aludsl.OpSub:
		return b.Sub(l, r)
	case aludsl.OpMul:
		return b.Mul(l, r)
	case aludsl.OpDiv:
		return b.Div(l, r)
	case aludsl.OpMod:
		return b.Mod(l, r)
	case aludsl.OpEq:
		return b.FromBool(b.Eq(l, r), e.bits)
	case aludsl.OpNeq:
		return b.FromBool(b.Ne(l, r), e.bits)
	case aludsl.OpLt:
		return b.FromBool(b.Ult(l, r), e.bits)
	case aludsl.OpGt:
		return b.FromBool(b.Ult(r, l), e.bits)
	case aludsl.OpLe:
		return b.FromBool(b.Ule(l, r), e.bits)
	case aludsl.OpGe:
		return b.FromBool(b.Ule(r, l), e.bits)
	case aludsl.OpAnd:
		return b.FromBool(b.And(b.Truthy(l), b.Truthy(r)), e.bits)
	case aludsl.OpOr:
		return b.FromBool(b.Or(b.Truthy(l), b.Truthy(r)), e.bits)
	}
	return e.failf("unknown binary op %v", op)
}

// evalHoleCall applies the builtin table's choice for the call's machine code
// value. A selector (Opt, MuxN) builds only the argument it picks; an
// operator (a Strict choice) builds both operands left to right, even to
// pass one through.
func (e *symALU) evalHoleCall(x *aludsl.HoleCall) bv.Vec {
	mc := e.hole(x.Hole)
	ch, err := x.Choose(mc)
	switch {
	case err != nil:
		return e.failf("hole %q: %v", x.Hole, err)
	case ch.Kind == aludsl.ChooseZero:
		return e.b.Const(e.bits, 0)
	case ch.Kind == aludsl.ChooseValue:
		return e.b.Const(e.bits, e.w.Trunc(mc))
	case !ch.Strict:
		return e.eval(x.Args[ch.Arg])
	}
	ops := [2]bv.Vec{e.eval(x.Args[0]), e.eval(x.Args[1])}
	if ch.Kind == aludsl.ChooseOp {
		return e.binOp(ch.Op, ops[0], ops[1])
	}
	return ops[ch.Arg]
}
