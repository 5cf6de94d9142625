// Package verify implements the formal-verification direction of §7 of the
// paper: "This specification and the pipeline description can be
// transformed into SMT formulas so that equivalence can be formally
// proven." It complements the fuzz testing of Fig. 5 — fuzzing samples the
// input space, the verifier covers it exhaustively at a chosen bit width.
//
// Both sides are lowered to package flat by the lowerings the fuzzer runs,
// linked into the one program a fuzz shard's oracle is built from, and
// executed symbolically by flat.Sym, the one symbolic evaluator: PHV
// containers and state become bit-vectors (package bv), control flow becomes
// if-then-else merging, and the claim "some compared container differs in
// some transaction, or the specification fails" becomes a SAT instance
// (package sat). The pipeline description (machine code bound to a hardware
// spec) is core's fused program of the compared cone, lowered straight from
// the machine code (core.Spec.Lower: each builtin's choice taken as it is
// lowered, nothing folded); the Domino specification is the transaction a
// fuzz shard runs, linked after the cone (domino.Binding.Link). Both are
// lowered once per question at MaxBits: their width enters only through
// their truncated literals, which flat.SymFrame cuts to each cell's. Their
// state (§3.3: behaviour "on both PHVs and state values") is registers of the
// linked program, threaded from one transaction into the next. The tests
// hold the cone, gate for gate, to a reference that walks the ALU DSL
// (translation validation). UNSAT proves the compiler's
// machine code equivalent to the specification over every input of the
// verification width for the unrolled number of transactions; SAT yields a
// concrete input trace, replayed through the pipeline at Unoptimized (the AST
// interpreter) and the specification: a counterexample, or the
// specification's error.
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
// normalized spec and validated machine code, the compared containers, and
// the one program every cell proves. That is the compared cone — the ALUs
// whose results or bound state are compared — lowered from the machine code
// by core's own lowering (core.Spec.Lower), with the specification's
// transaction linked after it (domino.Binding.Link), as sim's oracle is
// before it is optimized. It is lowered at MaxBits, and its width enters only
// through its truncated literals, which flat.SymFrame cuts to a cell's. A
// Problem is immutable: the cells of a campaign job share one, concurrently.
type Problem struct {
	spec   core.Spec // normalized; replay sets Bits per cell
	code   *machinecode.Program
	prog   *domino.Program
	fields domino.FieldMap
	opts   Options // MaxInput, MaxConflicts, StateBindings

	bindingNames []string // opts.StateBindings' keys, sorted
	containers   []int    // compared containers

	cone *core.Fused    // the compared cone at MaxBits
	link *domino.Linked // the specification linked after the cone
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

	at := spec
	at.Bits = phv.MustWidth(MaxBits)
	if p.cone, err = at.Lower(read, read.Muxes.Live(out, pinned)); err != nil {
		return nil, fmt.Errorf("verify: %w", err)
	}
	bind, err := domino.Bind(prog, fields, at.Bits)
	if err != nil {
		return nil, fmt.Errorf("verify: %w", err)
	}
	in := make([]int, spec.PHVLen)
	for c := range in {
		in[c] = p.cone.InputReg(c)
	}
	if p.link, err = bind.Link(p.cone.Program, in); err != nil {
		return nil, fmt.Errorf("verify: %w", err)
	}
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
	solver := sat.New()
	solver.MaxConflicts = p.opts.MaxConflicts
	solver.Interrupt = func() bool { return ctx.Err() != nil }
	b := bv.NewBuilder(solver)

	// The program starts from its initial frame — zero pipeline state, the
	// specification's declared state — and carries state from one run into
	// the next in its registers. A run is one packet as sim's oracle runs
	// it: the packet in the cone's input registers, the specification's
	// flags and error register at zero, then the cone and the transaction.
	prog, cone := p.link.Program, p.cone
	init := prog.NewFrame()
	frame := prog.SymFrame(b, bits, func(r int) bv.Vec { return b.Const(bits, init[r]) })
	zero, mask := b.Const(bits, 0), phv.MustWidth(bits).Mask()

	var (
		inputs   [][]bv.Vec
		mismatch = b.False()
		trapped  = b.False()
	)
	for step := 0; step < steps; step++ {
		in := make([]bv.Vec, p.spec.PHVLen)
		for c := range in {
			in[c] = b.Var(bits)
			if m := p.opts.MaxInput; m > 0 && m <= mask {
				b.Assert(b.Ult(in[c], b.Const(bits, m)))
			}
			frame[cone.InputReg(c)] = in[c]
		}
		inputs = append(inputs, in)
		for _, r := range p.link.Clear {
			frame[r] = zero
		}
		var failed sat.Lit
		frame, failed = prog.Sym(b, frame)
		trapped = b.Or(trapped, failed)
		for _, c := range p.containers {
			mismatch = b.Or(mismatch, b.Ne(frame[cone.Out()[c]], frame[p.link.Want[c]]))
		}
	}
	// §3.3/§7: optionally assert the bound state values match after the
	// final transaction.
	for _, name := range p.bindingNames {
		loc := p.opts.StateBindings[name]
		mismatch = b.Or(mismatch, b.Ne(frame[cone.StateReg(loc.Stage, loc.Slot)+loc.Index], frame[p.link.StateReg(name)]))
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
		// Replay concretely through the reference interpreter and the
		// specification: the reported outputs come from concrete
		// execution, and a model that does not reproduce concretely is an
		// internal error (symbolic/concrete semantic drift), not a finding.
		if err := p.replay(res, trace); err != nil {
			return nil, err
		}
	}
	res.SolverStats = solver.Stats
	return res, nil
}

// replay runs the counterexample trace through the concrete pipeline and
// Domino machine, built and bound at the cell's width, locates the first
// transaction whose compared containers really differ, and records its
// outputs in r. Where the specification fails first, its error is the
// result, as it is a fuzz shard's. A SAT model that does not reproduce
// concretely indicates symbolic/concrete semantic drift and is reported as an
// internal error. The pipeline is built at Unoptimized, so the replay runs
// the AST interpreter and shares neither the lowering nor flat.Sym with the
// proof.
func (p *Problem) replay(r *Result, trace *phv.Trace) error {
	w := phv.MustWidth(r.Bits)
	spec := p.spec
	spec.Bits = w
	pipe, err := core.Build(spec, p.code, core.Unoptimized)
	if err != nil {
		return fmt.Errorf("verify: replay build: %w", err)
	}
	bind, err := domino.Bind(p.prog, p.fields, w)
	if err != nil {
		return fmt.Errorf("verify: replay: %w", err)
	}
	dspec := bind.NewSpec()
	for i := 0; i < trace.Len(); i++ {
		in := trace.At(i)
		got, err := pipe.Process(in.Clone())
		if err != nil {
			return fmt.Errorf("verify: replay pipeline: %w", err)
		}
		want, err := dspec.Process(in.Clone())
		if err != nil {
			return fmt.Errorf("verify: spec %q, transaction %d: %w", dspec.Name(), i, err)
		}
		for _, c := range p.containers {
			if got.Get(c) != want.Get(c) {
				r.FailStep = i
				r.PipelineOut = got
				r.SpecOut = want
				return nil
			}
		}
	}
	// Outputs matched everywhere; the divergence must be in bound state.
	if len(p.bindingNames) > 0 {
		snap := pipe.StateSnapshot()
		diverged := false
		pipeState := map[string]phv.Value{}
		specState := map[string]phv.Value{}
		for _, name := range p.bindingNames {
			loc := p.opts.StateBindings[name]
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
