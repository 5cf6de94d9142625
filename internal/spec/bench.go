// Package spec contains the twelve packet-processing programs of Table 1 of
// the paper, each with:
//
//   - its high-level program in the mini-Domino language (the "high-level
//     program" of Fig. 5),
//   - the pipeline dimensions and Banzai atom from Table 1,
//   - a machine code fixture — the artifact a compiler targeting Druzhba
//     would emit (the paper obtained these from the Chipmunk synthesis
//     compiler; here they are hand-mapped and fuzz-verified, and package
//     synth can regenerate small ones),
//   - the PHV field binding used to compare pipeline and spec outputs.
//
// Every fixture is validated in the package tests by the Fig. 5 workflow:
// the same random input trace is run through the pipeline (at all three
// optimization levels) and through the Domino specification, and the output
// traces are asserted equal.
package spec

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"sync"

	"druzhba/internal/atoms"
	"druzhba/internal/core"
	"druzhba/internal/domino"
	"druzhba/internal/machinecode"
	"druzhba/internal/phv"
	"druzhba/internal/sim"
)

// Benchmark is one Table 1 program.
type Benchmark struct {
	Name  string // Table 1 program name
	Depth int    // pipeline depth (Table 1)
	Width int    // pipeline width (Table 1)
	Atom  string // stateful ALU name (Table 1 "ALU name")

	// DominoSrc is the high-level program.
	DominoSrc string

	// Fields binds Domino packet fields to PHV containers.
	Fields domino.FieldMap

	// MaxInput bounds traffic-generator values (0 = full width). Programs
	// whose semantics need realistic field magnitudes set this.
	MaxInput int64

	// build populates the machine code fixture.
	build func(b *builder)

	once     sync.Once
	resolved *Resolved
	err      error
}

// Fingerprint is a stable content hash of everything that defines the
// benchmark's behavioral specification: the Domino source, the PHV field
// binding, the Table-1 pipeline dimensions and atom, and the traffic bound.
// Campaign shard caching keys on this hash (plus the machine code and
// engine level), so editing any part of a benchmark invalidates its cached
// shards while leaving every other benchmark's entries valid.
func (bm *Benchmark) Fingerprint() string {
	h := sha256.New()
	fmt.Fprintf(h, "%d/%d/%s/max=%d\x00", bm.Depth, bm.Width, bm.Atom, bm.MaxInput)
	fmt.Fprintf(h, "%d\x00%s\x00", len(bm.DominoSrc), bm.DominoSrc)
	fields := make([]string, 0, len(bm.Fields))
	for f := range bm.Fields {
		fields = append(fields, f)
	}
	sort.Strings(fields)
	for _, f := range fields {
		fmt.Fprintf(h, "%s=%d\x00", f, bm.Fields[f])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Spec builds the benchmark's pipeline spec (not yet bound to machine
// code). Each call parses the atoms afresh: the result is the caller's to
// modify.
func (bm *Benchmark) Spec() (core.Spec, error) {
	stateful, err := atoms.Load(bm.Atom)
	if err != nil {
		return core.Spec{}, err
	}
	return core.Spec{
		Depth:        bm.Depth,
		Width:        bm.Width,
		StatelessALU: atoms.MustLoad("stateless_full"),
		StatefulALU:  stateful,
	}, nil
}

// MachineCode returns a private copy of the benchmark's machine code
// fixture: every required pair, with the identity configuration for unused
// primitives.
func (bm *Benchmark) MachineCode() (*machinecode.Program, error) {
	spec, err := bm.Spec()
	if err != nil {
		return nil, err
	}
	return bm.machineCode(spec)
}

func (bm *Benchmark) machineCode(spec core.Spec) (*machinecode.Program, error) {
	req, err := spec.RequiredPairs()
	if err != nil {
		return nil, err
	}
	code := machinecode.New()
	for _, h := range req {
		code.Set(h.Name, 0)
	}
	b := &builder{spec: spec, code: code}
	bm.build(b)
	if b.err != nil {
		return nil, fmt.Errorf("spec: %s: %w", bm.Name, b.err)
	}
	return code, nil
}

// Pipeline builds the benchmark's pipeline at the given optimization level.
func (bm *Benchmark) Pipeline(level core.OptLevel) (*core.Pipeline, error) {
	spec, err := bm.Spec()
	if err != nil {
		return nil, err
	}
	code, err := bm.machineCode(spec)
	if err != nil {
		return nil, err
	}
	return core.Build(spec, code, level)
}

// Resolved is everything derived from a Benchmark's declaration — atoms
// parsed, fixture built, Domino program parsed and bound, content hashed —
// once per benchmark. It is shared by every job, runner and goroutine that
// uses the benchmark: read-only, every field and everything reachable from
// one. Code that needs to modify a spec or a fixture takes a private copy
// from Spec, MachineCode or CompareContainers instead.
type Resolved struct {
	Spec        core.Spec            // pipeline spec, not yet bound to machine code
	Code        *machinecode.Program // machine code fixture
	Program     *domino.Program      // the high-level program
	Containers  []int                // containers the program writes: what pipeline and spec are compared on
	Fingerprint string               // Benchmark.Fingerprint

	binding *domino.Binding
}

// NewSpec returns a fresh instance of the high-level specification bound to
// the benchmark's field layout, ready for sim.Fuzzer.FuzzGen; it allocates
// only the instance's state and locals.
func (r *Resolved) NewSpec() sim.Spec { return r.binding.NewSpec() }

// Resolve returns the benchmark's derived values, computing them on first
// use. Safe for concurrent use.
func (bm *Benchmark) Resolve() (*Resolved, error) {
	bm.once.Do(func() { bm.resolved, bm.err = bm.resolve() })
	return bm.resolved, bm.err
}

func (bm *Benchmark) resolve() (*Resolved, error) {
	r := &Resolved{Fingerprint: bm.Fingerprint()}
	var err error
	if r.Spec, err = bm.Spec(); err != nil {
		return nil, err
	}
	if r.Code, err = bm.machineCode(r.Spec); err != nil {
		return nil, err
	}
	if r.Program, err = domino.Parse(bm.DominoSrc); err != nil {
		return nil, fmt.Errorf("spec: %s: %w", bm.Name, err)
	}
	r.Program.Name = bm.Name
	if r.Containers, err = domino.WrittenContainers(r.Program, bm.Fields); err != nil {
		return nil, err
	}
	if r.binding, err = domino.Bind(r.Program, bm.Fields, phv.Default32); err != nil {
		return nil, err
	}
	return r, nil
}

// DominoProgram returns the benchmark's parsed high-level program. It is
// shared: callers must not modify it.
func (bm *Benchmark) DominoProgram() (*domino.Program, error) {
	r, err := bm.Resolve()
	if err != nil {
		return nil, err
	}
	return r.Program, nil
}

// SimSpec returns a fresh instance of the benchmark's high-level
// specification bound to its field layout, ready for sim.Fuzzer.FuzzGen.
func (bm *Benchmark) SimSpec() (sim.Spec, error) {
	r, err := bm.Resolve()
	if err != nil {
		return nil, err
	}
	return r.NewSpec(), nil
}

// CompareContainers returns a private copy of the containers whose values
// the specification defines (the fields the Domino program writes).
func (bm *Benchmark) CompareContainers() ([]int, error) {
	r, err := bm.Resolve()
	if err != nil {
		return nil, err
	}
	return append([]int(nil), r.Containers...), nil
}

// Verify runs the Fig. 5 fuzzing workflow for the benchmark at one
// optimization level: n random PHVs through pipeline and spec, outputs
// compared on the spec-defined containers, up to the first mismatch.
func (bm *Benchmark) Verify(level core.OptLevel, seed int64, n int) (*sim.BatchReport, error) {
	p, err := bm.Pipeline(level)
	if err != nil {
		return nil, err
	}
	r, err := bm.Resolve()
	if err != nil {
		return nil, err
	}
	gen := sim.NewTrafficGen(seed, p.PHVLen(), p.Bits(), bm.MaxInput)
	return sim.NewFuzzer(p).FuzzGen(r.NewSpec(), gen, n, sim.FuzzOptions{Containers: r.Containers}, 1)
}

// All returns every benchmark in Table 1 order.
func All() []*Benchmark {
	out := make([]*Benchmark, len(table1))
	copy(out, table1)
	return out
}

// Names lists benchmark names, sorted.
func Names() []string {
	names := make([]string, len(table1))
	for i, b := range table1 {
		names[i] = b.Name
	}
	sort.Strings(names)
	return names
}

// Match returns the benchmarks whose names contain pattern as a substring
// (empty pattern = all), in Table 1 order. Used by dfarm's job filter.
func Match(pattern string) []*Benchmark {
	var out []*Benchmark
	for _, b := range table1 {
		if strings.Contains(b.Name, pattern) {
			out = append(out, b)
		}
	}
	return out
}

// Lookup finds a benchmark by name.
func Lookup(name string) (*Benchmark, error) {
	for _, b := range table1 {
		if b.Name == name {
			return b, nil
		}
	}
	return nil, fmt.Errorf("spec: unknown benchmark %q (have %v)", name, Names())
}

// --- machine code fixture builder --------------------------------------------

// builder writes machine code pairs with the pipeline naming convention and
// validates slot/stage bounds as it goes.
type builder struct {
	spec core.Spec
	code *machinecode.Program
	err  error
}

func (b *builder) failf(format string, args ...any) {
	if b.err == nil {
		b.err = fmt.Errorf(format, args...)
	}
}

func (b *builder) checkPos(stage, slot int) bool {
	if stage < 0 || stage >= b.spec.Depth || slot < 0 || slot >= b.spec.Width {
		b.failf("position (stage %d, slot %d) outside %dx%d grid", stage, slot, b.spec.Depth, b.spec.Width)
		return false
	}
	return true
}

// alu sets the internal holes of the ALU at (stage, slot) and wires its
// operand muxes to the given containers.
func (b *builder) alu(stage int, stateful bool, slot int, operands []int, holes map[string]int64) {
	if !b.checkPos(stage, slot) {
		return
	}
	for op, c := range operands {
		name := machinecode.OperandMuxName(stage, stateful, slot, op)
		if !b.code.Has(name) {
			b.failf("no such operand mux %q", name)
			return
		}
		b.code.Set(name, int64(c))
	}
	for hole, v := range holes {
		name := machinecode.ALUHoleName(stage, stateful, slot, hole)
		if !b.code.Has(name) {
			b.failf("no such hole %q", name)
			return
		}
		b.code.Set(name, v)
	}
}

// stateless configures the stateless ALU at (stage, slot).
func (b *builder) stateless(stage, slot int, operands []int, holes map[string]int64) {
	b.alu(stage, false, slot, operands, holes)
}

// stateful configures the stateful ALU at (stage, slot).
func (b *builder) stateful(stage, slot int, operands []int, holes map[string]int64) {
	b.alu(stage, true, slot, operands, holes)
}

// outStateless routes container c at the end of stage to the stateless ALU
// at slot.
func (b *builder) outStateless(stage, c, slot int) {
	if !b.checkPos(stage, slot) {
		return
	}
	b.code.Set(machinecode.OutputMuxName(stage, c), int64(1+slot))
}

// outStateful routes container c at the end of stage to the stateful ALU at
// slot.
func (b *builder) outStateful(stage, c, slot int) {
	if !b.checkPos(stage, slot) {
		return
	}
	b.code.Set(machinecode.OutputMuxName(stage, c), int64(1+b.spec.Width+slot))
}
