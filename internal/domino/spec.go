package domino

import (
	"fmt"
	"sort"

	"druzhba/internal/flat"
	"druzhba/internal/phv"
)

// FieldMap binds packet field names to PHV container indices, defining how a
// Domino program's packet view lays out in the pipeline's PHV.
type FieldMap map[string]int

// Containers returns the container indices in the map, sorted. These are the
// containers a fuzzing comparison should inspect when the spec is the
// source of truth for them.
func (f FieldMap) Containers() []int {
	out := make([]int, 0, len(f))
	for _, c := range f {
		out = append(out, c)
	}
	sort.Ints(out)
	return out
}

// WrittenContainers returns the containers bound to fields the program
// writes.
func WrittenContainers(p *Program, f FieldMap) ([]int, error) {
	var out []int
	for _, name := range p.WrittenFields() {
		c, ok := f[name]
		if !ok {
			return nil, fmt.Errorf("domino: written field %q is not bound to a container", name)
		}
		out = append(out, c)
	}
	sort.Ints(out)
	return out, nil
}

// Binding is a program resolved against one field layout and width: the
// validated, immutable part of a specification. Parse and bind once, then
// instantiate a PHVSpec per runner; instances share the Binding and own only
// their state.
type Binding struct {
	prog *Program
	code *code

	// last is the field bound to the highest container, so that one compare
	// per packet covers every bound field.
	last     string
	lastCont int
}

// Bind validates the layout — every field the program uses is bound, no
// container is negative and no two fields share one — and resolves the
// program's names against it.
func Bind(p *Program, fields FieldMap, w phv.Width) (*Binding, error) {
	for _, name := range p.Fields() {
		if _, ok := fields[name]; !ok {
			return nil, fmt.Errorf("domino: field %q is not bound to a container", name)
		}
	}
	names := make([]string, 0, len(fields))
	for name := range fields {
		names = append(names, name)
	}
	sort.Strings(names)
	b := &Binding{prog: p, lastCont: -1}
	owner := map[int]string{}
	for _, name := range names {
		c := fields[name]
		if c < 0 {
			return nil, fmt.Errorf("domino: field %q bound to negative container %d", name, c)
		}
		if other, ok := owner[c]; ok {
			return nil, fmt.Errorf("domino: fields %q and %q are both bound to container %d", other, name, c)
		}
		owner[c] = name
		if c > b.lastCont {
			b.last, b.lastCont = name, c
		}
	}
	b.code = resolve(p, w, fields)
	return b, nil
}

// Lowered returns the transaction as the flat program every instance runs,
// for its length and disassembly.
func (b *Binding) Lowered() *flat.Program { return b.code.prog }

// NewSpec returns a specification instance with freshly initialized state.
func (b *Binding) NewSpec() *PHVSpec { return &PHVSpec{b: b, machine: newMachine(b.code)} }

// PHVSpec adapts a Domino program to sim.Spec: inputs are PHVs whose
// containers are mapped to packet fields through a FieldMap.
type PHVSpec struct {
	b       *Binding
	machine *Machine
}

// NewPHVSpec is Bind followed by NewSpec, for callers with one instance.
func NewPHVSpec(p *Program, fields FieldMap, w phv.Width) (*PHVSpec, error) {
	b, err := Bind(p, fields, w)
	if err != nil {
		return nil, err
	}
	return b.NewSpec(), nil
}

// Name implements sim.Spec.
func (s *PHVSpec) Name() string {
	if s.b.prog.Name != "" {
		return s.b.prog.Name
	}
	return "domino"
}

// Reset implements sim.Spec.
func (s *PHVSpec) Reset() { s.machine.Reset() }

// State returns the current value of a state variable.
func (s *PHVSpec) State(name string) (int64, bool) { return s.machine.State(name) }

// Process implements sim.Spec: the transaction runs on a copy of the input
// PHV, reading and writing the containers its fields are bound to (other
// containers pass through unchanged).
func (s *PHVSpec) Process(in *phv.PHV) (*phv.PHV, error) {
	out := in.Clone()
	if err := s.ProcessStream(out.Raw()); err != nil {
		return nil, err
	}
	return out, nil
}

// ProcessStream implements sim.StreamSpec: the transaction runs directly on
// vals, the containers its fields are bound to; when it fails, vals and the
// state keep what the statements before the failing one wrote, as with
// Machine.Step. Steady state allocates nothing.
//
//dvet:hotpath allocs=0
func (s *PHVSpec) ProcessStream(vals []phv.Value) error {
	if s.b.lastCont >= len(vals) {
		return s.b.rangeError(len(vals))
	}
	return s.machine.step(vals)
}

func (b *Binding) rangeError(n int) error {
	return fmt.Errorf("domino: field %q bound to container %d, PHV has %d", b.last, b.lastCont, n)
}
