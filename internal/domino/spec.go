package domino

import (
	"fmt"
	"slices"
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
			return nil, unboundField(name)
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

// unboundField is the error for a field no container is bound to: Bind's for
// a field the parser saw, a Trap's for one only a hand-built AST names.
func unboundField(name string) error {
	return fmt.Errorf("domino: field %q is not bound to a container", name)
}

// NewSpec returns a specification instance with freshly initialized state.
func (b *Binding) NewSpec() *PHVSpec { return &PHVSpec{b: b, frame: b.code.prog.NewFrame()} }

// Linked is the transaction linked after another program (flat.Link), the
// two run as one on one frame: the Fig. 5 oracle package sim runs, the
// pipeline's fused output cone with the specification after it. The
// transaction reads the cone's input registers in place, and its bound fields
// are compared with the cone's output registers where they lie. Like the
// Binding it is immutable and shared; a frame holds one instance's state
// while it runs, and StoreState hands it back.
type Linked struct {
	*flat.Program
	// Want[c] is the register holding container c's expected value after
	// Run: the field's register where the transaction writes the field, the
	// input register where it only reads it or names no field there.
	Want []int
	// Trap is the register a Trap leaves its code in (Error maps the code to
	// its error), -1 when the transaction cannot trap. Clear are the
	// registers a packet starts with at zero where it can: the "assigned"
	// flags and the error register.
	Trap  int
	Clear []int
	// State are the registers of the state variables, where StoreState
	// reads them: what a frame carries from one packet to the next.
	State []int

	b     *Binding
	regs  []int // regs[r]: where the transaction's register r lives in the frame
	state []int // state[i]: the transaction's register State[i] is read into
}

// Link links the transaction after prog, given the register of prog holding
// each input container (in[c]). A field bound to a container past in is the
// error ProcessStream returns for a PHV that short.
func (b *Binding) Link(prog *flat.Program, in []int) (*Linked, error) {
	if b.lastCont >= len(in) {
		return nil, b.rangeError(len(in))
	}
	c := b.code
	bind := make(map[int]int, len(c.bound))
	for _, f := range c.bound {
		bind[f.reg] = in[f.container]
	}
	p, regs, err := flat.Link(prog, c.prog, bind)
	if err != nil {
		return nil, err
	}
	l := &Linked{Program: p, Want: slices.Clone(in), Trap: -1, b: b, regs: regs}
	for _, f := range c.bound {
		l.Want[f.container] = regs[f.reg]
	}
	l.state, l.State = make([]int, 0, len(c.state)), make([]int, len(c.state))
	for _, r := range c.state {
		l.state = append(l.state, r)
	}
	slices.Sort(l.state)
	for i, r := range l.state {
		l.State[i] = regs[r]
	}
	if len(c.errs) > 0 {
		l.Trap = regs[c.errReg]
		for _, r := range c.flags {
			l.Clear = append(l.Clear, regs[r])
		}
		l.Clear = append(l.Clear, l.Trap)
	}
	return l, nil
}

// StateReg returns the register of the state variable name in the program
// Link returned, -1 when the transaction declares no such variable.
func (l *Linked) StateReg(name string) int {
	if r, ok := l.b.code.state[name]; ok {
		return l.regs[r]
	}
	return -1
}

// Error returns the error of the code a Trap left in the Trap register.
func (l *Linked) Error(code int64) error { return l.b.code.errs[code-1] }

// StoreState copies the state variables from the frame's State registers
// into s, an instance of the Binding l was linked from: s then reads as if
// it had processed the frame's packets itself. A caller that moved where a
// variable ends (flat.Optimize's end map) sets State to where it is.
func (l *Linked) StoreState(frame []int64, s *PHVSpec) {
	for i, at := range l.State {
		s.frame[l.state[i]] = frame[at]
	}
}

// PHVSpec adapts a Domino program to sim.Spec: inputs are PHVs whose
// containers are mapped to packet fields through a FieldMap. It is the
// transaction's only runner: the Binding's lowered program run packet by
// packet on the instance's frame, which carries the state variables from one
// packet to the next ("program spec" of Fig. 5). The map-based AST walk it is
// tested against lives in reference_test.go.
type PHVSpec struct {
	b     *Binding
	frame []int64
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

// Binding returns the binding the instance was made from.
func (s *PHVSpec) Binding() *Binding { return s.b }

// Reset implements sim.Spec: every state variable is back at its declared
// initial value.
func (s *PHVSpec) Reset() { s.b.code.prog.Reset(s.frame) }

// State returns the current value of a state variable.
func (s *PHVSpec) State(name string) (int64, bool) {
	r, ok := s.b.code.state[name]
	if !ok {
		return 0, false
	}
	return s.frame[r], true
}

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
// vals, reading and writing in place the containers its fields are bound to;
// when it fails, vals and the state keep what the statements before the
// failing one wrote. Steady state allocates nothing.
//
//dvet:hotpath allocs=0
func (s *PHVSpec) ProcessStream(vals []phv.Value) error {
	if s.b.lastCont >= len(vals) {
		return s.b.rangeError(len(vals))
	}
	c, frame := s.b.code, s.frame
	for _, f := range c.bound {
		frame[f.reg] = vals[f.container]
	}
	c.prog.Run(frame)
	for _, f := range c.bound {
		vals[f.container] = frame[f.reg]
	}
	if len(c.errs) == 0 {
		return nil // no Trap: nothing reads a flag on this path, nothing to report
	}
	return c.finish(frame)
}

func (b *Binding) rangeError(n int) error {
	return fmt.Errorf("domino: field %q bound to container %d, PHV has %d", b.last, b.lastCont, n)
}
