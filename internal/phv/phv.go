// Package phv models packet header vectors (PHVs), the unit of data that
// flows through a Druzhba pipeline.
//
// A PHV is a vector of containers, each holding one packet field or metadata
// field as an unsigned integer of a configurable bit width. All arithmetic
// performed on container values wraps modulo 2^width, mirroring the
// fixed-width datapaths of switching chips.
package phv

import (
	"fmt"
	"strings"
)

// Value is the scalar carried by one PHV container or one state slot.
// It is stored in an int64 but always holds an unsigned value already
// masked to the pipeline's bit width.
type Value = int64

// Width describes the bit width of every container and state slot in a
// pipeline. The zero Width is not valid; use NewWidth.
type Width struct {
	bits int
	mask int64
}

// NewWidth returns a Width for bit widths between 1 and 62 inclusive.
func NewWidth(bits int) (Width, error) {
	if bits < 1 || bits > 62 {
		return Width{}, fmt.Errorf("phv: bit width %d out of range [1,62]", bits)
	}
	return Width{bits: bits, mask: (int64(1) << uint(bits)) - 1}, nil
}

// MustWidth is NewWidth for known-good constants; it panics on error.
func MustWidth(bits int) Width {
	w, err := NewWidth(bits)
	if err != nil {
		panic(err)
	}
	return w
}

// Default32 is the default 32-bit datapath width.
var Default32 = MustWidth(32)

// Bits reports the number of bits in the width.
func (w Width) Bits() int { return w.bits }

// Mask returns the value mask (2^bits - 1).
func (w Width) Mask() int64 { return w.mask }

// Valid reports whether the width was constructed with NewWidth.
func (w Width) Valid() bool { return w.mask != 0 }

// Trunc masks v to the width, interpreting v as a two's-complement bit
// pattern. Negative intermediate results therefore wrap the same way
// hardware subtraction does.
func (w Width) Trunc(v int64) Value { return v & w.mask }

// Add returns (a+b) mod 2^bits.
func (w Width) Add(a, b Value) Value { return (a + b) & w.mask }

// Sub returns (a-b) mod 2^bits.
func (w Width) Sub(a, b Value) Value { return (a - b) & w.mask }

// Mul returns (a*b) mod 2^bits.
func (w Width) Mul(a, b Value) Value { return (a * b) & w.mask }

// Div returns a/b, or 0 when b is 0 (total division, as in Banzai).
func (w Width) Div(a, b Value) Value {
	if b == 0 {
		return 0
	}
	return (a / b) & w.mask
}

// Mod returns a%b, or 0 when b is 0.
func (w Width) Mod(a, b Value) Value {
	if b == 0 {
		return 0
	}
	return (a % b) & w.mask
}

// Bool converts a Go bool to the DSL's 0/1 encoding.
func Bool(b bool) Value {
	if b {
		return 1
	}
	return 0
}

// Truthy reports whether a DSL value is treated as true.
func Truthy(v Value) bool { return v != 0 }

// PHV is one packet header vector: a fixed-length vector of containers.
type PHV struct {
	containers []Value
}

// New returns a PHV with n zeroed containers.
func New(n int) *PHV {
	return &PHV{containers: make([]Value, n)}
}

// FromValues returns a PHV holding a copy of vals.
func FromValues(vals []Value) *PHV {
	c := make([]Value, len(vals))
	copy(c, vals)
	return &PHV{containers: c}
}

// Len reports the number of containers.
func (p *PHV) Len() int { return len(p.containers) }

// Get returns container i.
func (p *PHV) Get(i int) Value { return p.containers[i] }

// Set stores v into container i.
func (p *PHV) Set(i int, v Value) { p.containers[i] = v }

// Values returns a copy of the container vector.
func (p *PHV) Values() []Value {
	out := make([]Value, len(p.containers))
	copy(out, p.containers)
	return out
}

// Raw returns the underlying container slice without copying. Callers must
// not retain it across mutations of the PHV.
func (p *PHV) Raw() []Value { return p.containers }

// Clone returns a deep copy of the PHV.
func (p *PHV) Clone() *PHV { return FromValues(p.containers) }

// Equal reports whether two PHVs hold identical container vectors.
func (p *PHV) Equal(q *PHV) bool {
	if p.Len() != q.Len() {
		return false
	}
	for i, v := range p.containers {
		if q.containers[i] != v {
			return false
		}
	}
	return true
}

// String renders the PHV as "[v0 v1 ...]".
func (p *PHV) String() string {
	var b strings.Builder
	b.WriteByte('[')
	for i, v := range p.containers {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d", v)
	}
	b.WriteByte(']')
	return b.String()
}

// Trace is an ordered sequence of PHVs: the input trace fed into a pipeline
// or specification, or the output trace it produced (§3.3 of the paper).
type Trace struct {
	phvs []*PHV
}

// NewTrace returns an empty trace.
func NewTrace() *Trace { return &Trace{} }

// Append adds a PHV to the trace (the trace takes ownership).
func (t *Trace) Append(p *PHV) { t.phvs = append(t.phvs, p) }

// Len reports the number of PHVs recorded.
func (t *Trace) Len() int { return len(t.phvs) }

// At returns the i-th PHV.
func (t *Trace) At(i int) *PHV { return t.phvs[i] }

// Clone deep-copies the trace.
func (t *Trace) Clone() *Trace {
	out := &Trace{phvs: make([]*PHV, len(t.phvs))}
	for i, p := range t.phvs {
		out.phvs[i] = p.Clone()
	}
	return out
}

// Diff compares two traces and returns a human-readable description of the
// first mismatch, or "" when the traces are identical.
func (t *Trace) Diff(other *Trace) string {
	if t.Len() != other.Len() {
		return fmt.Sprintf("trace length mismatch: %d vs %d", t.Len(), other.Len())
	}
	for i := range t.phvs {
		a, b := t.phvs[i], other.phvs[i]
		if !a.Equal(b) {
			return fmt.Sprintf("PHV %d mismatch: %s vs %s", i, a, b)
		}
	}
	return ""
}

// Equal reports whether two traces are identical.
func (t *Trace) Equal(other *Trace) bool { return t.Diff(other) == "" }

// String renders at most the first 8 PHVs of the trace.
func (t *Trace) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Trace(len=%d)", t.Len())
	for i, p := range t.phvs {
		if i == 8 {
			b.WriteString(" ...")
			break
		}
		b.WriteByte(' ')
		b.WriteString(p.String())
	}
	return b.String()
}

// StateSnapshot is a copy of every stateful ALU's state vector at one moment
// of simulation, indexed [stage][alu][slot].
type StateSnapshot [][][]Value

// Clone deep-copies the snapshot.
func (s StateSnapshot) Clone() StateSnapshot {
	out := make(StateSnapshot, len(s))
	for i, stage := range s {
		out[i] = make([][]Value, len(stage))
		for j, alu := range stage {
			out[i][j] = append([]Value(nil), alu...)
		}
	}
	return out
}

// Equal reports whether two snapshots are identical in shape and content.
func (s StateSnapshot) Equal(o StateSnapshot) bool {
	if len(s) != len(o) {
		return false
	}
	for i := range s {
		if len(s[i]) != len(o[i]) {
			return false
		}
		for j := range s[i] {
			if len(s[i][j]) != len(o[i][j]) {
				return false
			}
			for k := range s[i][j] {
				if s[i][j][k] != o[i][j][k] {
					return false
				}
			}
		}
	}
	return true
}

// String renders the snapshot compactly.
func (s StateSnapshot) String() string {
	var b strings.Builder
	for i, stage := range s {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "stage%d:%v", i, stage)
	}
	return b.String()
}
