// Package machinecode represents Druzhba machine code: "a list of string and
// integer pairs that specify ALUs' control flow and computational behavior"
// (§3.1). Each pair's string names one hardware primitive — an ALU-internal
// hole, an operand (input) mux, or an output mux — and encodes the
// primitive's position within the pipeline; the integer determines the
// primitive's behaviour.
package machinecode

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync/atomic"
)

// Pair is one machine code entry.
type Pair struct {
	Name  string
	Value int64
}

// Program is an ordered collection of machine code pairs. The order is the
// order pairs were added (or appeared in the input file); lookup is by name.
type Program struct {
	pairs  []Pair
	index  map[string]int
	digest atomic.Pointer[string] // Digest's text; nil until read, and again after an edit
}

// New returns an empty machine code program.
func New() *Program {
	return &Program{index: map[string]int{}}
}

// Set adds or replaces the pair for name.
func (p *Program) Set(name string, value int64) {
	p.digest.Store(nil)
	if i, ok := p.index[name]; ok {
		p.pairs[i].Value = value
		return
	}
	p.index[name] = len(p.pairs)
	p.pairs = append(p.pairs, Pair{Name: name, Value: value})
}

// Get returns the value for name and whether it exists.
func (p *Program) Get(name string) (int64, bool) {
	i, ok := p.index[name]
	if !ok {
		return 0, false
	}
	return p.pairs[i].Value, true
}

// GetBytes is Get for a name held in bytes; the lookup does not allocate.
func (p *Program) GetBytes(name []byte) (int64, bool) {
	i, ok := p.index[string(name)]
	if !ok {
		return 0, false
	}
	return p.pairs[i].Value, true
}

// Delete removes the pair for name if present. It reports whether a pair
// was removed. (Used by the case-study harness to reproduce the
// missing-output-mux failure class of §5.2.)
func (p *Program) Delete(name string) bool {
	i, ok := p.index[name]
	if !ok {
		return false
	}
	p.digest.Store(nil)
	p.pairs = append(p.pairs[:i], p.pairs[i+1:]...)
	delete(p.index, name)
	for j := i; j < len(p.pairs); j++ {
		p.index[p.pairs[j].Name] = j
	}
	return true
}

// Has reports whether a pair for name exists.
func (p *Program) Has(name string) bool {
	_, ok := p.index[name]
	return ok
}

// Len reports the number of pairs.
func (p *Program) Len() int { return len(p.pairs) }

// Names returns the pair names in insertion order.
func (p *Program) Names() []string {
	out := make([]string, len(p.pairs))
	for i, pr := range p.pairs {
		out[i] = pr.Name
	}
	return out
}

// Clone deep-copies the program.
func (p *Program) Clone() *Program {
	q := New()
	for _, pr := range p.pairs {
		q.Set(pr.Name, pr.Value)
	}
	return q
}

// Merge copies every pair of other into p, overwriting duplicates.
func (p *Program) Merge(other *Program) {
	for _, pr := range other.pairs {
		p.Set(pr.Name, pr.Value)
	}
}

// Digest returns the hex SHA-256 of String's text. It is computed on the
// first call after a load or an edit (Set, Delete, and Merge and Clone
// through Set) and kept, so a program shared by many jobs is hashed once:
// campaign fingerprints, and so every shard-cache key, hash this digest
// in place of the text.
func (p *Program) Digest() string {
	if d := p.digest.Load(); d != nil {
		return *d
	}
	h := sha256.New()
	p.Write(h) //nolint:errcheck // a hash never fails a write
	d := hex.EncodeToString(h.Sum(nil))
	p.digest.Store(&d)
	return d
}

// String renders the program in the text file format, one "name = value"
// line per pair. Digest hashes these bytes, streamed through Write, so they
// must not change.
func (p *Program) String() string {
	var b strings.Builder
	p.Write(&b) //nolint:errcheck // a strings.Builder never fails a write
	return b.String()
}

// Write streams String's text to w a few pairs at a time through one small
// buffer, so the whole text is never held: no write is longer than 1 KiB
// unless one line is.
func (p *Program) Write(w io.Writer) error {
	const chunk = 1 << 10
	buf := make([]byte, 0, chunk)
	for _, pr := range p.pairs {
		if len(buf) > 0 && len(buf)+len(pr.Name)+len(" = \n")+20 > chunk {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
		buf = append(append(buf, pr.Name...), " = "...)
		buf = append(strconv.AppendInt(buf, pr.Value, 10), '\n')
	}
	if len(buf) == 0 {
		return nil
	}
	_, err := w.Write(buf)
	return err
}

// Parse reads the text format: one "name = value" pair per line, '#' or
// "//" comments, blank lines ignored. A bare "name,value" form is accepted
// too. A name may appear once: machine code is the output of the compiler
// under test, and two values for one primitive are its bug to report, not
// the parser's to resolve.
func Parse(r io.Reader) (*Program, error) {
	p := New()
	lines := map[string]int{} // name -> the line it was set on
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if i := strings.Index(line, "#"); i >= 0 {
			line = line[:i]
		}
		if i := strings.Index(line, "//"); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		var name, val string
		switch {
		case strings.Contains(line, "="):
			parts := strings.SplitN(line, "=", 2)
			name, val = strings.TrimSpace(parts[0]), strings.TrimSpace(parts[1])
		case strings.Contains(line, ","):
			parts := strings.SplitN(line, ",", 2)
			name, val = strings.TrimSpace(parts[0]), strings.TrimSpace(parts[1])
		default:
			return nil, fmt.Errorf("machinecode: line %d: want \"name = value\", got %q", lineNo, line)
		}
		if name == "" {
			return nil, fmt.Errorf("machinecode: line %d: empty name", lineNo)
		}
		n, err := strconv.ParseInt(val, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("machinecode: line %d: bad value %q: %v", lineNo, val, err)
		}
		if first, ok := lines[name]; ok {
			return nil, fmt.Errorf("machinecode: line %d: duplicate pair %q (first on line %d)", lineNo, name, first)
		}
		lines[name] = lineNo
		p.Set(name, n)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("machinecode: line %d: %v", lineNo+1, err)
	}
	return p, nil
}

// ParseString is Parse over a string.
func ParseString(s string) (*Program, error) {
	return Parse(strings.NewReader(s))
}

// --- Naming convention -------------------------------------------------------
//
// §3.2: "our actual machine code strings also indicate the pipeline stage and
// the position within that stage the hardware primitive for that string
// resides in". These helpers are the single source of truth for that
// convention.

// KindName is the stateful/stateless segment used in primitive names.
func KindName(stateful bool) string {
	if stateful {
		return "stateful"
	}
	return "stateless"
}

// ALUHoleName names an ALU-internal hole (a builtin call site or a declared
// hole variable) for the ALU at (stage, slot).
func ALUHoleName(stage int, stateful bool, slot int, hole string) string {
	return string(AppendALUHoleName(make([]byte, 0, 64), stage, stateful, slot, hole))
}

// AppendALUHoleName appends ALUHoleName's name to dst.
func AppendALUHoleName(dst []byte, stage int, stateful bool, slot int, hole string) []byte {
	return append(appendALUName(dst, stage, stateful, slot), hole...)
}

// OperandMuxName names the input mux feeding operand index op of the ALU at
// (stage, slot). Its value selects a PHV container.
func OperandMuxName(stage int, stateful bool, slot int, op int) string {
	return string(AppendOperandMuxName(make([]byte, 0, 64), stage, stateful, slot, op))
}

// AppendOperandMuxName appends OperandMuxName's name to dst.
func AppendOperandMuxName(dst []byte, stage int, stateful bool, slot int, op int) []byte {
	dst = append(appendALUName(dst, stage, stateful, slot), "operand_mux_"...)
	return strconv.AppendInt(dst, int64(op), 10)
}

// OutputMuxName names the output mux that writes PHV container c at the end
// of a stage. Value 0 keeps the container's old value; values 1..width pick
// a stateless ALU output; values width+1..2*width pick a stateful ALU output.
func OutputMuxName(stage, container int) string {
	return string(AppendOutputMuxName(make([]byte, 0, 64), stage, container))
}

// AppendOutputMuxName appends OutputMuxName's name to dst.
func AppendOutputMuxName(dst []byte, stage, container int) []byte {
	dst = strconv.AppendInt(append(dst, "pipeline_stage_"...), int64(stage), 10)
	dst = append(dst, "_output_mux_phv_"...)
	return strconv.AppendInt(dst, int64(container), 10)
}

// appendALUName appends the prefix every name of the ALU at (stage, slot)
// starts with, up to and including the '_' before the primitive's own part.
func appendALUName(dst []byte, stage int, stateful bool, slot int) []byte {
	dst = strconv.AppendInt(append(dst, "pipeline_stage_"...), int64(stage), 10)
	dst = append(append(append(dst, '_'), KindName(stateful)...), "_alu_"...)
	return append(strconv.AppendInt(dst, int64(slot), 10), '_')
}
