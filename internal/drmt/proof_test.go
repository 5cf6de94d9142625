package drmt

import (
	"fmt"
	"strings"
	"testing"

	"druzhba/internal/bv"
	"druzhba/internal/flat"
	"druzhba/internal/sat"
)

// proof_test.go proves what the differential fuzzer samples: on a linked
// program of two sides, for every packet, every bank state and whatever the
// other registers hold from the packet before, the two sides agree on every
// field and the drop flag, no trap fires, and the banks they share start and
// end equal. The banks are the only state a packet hands on, so this covers
// every stream (ROADMAP item 2(a)).

// agreement is one such theorem about a linked program.
type agreement struct {
	code   *flat.Program
	inputs map[int]int // the packet's field registers, with their widths
	pairs  [][2]int    // registers that must end equal
	shared [][3]int    // register pairs that start and must end equal, with their width
	trap   int         // where a trap leaves its code, -1 for none
}

// diffAgreement is the theorem of a differential fuzzer's oracle, read from
// its inputs, pairs and trap register: the fields and the drop flag of the
// ISA side and the table side agree, and their banks stay equal.
func diffAgreement(f *DiffFuzzer) *agreement {
	o := f.oracle
	a := &agreement{code: o.Program(), inputs: map[int]int{}, trap: o.Trap()}
	first, _ := o.Inputs()
	for slot, w := range f.layout.fieldW {
		a.inputs[first+slot] = w.Bits()
	}
	for _, p := range o.Pairs() {
		a.pairs = append(a.pairs, [2]int{p.Got, p.Want})
	}
	for i, name := range f.isa.isa.RegArrays {
		j := f.layout.regIdx[name]
		isaBank, tabBank := f.isa.banks[i], f.tab.banks[j]
		for c := 0; c < isaBank[1]; c++ {
			a.shared = append(a.shared, [3]int{isaBank[0] + c, f.tabReg(tabBank[0] + c), f.layout.regW[j].Bits()})
		}
	}
	return a
}

// tabReg returns where register r of the table side, one the link does not
// rename (a bank cell), lives in the fuzzer's linked frame: after the ISA
// side's registers.
func (f *DiffFuzzer) tabReg(r int) int { return len(f.isa.code.NewFrame()) + r }

// proof is the outcome of proving an agreement: the refuting frame, nil when
// the theorem holds, and what the proof cost.
type proof struct {
	cex          []int64
	gates, emit  int
	vars, clause int
}

// prove decides the agreement. A register of the frame is a free 64-bit
// vector, an input field a free vector of its width and each shared pair one
// free vector of its width; a constant is its value. The proof asserts the
// negation of the theorem: unsatisfiable is a proof, a model a frame that
// refutes it.
func (a *agreement) prove(t *testing.T) proof {
	t.Helper()
	b := bv.NewBuilder(sat.New())
	free := func(bits int) bv.Vec {
		v := b.Var(bits)
		for len(v) < flat.SymBits {
			v = append(v, b.False())
		}
		return v
	}
	start := map[int]bv.Vec{}
	for r, bits := range a.inputs {
		start[r] = free(bits)
	}
	for _, s := range a.shared {
		start[s[0]] = free(s[2])
		start[s[1]] = start[s[0]]
	}
	frame := a.code.SymFrame(b, flat.SymBits, func(r int) bv.Vec {
		if v, ok := start[r]; ok {
			return v
		}
		return b.Var(flat.SymBits)
	})
	out, trapped := a.code.Sym(b, frame)
	holds := trapped.Not()
	for _, p := range a.pairs {
		holds = b.And(holds, b.Eq(out[p[0]], out[p[1]]))
	}
	for _, s := range a.shared {
		holds = b.And(holds, b.Eq(out[s[0]], out[s[1]]))
	}
	b.Assert(holds.Not())
	st := b.Solve()
	var pr proof
	pr.gates, pr.emit = b.Gates()
	pr.vars, pr.clause = b.S.NumVars(), b.S.NumClauses()
	switch st {
	case sat.Unsat:
		return pr
	case sat.Sat:
		pr.cex = make([]int64, len(frame))
		for r, v := range frame {
			pr.cex[r] = b.Value(v)
		}
		return pr
	}
	t.Fatalf("the solver gave up: %v", st)
	return pr
}

// replay runs the linked program on a refuting frame and returns how the
// theorem fails there, "" when it does not.
func (a *agreement) replay(cex []int64) string {
	r := append([]int64(nil), cex...)
	a.code.Run(r)
	var out []string
	if a.trap >= 0 && r[a.trap] != cex[a.trap] {
		out = append(out, fmt.Sprintf("trap %d", r[a.trap]))
	}
	for _, p := range append(a.pairs, sharedPairs(a.shared)...) {
		if r[p[0]] != r[p[1]] {
			out = append(out, fmt.Sprintf("%s=%d vs %s=%d", a.code.RegName(p[0]), r[p[0]], a.code.RegName(p[1]), r[p[1]]))
		}
	}
	return strings.Join(out, ", ")
}

func sharedPairs(shared [][3]int) [][2]int {
	var out [][2]int
	for _, s := range shared {
		out = append(out, [2]int{s[0], s[1]})
	}
	return out
}

// TestLinkedPairProved proves, on every benchmark's linked program, that the
// ISA side and the table side agree on every packet from every bank state.
func TestLinkedPairProved(t *testing.T) {
	for _, bm := range Benchmarks() {
		t.Run(bm.Name, func(t *testing.T) {
			prog, err := bm.Program()
			if err != nil {
				t.Fatal(err)
			}
			entries, err := bm.Entries(prog)
			if err != nil {
				t.Fatal(err)
			}
			f, err := NewDiffFuzzer(prog, nil, entries, bm.HW)
			if err != nil {
				t.Fatal(err)
			}
			a := diffAgreement(f)
			pr := a.prove(t)
			if pr.cex != nil {
				t.Fatalf("refuted: %s\n%s", a.replay(pr.cex), a.code)
			}
			t.Logf("proved: %d gates built, %d emitted, %d vars, %d clauses", pr.gates, pr.emit, pr.vars, pr.clause)
		})
	}
}

// TestLinkedPairRefutesTheCanary is the proof's negative control: l2l3 with
// its 8-bit ALU add (the ttl decrement) assembled as a subtract is refuted,
// and the refuting packet and bank state replay through the linked program
// as a real mismatch of a field pair.
func TestLinkedPairRefutesTheCanary(t *testing.T) {
	prog, entries := loadL2L3(t)
	isa, err := Assemble(prog)
	if err != nil {
		t.Fatal(err)
	}
	bad, err := MiscompileALUAdd(isa, 8)
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewDiffFuzzer(prog, bad, entries, HWConfig{Processors: 4})
	if err != nil {
		t.Fatal(err)
	}
	a := diffAgreement(f)
	pr := a.prove(t)
	if pr.cex == nil {
		t.Fatal("the miscompiled program was proved to agree with the table-level machine")
	}
	got := a.replay(pr.cex)
	if !strings.Contains(got, "ipv4.ttl'") || strings.Contains(got, "trap") {
		t.Fatalf("the counterexample replays as %q, want a mismatch on ipv4.ttl and no trap", got)
	}
	fields := pr.cex[f.isa.in : f.isa.in+f.layout.NumFields()]
	t.Logf("refuted on %s: %s", f.layout.FormatSlots(fields, false), got)
}
