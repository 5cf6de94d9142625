package domino

import (
	"strings"
	"testing"

	"druzhba/internal/flat"
	"druzhba/internal/phv"
)

// TestOnlyUnprovenReadsKeepACheck pins what the definite-assignment analysis
// buys: a bound program whose locals are assigned on every path lowers to
// code with no Trap and no flag register, and a local assigned on one path
// only keeps exactly one checked read (and the flag writes that feed it). A
// field read is never checked: the PHV always holds the field.
func TestOnlyUnprovenReadsKeepACheck(t *testing.T) {
	for _, tc := range []struct {
		name, src    string
		traps, flags int
		instructions int
	}{
		{"sampling", samplingSrc, 0, 0, 7},
		{"local assigned on both paths",
			"transaction { if (pkt.a == 1) { int t = 5; } else { int t = pkt.a; } pkt.b = t; }", 0, 0, 6},
		{"local assigned on one path",
			"transaction { if (pkt.a == 1) { int t = 5; } pkt.b = t; }", 1, 1, 6},
	} {
		p, err := Parse(tc.src)
		if err != nil {
			t.Fatal(err)
		}
		c := bindAll(t, p, phv.Default32).b.code
		listing := c.prog.String()
		if got := strings.Count(listing, "trap"); got != tc.traps || len(c.errs) != tc.traps || len(c.flags) != tc.flags || c.prog.Len() != tc.instructions {
			t.Errorf("%s: %d traps (%d errors), %d flags, %d instructions; want %d, %d, %d:\n%s",
				tc.name, got, len(c.errs), len(c.flags), c.prog.Len(), tc.traps, tc.flags, tc.instructions, listing)
		}
	}
}

// TestUnboundFieldIsATrap: Bind checks the fields the parser saw, so only a
// hand-built AST can name a field no container is bound to. Reading or
// writing one lowers to an unconditional Trap, as any node the lowering
// cannot make sense of does: the packet fails with the error Bind gives for
// the field, after the statements before it, and no flag is kept for it.
func TestUnboundFieldIsATrap(t *testing.T) {
	field := func(name string) Target { return Target{Kind: TargetField, Name: name} }
	for _, tc := range []struct {
		name string
		body []Stmt
	}{
		{"read", []Stmt{&Assign{field("a"), &Bin{Op: BAdd, X: &Ref{Kind: RefField, Name: "ghost"}, Y: &Lit{1}}}}},
		{"write", []Stmt{&Assign{field("a"), &Lit{7}}, &Assign{field("ghost"), &Lit{1}}}},
	} {
		b, err := Bind(&Program{Body: tc.body}, FieldMap{"a": 0}, phv.Default32)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if c := b.code; len(c.errs) != 1 || len(c.flags) != 0 || len(c.bound) != 1 {
			t.Errorf("%s: %d errors, %d flags, %d bound fields; want one unconditional trap and field a:\n%s", tc.name, len(c.errs), len(c.flags), len(c.bound), c.prog)
		}
		vals := []phv.Value{3}
		const want = `domino: field "ghost" is not bound to a container`
		if err := b.NewSpec().ProcessStream(vals); err == nil || err.Error() != want {
			t.Errorf("%s: ProcessStream error %v, want %s", tc.name, err, want)
		}
		if tc.name == "write" && vals[0] != 7 {
			t.Errorf("write: pkt.a = %d after the trap, want the 7 written before it", vals[0])
		}
	}
}

// TestLinkListingAndRefusals: a linked transaction reads the containers it
// only reads in their registers, copies in the ones it writes, and names the
// registers Want reports; a field bound past the containers it is given is
// the error ProcessStream returns for a PHV that short, and a program of
// another width does not link.
func TestLinkListingAndRefusals(t *testing.T) {
	p, err := Parse("state s = 0;\ntransaction { s = s + pkt.a; pkt.b = s; pkt.a = pkt.a + 1; }")
	if err != nil {
		t.Fatal(err)
	}
	b, err := Bind(p, FieldMap{"a": 0, "b": 1, "c": 2}, phv.Default32)
	if err != nil {
		t.Fatal(err)
	}
	pipe := func(w phv.Width) *flat.Program {
		fb := flat.NewBuilder(w)
		fb.Regs("in", 3)
		prog, err := fb.Build()
		if err != nil {
			t.Fatal(err)
		}
		return prog
	}
	l, err := b.Link(pipe(phv.Default32), []int{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	const listing = `  0  mov  pkt.a, in0
  1  add  s, s, pkt.a
  2  mov  pkt.b, s
  3  add  pkt.a, pkt.a, #1
`
	if got := l.String(); got != listing || l.RegName(l.Want[0]) != "pkt.a" || l.RegName(l.Want[1]) != "pkt.b" || l.Want[2] != 2 || l.Trap != -1 || l.Clear != nil {
		t.Errorf("linked:\n%s\nwant:\n%s\nWant %v, Trap %d, Clear %v", got, listing, l.Want, l.Trap, l.Clear)
	}
	if _, err := b.Link(pipe(phv.Default32), []int{0, 1}); err == nil || err.Error() != b.NewSpec().ProcessStream(make([]phv.Value, 2)).Error() {
		t.Errorf("two containers for a field bound to container 2: %v", err)
	}
	if _, err := b.Link(pipe(phv.MustWidth(8)), []int{0, 1, 2}); err == nil || !strings.Contains(err.Error(), "32-bit program after a 8-bit one") {
		t.Errorf("a 32-bit transaction after an 8-bit program: %v", err)
	}
}

// TestBinaryOperatorsAreFlatOpcodes pins what the lowering's flat.Op(e.Op)
// conversion relies on: Domino's arithmetic and comparison operators are
// numbered as flat's opcodes for them, and && and || — lowered as branches,
// not converted — are the two after them.
func TestBinaryOperatorsAreFlatOpcodes(t *testing.T) {
	pairs := []struct {
		dom BinKind
		op  flat.Op
	}{
		{BAdd, flat.Add}, {BSub, flat.Sub}, {BMul, flat.Mul}, {BDiv, flat.Div}, {BMod, flat.Mod},
		{BEq, flat.Eq}, {BNeq, flat.Ne}, {BLt, flat.Lt}, {BGt, flat.Gt}, {BLe, flat.Le}, {BGe, flat.Ge},
	}
	for _, p := range pairs {
		if int(p.dom) != int(p.op) {
			t.Errorf("Domino operator %d lowers to flat opcode %d, the lowering converts it to %d", int(p.dom), int(p.op), int(p.dom))
		}
	}
	if BAnd != BGe+1 || BOr != BAnd+1 {
		t.Errorf("&& and || are operators %d and %d, want %d and %d", BAnd, BOr, BGe+1, BGe+2)
	}
}

// TestLayoutRunsAsAPHVSpec: the transaction linked after a block of input
// registers, run on a frame set up as its Linked says — the packet in the
// input registers, Clear at zero — leaves in Want and in each state
// variable's register (StateReg) what a PHVSpec fed the same packets leaves,
// through a packet on which the specification fails with the error Error
// names; StoreState hands the state to another instance of the binding.
func TestLayoutRunsAsAPHVSpec(t *testing.T) {
	p, err := Parse(`state c = 3;
transaction { c = c + pkt.a; if (pkt.a == 1) { int x = c; } pkt.b = x; }`)
	if err != nil {
		t.Fatal(err)
	}
	w := phv.MustWidth(8)
	b, err := Bind(p, FieldMap{"a": 0, "b": 2}, w)
	if err != nil {
		t.Fatal(err)
	}
	fb := flat.NewBuilder(w)
	in := fb.Regs("in", 3)
	block, err := fb.Build()
	if err != nil {
		t.Fatal(err)
	}
	l, err := b.Link(block, []int{in, in + 1, in + 2})
	if err != nil {
		t.Fatal(err)
	}
	if l.Want[1] != in+1 || len(l.Clear) != 2 || l.Clear[1] != l.Trap || l.StateReg("c") < 0 || l.StateReg("x") != -1 {
		t.Fatalf("Want %v, Clear %v, Trap %d: want container 1 read in place, one flag and the error register to clear, and a register for c alone",
			l.Want, l.Clear, l.Trap)
	}
	spec, frame := b.NewSpec(), l.NewFrame()
	for i, a := range []int64{1, 0, 1, 1} {
		vals := []int64{a, 7, 9}
		copy(frame[in:], vals)
		for _, r := range l.Clear {
			frame[r] = 0
		}
		l.Run(frame)
		want, err := spec.Process(phv.FromValues(vals))
		if (err != nil) != (a == 0) || (frame[l.Trap] != 0) != (a == 0) {
			t.Fatalf("packet %d: spec error %v, trap code %d", i, err, frame[l.Trap])
		}
		if err != nil && l.Error(frame[l.Trap]).Error() != err.Error() {
			t.Errorf("packet %d: trap %q, PHVSpec %q", i, l.Error(frame[l.Trap]), err)
		}
		handed := spec.Binding().NewSpec()
		l.StoreState(frame, handed)
		if got, _ := handed.State("c"); got != frame[l.StateReg("c")] {
			t.Errorf("packet %d: StoreState hands over c = %d, the frame holds %d", i, got, frame[l.StateReg("c")])
		}
		if err == nil && frame[l.Want[2]] != want.Get(2) {
			t.Errorf("packet %d: pkt.b %d, PHVSpec %d", i, frame[l.Want[2]], want.Get(2))
		}
		if c, _ := spec.State("c"); frame[l.StateReg("c")] != c {
			t.Errorf("packet %d: c %d, PHVSpec %d", i, frame[l.StateReg("c")], c)
		}
	}
}
