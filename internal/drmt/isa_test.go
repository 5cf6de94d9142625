package drmt

import (
	"math"
	"strings"
	"testing"

	"druzhba/internal/p4"
)

// assembleL2L3 parses and assembles the testdata L2/L3 program.
func assembleL2L3(t *testing.T) (*p4.Program, *EntrySet, *ISAProgram) {
	t.Helper()
	prog, entries := loadL2L3(t)
	isa, err := Assemble(prog)
	if err != nil {
		t.Fatal(err)
	}
	return prog, entries, isa
}

func TestAssembleVerifies(t *testing.T) {
	_, _, isa := assembleL2L3(t)
	if err := isa.Verify(); err != nil {
		t.Fatal(err)
	}
	if len(isa.Tables) != 5 {
		t.Fatalf("assembled %d tables, want 5", len(isa.Tables))
	}
	if isa.NumRegs <= RegParam0 {
		t.Fatalf("register file too small: %d", isa.NumRegs)
	}
}

func TestDisassembleMentionsEveryTable(t *testing.T) {
	_, _, isa := assembleL2L3(t)
	asm := isa.Disassemble()
	for _, table := range isa.Tables {
		if !strings.Contains(asm, "match  r2, "+table) {
			t.Errorf("disassembly lacks match on %q", table)
		}
	}
	if !strings.Contains(asm, "halt") {
		t.Error("disassembly lacks halt")
	}
}

func TestVerifyRejectsBackwardJump(t *testing.T) {
	_, _, isa := assembleL2L3(t)
	// Find a forward jump and point it backwards.
	for i, in := range isa.Instrs {
		if in.Op == OpJmp || in.Op == OpBZ || in.Op == OpBNZ {
			bad := *isa
			bad.Instrs = append([]Instr(nil), isa.Instrs...)
			bad.Instrs[i].Target = 0
			err := bad.Verify()
			if err == nil || !strings.Contains(err.Error(), "feedforward") {
				t.Fatalf("backward jump not rejected: %v", err)
			}
			return
		}
	}
	t.Fatal("no branch found in assembled program")
}

func TestVerifyRejectsBadRegister(t *testing.T) {
	_, _, isa := assembleL2L3(t)
	bad := *isa
	bad.Instrs = append([]Instr(nil), isa.Instrs...)
	bad.Instrs[0] = Instr{Op: OpLoadImm, Dst: isa.NumRegs + 3}
	if err := bad.Verify(); err == nil {
		t.Fatal("out-of-range register not rejected")
	}
}

func TestVerifyRejectsJumpPastEnd(t *testing.T) {
	_, _, isa := assembleL2L3(t)
	bad := *isa
	bad.Instrs = append([]Instr(nil), isa.Instrs...)
	for i, in := range bad.Instrs {
		if in.Op == OpJmp {
			bad.Instrs[i].Target = len(bad.Instrs) + 5
			if err := bad.Verify(); err == nil {
				t.Fatal("jump past end not rejected")
			}
			return
		}
	}
	t.Skip("no unconditional jump in program")
}

// TestISADifferentialL2L3 is the headline test: the table-level machine
// and the ISA-level machine must agree packet for packet — every field,
// the drop flag and every register cell — over random traffic through the
// full L2/L3 program.
func TestISADifferentialL2L3(t *testing.T) {
	prog, entries, isa := assembleL2L3(t)
	tableM, err := NewMachine(prog, entries, HWConfig{Processors: 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	isaM, err := NewISAMachine(prog, isa, entries, HWConfig{Processors: 4})
	if err != nil {
		t.Fatal(err)
	}
	sameOnTraffic(t, tableM, isaM, 1234, 3000, 0)
	for _, r := range prog.Registers {
		av, _ := tableM.Register(r.Name)
		bv, _ := isaM.Register(r.Name)
		for i := range av {
			if av[i] != bv[i] {
				t.Fatalf("register %s[%d]: table-level %d, ISA %d", r.Name, i, av[i], bv[i])
			}
		}
	}
}

// TestISADifferentialTargetedTraffic repeats the differential test with
// traffic crafted to hit the interesting entries (small field values so
// exact matches fire often).
func TestISADifferentialTargetedTraffic(t *testing.T) {
	prog, entries, isa := assembleL2L3(t)
	tableM, err := NewMachine(prog, entries, HWConfig{Processors: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	isaM, err := NewISAMachine(prog, isa, entries, HWConfig{Processors: 2})
	if err != nil {
		t.Fatal(err)
	}
	sameOnTraffic(t, tableM, isaM, 77, 2000, 8) // values < 8: heavy entry overlap
}

// sameOnTraffic runs n packets of seeded traffic through both machines, one
// slot vector at a time, and fails on the first packet whose fields or drop
// flag they disagree on.
func sameOnTraffic(t *testing.T, tableM *Machine, isaM *ISAMachine, seed int64, n int, max int64) {
	t.Helper()
	gen, err := NewTrafficGen(seed, tableM.prog, max)
	if err != nil {
		t.Fatal(err)
	}
	l := tableM.Layout()
	a, b := make([]int64, l.NumFields()), make([]int64, l.NumFields())
	for i := 0; i < n; i++ {
		gen.Fill(a)
		copy(b, a)
		tabDropped := tableM.ProcessSlots(a)
		_, isaDropped, err := isaM.ExecSlots(b)
		if err != nil {
			t.Fatalf("packet %d: %v", i, err)
		}
		if got, want := l.FormatSlots(b, isaDropped), l.FormatSlots(a, tabDropped); got != want {
			t.Fatalf("packet %d: ISA %s, table-level %s", i, got, want)
		}
	}
}

// buildCounter parses the counter benchmark fixture (bench.go), which
// exercises parameters, register add and drop in one program.
func buildCounter(t *testing.T) (*p4.Program, *EntrySet) {
	t.Helper()
	prog, err := p4.Parse(counterSrc)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := ParseEntriesString(counterEntries, prog)
	if err != nil {
		t.Fatal(err)
	}
	return prog, entries
}

// TestISAParamsRegistersAndDrop drives hand-picked packets through the
// ISA machine and checks the exact architectural effects: action
// parameters from entries and defaults, register accumulation, drops.
func TestISAParamsRegistersAndDrop(t *testing.T) {
	prog, entries := buildCounter(t)
	m, err := NewISAMachine(prog, nil, entries, HWConfig{Processors: 1})
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int64, 4)
	for i, key := range []int64{
		5, // entry: bump(10) -> tally[1] = 10 (5 wraps to cell 1 of 4)
		5, // bump(10) again -> 20
		3, // toss() -> dropped
		0, // default bump(1) -> tally[0] = 1
	} {
		pkt := (&refPacket{Fields: map[string]int64{"h.key": key}}).slots(m.Layout())
		executed, dropped, err := m.ExecSlots(pkt)
		if err != nil {
			t.Fatal(err)
		}
		if dropped != (i == 2) || executed == 0 {
			t.Fatalf("packet %d: dropped %v after %d instructions", i, dropped, executed)
		}
		counts[i] = field(m.Layout(), pkt, "h.count")
	}
	if counts[0] != 10 || counts[1] != 20 {
		t.Fatalf("register_read results: %d, %d; want 10, 20", counts[0], counts[1])
	}
	cells, ok := m.Register("tally")
	if !ok {
		t.Fatal("missing register")
	}
	if cells[1] != 20 || cells[0] != 1 {
		t.Fatalf("tally = %v; want cell1=20, cell0=1", cells)
	}
}

// TestISAWidthTruncation checks fixed-width wrap semantics end to end: a
// 16-bit register and an 8-bit field truncate independently.
func TestISAWidthTruncation(t *testing.T) {
	prog, err := p4.Parse(`
header_type h_t {
    fields {
        v : 8;
    }
}
header h_t h;

register wide {
    width : 16;
    instance_count : 1;
}

action stash() {
    register_write(wide, 0, 65535);
    register_read(h.v, wide, 0);
}

table t {
    reads { h.v : exact; }
    actions { stash; }
    default_action : stash();
}

control ingress {
    apply(t);
}
`)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := ParseEntriesString("", prog)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewISAMachine(prog, nil, entries, HWConfig{})
	if err != nil {
		t.Fatal(err)
	}
	pkt := []int64{1} // h.v
	if _, _, err := m.ExecSlots(pkt); err != nil {
		t.Fatal(err)
	}
	cells, _ := m.Register("wide")
	if cells[0] != 65535 {
		t.Fatalf("16-bit register holds %d, want 65535", cells[0])
	}
	if pkt[0] != 255 {
		t.Fatalf("8-bit field holds %d, want 255 (truncated)", pkt[0])
	}
}

// TestISADropSkipsLaterTables: after a drop, subsequent tables must not
// execute (mirroring Machine.process).
func TestISADropSkipsLaterTables(t *testing.T) {
	prog, err := p4.Parse(`
header_type h_t {
    fields {
        v : 8;
    }
}
header h_t h;

action toss() {
    drop();
}

action setv(x) {
    modify_field(h.v, x);
}

table first {
    reads { h.v : exact; }
    actions { toss; }
    default_action : toss();
}

table second {
    reads { h.v : exact; }
    actions { setv; }
    default_action : setv(42);
}

control ingress {
    apply(first);
    apply(second);
}
`)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := ParseEntriesString("", prog)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewISAMachine(prog, nil, entries, HWConfig{})
	if err != nil {
		t.Fatal(err)
	}
	pkt := []int64{7} // h.v
	if _, dropped, err := m.ExecSlots(pkt); err != nil || !dropped {
		t.Fatalf("packet should be dropped: dropped %v, err %v", dropped, err)
	}
	if pkt[0] != 7 {
		t.Fatalf("second table ran after drop: h.v = %d", pkt[0])
	}
	stats, err := m.RunStream(1, 20, 0) // first's default drops every packet
	if err != nil {
		t.Fatal(err)
	}
	if stats.Dropped != 20 || stats.MemoryAccesses["first"] != 20 || stats.MemoryAccesses["second"] != 0 {
		t.Fatalf("second table performed %d crossbar accesses after drop", stats.MemoryAccesses["second"])
	}
}

// TestALUEvalTotalSemantics spot-checks the ISA ALU's total semantics.
func TestALUEvalTotalSemantics(t *testing.T) {
	if got := aluEval(ALUDiv, 8, 10, 0); got != 0 {
		t.Fatalf("div by zero = %d, want 0", got)
	}
	if got := aluEval(ALUMod, 8, 10, 0); got != 0 {
		t.Fatalf("mod by zero = %d, want 0", got)
	}
	if got := aluEval(ALUAdd, 8, 200, 100); got != 44 {
		t.Fatalf("8-bit wrap add = %d, want 44", got)
	}
	if got := aluEval(ALUSub, 8, 0, 1); got != 255 {
		t.Fatalf("8-bit wrap sub = %d, want 255", got)
	}
	if got := aluEval(ALUEq, 8, 300, 44); got != 1 {
		t.Fatalf("eq after truncation = %d, want 1 (300 mod 256 == 44)", got)
	}
}

func TestWrapIndex(t *testing.T) {
	cases := []struct {
		idx  int64
		n    int
		want int
	}{
		{0, 4, 0}, {3, 4, 3}, {4, 4, 0}, {7, 4, 3}, {-1, 4, 3}, {-5, 4, 3}, {5, 0, 0},
		{-4, 4, 0}, {-8, 4, 0}, {-1, 1, 0}, {-7, 3, 2},
		{math.MaxInt64, 4, 3}, {math.MinInt64, 4, 0}, {math.MinInt64 + 1, 4, 1},
		{math.MinInt64, 3, 1}, {math.MinInt64, 1, 0}, {math.MinInt64, 0, 0},
	}
	for _, c := range cases {
		if got := wrapIndex(c.idx, c.n); got != c.want {
			t.Errorf("wrapIndex(%d,%d) = %d, want %d", c.idx, c.n, got, c.want)
		}
	}
}

func BenchmarkISAExecution(b *testing.B) {
	prog, entries := loadL2L3(b)
	isa, err := Assemble(prog)
	if err != nil {
		b.Fatal(err)
	}
	m, err := NewISAMachine(prog, isa, entries, HWConfig{Processors: 4})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ResetState()
		if _, err := m.RunStream(9, 1000, 0); err != nil {
			b.Fatal(err)
		}
	}
}
