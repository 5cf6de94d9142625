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
	gen, err := NewTrafficGen(1234, prog, 0)
	if err != nil {
		t.Fatal(err)
	}
	batchA := gen.Batch(3000)
	batchB := make([]*Packet, len(batchA))
	for i, p := range batchA {
		batchB[i] = p.Clone()
	}
	if _, err := tableM.Run(batchA); err != nil {
		t.Fatal(err)
	}
	if _, err := isaM.Run(batchB); err != nil {
		t.Fatal(err)
	}
	for i := range batchA {
		a, b := batchA[i], batchB[i]
		if a.Dropped != b.Dropped {
			t.Fatalf("packet %d: dropped %v vs %v", i, a.Dropped, b.Dropped)
		}
		for f, v := range a.Fields {
			if b.Fields[f] != v {
				t.Fatalf("packet %d field %s: table-level %d, ISA %d", i, f, v, b.Fields[f])
			}
		}
	}
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
	gen, err := NewTrafficGen(77, prog, 8) // values < 8: heavy entry overlap
	if err != nil {
		t.Fatal(err)
	}
	batchA := gen.Batch(2000)
	batchB := make([]*Packet, len(batchA))
	for i, p := range batchA {
		batchB[i] = p.Clone()
	}
	if _, err := tableM.Run(batchA); err != nil {
		t.Fatal(err)
	}
	if _, err := isaM.Run(batchB); err != nil {
		t.Fatal(err)
	}
	mismatches := 0
	for i := range batchA {
		if batchA[i].Dropped != batchB[i].Dropped {
			mismatches++
			continue
		}
		for f, v := range batchA[i].Fields {
			if batchB[i].Fields[f] != v {
				mismatches++
				break
			}
		}
	}
	if mismatches != 0 {
		t.Fatalf("%d/%d packets diverge between table-level and ISA execution", mismatches, len(batchA))
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
	mk := func(id int, key int64) *Packet {
		return &Packet{ID: id, Fields: map[string]int64{"h.key": key, "h.count": 0}}
	}
	pkts := []*Packet{
		mk(0, 5), // entry: bump(10) -> tally[1] = 10 (5 wraps to cell 1 of 4)
		mk(1, 5), // bump(10) again -> 20
		mk(2, 3), // toss() -> dropped
		mk(3, 0), // default bump(1) -> tally[0] = 1
	}
	stats, err := m.Run(pkts)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Dropped != 1 || !pkts[2].Dropped {
		t.Fatalf("drop accounting wrong: %+v", stats)
	}
	if pkts[0].Fields["h.count"] != 10 || pkts[1].Fields["h.count"] != 20 {
		t.Fatalf("register_read results: %d, %d; want 10, 20",
			pkts[0].Fields["h.count"], pkts[1].Fields["h.count"])
	}
	cells, ok := m.Register("tally")
	if !ok {
		t.Fatal("missing register")
	}
	if cells[1] != 20 || cells[0] != 1 {
		t.Fatalf("tally = %v; want cell1=20, cell0=1", cells)
	}
	if stats.Instructions == 0 || stats.MatchOps != int64(len(pkts)) {
		t.Fatalf("instruction accounting: %+v", stats)
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
	pkt := &Packet{Fields: map[string]int64{"h.v": 1}}
	if _, err := m.Run([]*Packet{pkt}); err != nil {
		t.Fatal(err)
	}
	cells, _ := m.Register("wide")
	if cells[0] != 65535 {
		t.Fatalf("16-bit register holds %d, want 65535", cells[0])
	}
	if pkt.Fields["h.v"] != 255 {
		t.Fatalf("8-bit field holds %d, want 255 (truncated)", pkt.Fields["h.v"])
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
	pkt := &Packet{Fields: map[string]int64{"h.v": 7}}
	stats, err := m.Run([]*Packet{pkt})
	if err != nil {
		t.Fatal(err)
	}
	if !pkt.Dropped {
		t.Fatal("packet should be dropped")
	}
	if pkt.Fields["h.v"] != 7 {
		t.Fatalf("second table ran after drop: h.v = %d", pkt.Fields["h.v"])
	}
	if stats.MemoryAccesses["second"] != 0 {
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
	gen, err := NewTrafficGen(9, prog, 0)
	if err != nil {
		b.Fatal(err)
	}
	pkts := gen.Batch(1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ResetState()
		batch := make([]*Packet, len(pkts))
		for j, p := range pkts {
			batch[j] = p.Clone()
		}
		if _, err := m.Run(batch); err != nil {
			b.Fatal(err)
		}
	}
}
