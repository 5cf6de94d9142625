package drmt

import (
	"fmt"
	"strings"
	"testing"
	"unsafe"

	"druzhba/internal/p4"
)

// benchISAMachine builds a benchmark's ISA machine over its own entries.
func benchISAMachine(t *testing.T, bm *Benchmark) *ISAMachine {
	t.Helper()
	prog, err := bm.Program()
	if err != nil {
		t.Fatal(err)
	}
	entries, err := bm.Entries(prog)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewISAMachine(prog, nil, entries, bm.HW)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestLoweredBlocksRetireTheSourcePath: on every benchmark, for every MATCH
// and outcome, the retired counts of the outcome's block sum to the number
// of source instructions on the path the block replaces, so instruction
// counts and latencies are the source program's however much was folded.
func TestLoweredBlocksRetireTheSourcePath(t *testing.T) {
	for _, bm := range Benchmarks() {
		t.Run(bm.Name, func(t *testing.T) {
			m := benchISAMachine(t, bm)
			ref, err := newRefISAMachine(m.prog, m.isa, m.entries)
			if err != nil {
				t.Fatal(err)
			}
			code, outcomes := m.low.code, m.low.outcomes
			seen := 0
			for pc, in := range m.isa.Instrs {
				if in.Op != OpMatch {
					continue
				}
				mt := &m.matchTables[in.Sym]
				for oi := 0; oi <= len(mt.entries); oi++ {
					_, sel, args, _ := mt.outcome(oi)
					regs := make([]int64, m.isa.NumRegs)
					regs[in.Dst] = sel
					copy(regs[RegParam0:], args)
					// The reference from the MATCH on, over zero fields and banks.
					pkt := &Packet{Fields: map[string]int64{}}
					m.layout.SlotsToPacket(make([]int64, m.layout.NumFields()), false, pkt)
					ref.ResetState()
					want, _, err := ref.stepFrom(pc+1, regs, pkt)
					if err != nil {
						t.Fatal(err)
					}

					got, ops := 0, m.low.blockAt(outcomes[int(code[pc].x)+oi].block)
					for _, o := range ops {
						got += int(o.retire)
					}
					if got != want {
						t.Errorf("%s/%s: block retires %d source instructions, the source path has %d\n%s",
							mt.name, mt.outcomeName(oi), got, want, m.Lowered())
					}
					if last := ops[len(ops)-1].op; last != OpMatch && last != OpHalt {
						t.Errorf("%s/%s: block ends in %v, not in a MATCH or HALT", mt.name, mt.outcomeName(oi), last)
					}
					if len(ops) > want {
						t.Errorf("%s/%s: %d ops for %d source instructions", mt.name, mt.outcomeName(oi), len(ops), want)
					}
					seen++
				}
			}
			if seen != len(outcomes) || seen == 0 {
				t.Fatalf("walked %d outcomes, the lowering has %d", seen, len(outcomes))
			}
		})
	}
}

// TestLoweringFoldsTheDispatchLadder pins what the pass is for: no block of
// an assembled benchmark still compares the action select (the loadi /
// alu.eq / bz ladder folds away entirely), and l2l3's common path — every
// table missing or taking its default — is 10 ops for 51 source
// instructions (16 before fields and constants were registers of one frame:
// re-pinned on purpose).
func TestLoweringFoldsTheDispatchLadder(t *testing.T) {
	for _, bm := range Benchmarks() {
		m := benchISAMachine(t, bm)
		for _, o := range m.low.code[len(m.isa.Instrs)+1:] {
			if o.op == OpALU && o.aop == ALUEq || o.op == OpBZ || o.op == OpJmp {
				t.Errorf("%s: a block keeps ladder op %s\n%s", bm.Name, m.disasm(&o), m.Lowered())
			}
		}
	}
	prog, entries := loadL2L3(t)
	m, err := NewISAMachine(prog, nil, entries, HWConfig{})
	if err != nil {
		t.Fatal(err)
	}
	pkt := make([]int64, m.layout.NumFields()) // all-zero fields hit no entry
	executed, _, err := m.ExecSlots(pkt)
	if err != nil || executed != 51 {
		t.Fatalf("ExecSlots = %d instructions, err %v; want 51", executed, err)
	}
	ops, _, err := m.DispatchCounter().ExecSlots(pkt)
	if err != nil || ops != 10 {
		t.Fatalf("l2l3's all-default path dispatches %d ops, err %v; want 10\n%s", ops, err, m.Lowered())
	}
}

// failingFixture is the counter program with everything a block can fail
// on: its table has no default (a miss selects nothing), bump is outside the
// dispatch list (its entry's outcome fails by name), and the last
// instruction before the halt loads a field no packet has.
func failingFixture(t *testing.T) (*p4.Program, *ISAProgram, *EntrySet) {
	t.Helper()
	prog, entries := buildCounter(t)
	isa, err := Assemble(prog)
	if err != nil {
		t.Fatal(err)
	}
	isa.Dispatch = [][]string{{"toss"}}
	isa.Fields = append(isa.Fields, "no.such_field")
	isa.fieldBits[len(isa.Fields)-1] = 8
	splice(isa, len(isa.Instrs)-1, Instr{Op: OpLoadField, Dst: RegSel, Sym: len(isa.Fields) - 1})
	noDefault := *prog
	noDefault.Tables = []*p4.Table{{Name: "classify", Reads: prog.Tables[0].Reads, Actions: prog.Tables[0].Actions}}
	return &noDefault, isa, entries
}

// TestLoweredListing: the listing names every table/outcome with its ops and
// retired counts, in Disassemble's syntax.
func TestLoweredListing(t *testing.T) {
	prog, entries := buildCounter(t)
	m, err := NewISAMachine(prog, nil, entries, HWConfig{})
	if err != nil {
		t.Fatal(err)
	}
	out := m.Lowered()
	for _, want := range []string{
		"3 outcomes in 3 blocks",
		"entry: 1 ops retire 2",
		"classify/0 toss(): 2 ops retire",
		"classify/1 bump(10):",
		"classify/default bump(1):",
		// Frame operands by name: the field a loadf renamed, the constant the
		// MATCH bound, a register; the four-cell bank's index wraps by a mask.
		"loadr  r7, tally[h.key&3]", "alu.add/16 r8, r7, #10", "storer tally[h.key&3], r8", "storef h.count, r10", "drop", "halt",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("listing lacks %q:\n%s", want, out)
		}
	}

	// A table without a default lists its miss; an outcome outside the
	// dispatch list and an unknown field list their failure.
	noDefault, isa, entries := failingFixture(t)
	m, err = NewISAMachine(noDefault, isa, entries, HWConfig{})
	if err != nil {
		t.Fatal(err)
	}
	out = m.Lowered()
	for _, want := range []string{
		"classify/miss:",
		`fail   table "classify" selected action "bump" outside its dispatch list`,
		`fail   packet lacks field "no.such_field"`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("listing lacks %q:\n%s", want, out)
		}
	}

	// Between two tables a block inlines the MATCH, and keeps the drop test
	// only where a path to it has dropped: before dmac ("bnz r1, 24", pinned
	// here until the frame — re-pinned on purpose) nothing has written r1,
	// after ipv4_route's act_drop something may have.
	l2l3, err := LookupBenchmark("l2l3")
	if err != nil {
		t.Fatal(err)
	}
	out = benchISAMachine(t, l2l3).Lowered()
	for _, want := range []string{"bnz    r1, 70", "match  r2, dmac", "ipv4_route/1 act_drop(): 2 ops retire 11", "alu.add/8 ipv4.ttl, ipv4.ttl, #-1"} {
		if !strings.Contains(out, want) {
			t.Errorf("l2l3 listing lacks %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "bnz    r1, 24") {
		t.Errorf("l2l3 tests the drop flag before anything can have set it:\n%s", out)
	}
}

// sharedOutcomesFixture is a one-table program with routes entries over
// three distinct outcomes — set(1), set(2), keep() — and the default set(0).
func sharedOutcomesFixture(t *testing.T, routes int) (*p4.Program, *EntrySet) {
	t.Helper()
	prog, err := p4.Parse(`
header_type h_t { fields { k : 16; x : 16; } }
header h_t h;
action set(a) { modify_field(h.x, a); }
action keep() { }
table t { reads { h.k : exact; } actions { set; keep; } default_action : set(0); }
control ingress { apply(t); }
`)
	if err != nil {
		t.Fatal(err)
	}
	var text strings.Builder
	for k := 1; k <= routes; k++ {
		if k%3 == 0 {
			fmt.Fprintf(&text, "t h.k exact %d keep()\n", k)
		} else {
			fmt.Fprintf(&text, "t h.k exact %d set(%d)\n", k, k%3) // set(1), set(2)
		}
	}
	entries, err := ParseEntries(strings.NewReader(text.String()), prog)
	if err != nil {
		t.Fatal(err)
	}
	return prog, entries
}

// TestLoweringSharesEqualOutcomes: a block is a function of the select and
// the arguments, so a table's entries cost one block per distinct action and
// argument list, not one per entry — a route file of thousands of entries
// with a few next hops lowers to a few blocks — and the shared blocks execute
// as the reference does.
func TestLoweringSharesEqualOutcomes(t *testing.T) {
	const routes = 3000
	prog, entries := sharedOutcomesFixture(t, routes)
	m, err := NewISAMachine(prog, nil, entries, HWConfig{})
	if err != nil {
		t.Fatal(err)
	}
	starts := map[int32]bool{}
	for _, o := range m.low.outcomes {
		starts[o.block] = true
	}
	// set(1), set(2), keep() and the default's set(0).
	if len(m.low.outcomes) != routes+1 || len(starts) != 4 {
		t.Fatalf("%d outcomes lowered to %d blocks, want %d to 4", len(m.low.outcomes), len(starts), routes+1)
	}
	if n := len(m.isa.Instrs); len(m.low.code) > 3*n {
		t.Fatalf("%d lowered ops for %d source instructions", len(m.low.code), n)
	}
	out := m.Lowered()
	for _, want := range []string{"3001 outcomes in 4 blocks", "t/3 set(1): the block of t/0 set(1)", "t/default set(0): 2 ops retire 6"} {
		if !strings.Contains(out, want) {
			t.Errorf("listing lacks %q", want)
		}
	}

	ref, err := newRefISAMachine(prog, m.isa, entries)
	if err != nil {
		t.Fatal(err)
	}
	stats := &ISAStats{Stats: Stats{MemoryAccesses: map[string]int{}}}
	for _, k := range []int64{0, 1, 2, 3, 4, routes, routes + 1} {
		pkt := &Packet{Fields: map[string]int64{"h.k": k, "h.x": 77}}
		buf := make([]int64, m.layout.NumFields())
		if err := m.layout.PacketToSlots(pkt, buf); err != nil {
			t.Fatal(err)
		}
		executed, dropped, err := m.ExecSlots(buf)
		wantExecuted, wantErr := ref.exec(pkt, stats)
		if err != nil || wantErr != nil || executed != wantExecuted {
			t.Fatalf("k=%d: ExecSlots %d instructions, err %v; reference %d, err %v", k, executed, err, wantExecuted, wantErr)
		}
		if got, want := m.layout.FormatSlots(buf, dropped), FormatPacket(pkt); got != want {
			t.Fatalf("k=%d: ExecSlots %s, reference %s", k, got, want)
		}
	}
}

// TestLoweredOpIsCompact: the op is what every build allocates per lowered
// instruction; it stays within four words.
func TestLoweredOpIsCompact(t *testing.T) {
	if size := unsafe.Sizeof(lop{}); size > 32 {
		t.Fatalf("lowered op is %d bytes, want <= 32", size)
	}
}

// TestVerifyRelatesRegisterFileToParameters: a MATCH writes the select
// register and NumParams parameter registers, so a register file that does
// not hold them is refused — it used to pass NewISAMachine and index past
// the register file on the first MATCH.
func TestVerifyRelatesRegisterFileToParameters(t *testing.T) {
	prog, entries := buildCounter(t)
	asm, err := Assemble(prog)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ regs, params int }{{3, 1}, {RegParam0, 1}, {2, 0}, {8, -1}} {
		isa := &ISAProgram{
			Instrs:    []Instr{{Op: OpMatch, Dst: RegSel, Sym: 0}, {Op: OpHalt}},
			Tables:    asm.Tables,
			Dispatch:  asm.Dispatch,
			NumRegs:   tc.regs,
			NumParams: tc.params,
		}
		if err := isa.Verify(); err == nil || !strings.Contains(err.Error(), "registers cannot hold") {
			t.Errorf("NumRegs %d, NumParams %d: Verify = %v, want a register-file error", tc.regs, tc.params, err)
		}
		if _, err := NewISAMachine(prog, isa, entries, HWConfig{}); err == nil {
			t.Errorf("NumRegs %d, NumParams %d: NewISAMachine accepted the program", tc.regs, tc.params)
		}
	}

	// The smallest file that does hold them runs, bound arguments included.
	isa := &ISAProgram{
		Instrs:    []Instr{{Op: OpMatch, Dst: RegSel, Sym: 0}, {Op: OpHalt}},
		Tables:    asm.Tables,
		Dispatch:  asm.Dispatch,
		NumRegs:   RegParam0 + 1,
		NumParams: 1,
	}
	m, err := NewISAMachine(prog, isa, entries, HWConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if executed, _, err := m.ExecSlots(make([]int64, m.layout.NumFields())); err != nil || executed != 2 {
		t.Fatalf("ExecSlots = %d instructions, err %v; want 2", executed, err)
	}
}

// TestBuildRefusesArgumentsBeyondParameterRegisters: an entry or a default
// that binds more action data than the ISA program has parameter registers
// is a build error, with the same text from the reference constructor.
func TestBuildRefusesArgumentsBeyondParameterRegisters(t *testing.T) {
	prog, entries := buildCounter(t)
	isa, err := Assemble(prog)
	if err != nil {
		t.Fatal(err)
	}
	isa.NumParams = 0
	check := func(entries *EntrySet, wantAction string) {
		t.Helper()
		_, err := NewISAMachine(prog, isa, entries, HWConfig{})
		_, refErr := newRefISAMachine(prog, isa, entries)
		if err == nil || refErr == nil || err.Error() != refErr.Error() {
			t.Fatalf("NewISAMachine: %v\nreference:     %v", err, refErr)
		}
		if !strings.Contains(err.Error(), wantAction) || !strings.Contains(err.Error(), "0 parameter registers") {
			t.Fatalf("unexpected error: %v", err)
		}
		if _, err := NewDiffFuzzer(prog, isa, entries, HWConfig{}); err == nil {
			t.Fatal("NewDiffFuzzer accepted the program")
		}
	}
	check(entries, `1-argument action "bump"`)       // the bump(10) entry
	check(NewEntrySet(), `1-argument action "bump"`) // the bump(1) default
}

// twoParameterFixture binds two action-data arguments, one, and (the
// default) two again; its last instruction stores the second parameter
// register, which one() leaves unbound: a read of it must see 0, not
// both()'s b.
func twoParameterFixture(t *testing.T) (*p4.Program, *ISAProgram, *EntrySet) {
	t.Helper()
	prog, err := p4.Parse(`
header_type h_t { fields { k : 8; x : 16; y : 16; } }
header h_t h;
action both(a, b) { modify_field(h.x, a); modify_field(h.y, b); add_to_field(h.y, a); }
action one(a) { modify_field(h.x, a); }
table t { reads { h.k : exact; } actions { both; one; } default_action : both(7, 9); }
control ingress { apply(t); }
`)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := ParseEntries(strings.NewReader("t h.k exact 1 both(100,200)\nt h.k exact 2 one(300)\n"), prog)
	if err != nil {
		t.Fatal(err)
	}
	isa, err := Assemble(prog)
	if err != nil {
		t.Fatal(err)
	}
	splice(isa, len(isa.Instrs)-1, Instr{Op: OpStoreField, Sym: 2, A: RegParam0 + 1})
	return prog, isa, entries
}

// TestLoweringBindsEveryParameter: the embedded benchmarks bind at most one
// action-data argument, so a two-parameter action pins that every bound
// argument reaches its own register and that an action binding fewer than
// NumParams reads the rest as zero — against the reference, packet by packet.
func TestLoweringBindsEveryParameter(t *testing.T) {
	prog, isa, entries := twoParameterFixture(t)
	m, err := NewISAMachine(prog, isa, entries, HWConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := newRefISAMachine(prog, isa, entries)
	if err != nil {
		t.Fatal(err)
	}
	stats := &ISAStats{Stats: Stats{MemoryAccesses: map[string]int{}}}
	for k := int64(0); k < 4; k++ {
		pkt := &Packet{Fields: map[string]int64{"h.k": k, "h.x": 1, "h.y": 2}}
		buf := make([]int64, m.layout.NumFields())
		if err := m.layout.PacketToSlots(pkt, buf); err != nil {
			t.Fatal(err)
		}
		executed, dropped, err := m.ExecSlots(buf)
		wantExecuted, wantErr := ref.exec(pkt, stats)
		if err != nil || wantErr != nil || executed != wantExecuted {
			t.Fatalf("k=%d: ExecSlots %d instructions, err %v; reference %d, err %v", k, executed, err, wantExecuted, wantErr)
		}
		if got, want := m.layout.FormatSlots(buf, dropped), FormatPacket(pkt); got != want {
			t.Fatalf("k=%d: ExecSlots %s, reference %s\n%s", k, got, want, m.Lowered())
		}
	}
}

// TestDispatchCounts pins the count the frame is for: the lowered ops
// ExecSlots dispatches over each benchmark's seed-1 stream of 4096 packets
// (exact and repeatable; per packet counter 6.8, l2l3 10.0, l2l3-targeted
// 10.8, wide-fanin 27.2 — 10.6, 16.1, 17.3 and 80.5 before fields and
// constants were registers), next to the source instructions the same stream
// retires, which are the source program's and do not move. The bounds are
// those of each benchmark's longest path: 7, 10 (a hit adds two stores) and
// 35 ops.
func TestDispatchCounts(t *testing.T) {
	const packets = 4096
	for _, tc := range []struct {
		bench             string
		ops, instructions int64
		perPacket         float64
	}{
		{"counter", 27700, 56615, 7},
		{"l2l3", 41070, 208932, 10.1},
		{"l2l3-targeted", 44083, 210978, 11},
		{"wide-fanin", 111605, 447453, 35},
	} {
		bm, err := LookupBenchmark(tc.bench)
		if err != nil {
			t.Fatal(err)
		}
		m := benchISAMachine(t, bm)
		counter := m.DispatchCounter()
		gen, err := NewTrafficGen(1, m.prog, bm.MaxInput)
		if err != nil {
			t.Fatal(err)
		}
		pkt, twin := make([]int64, m.layout.NumFields()), make([]int64, m.layout.NumFields())
		var ops, instructions int64
		for i := 0; i < packets; i++ {
			gen.Fill(pkt)
			copy(twin, pkt)
			n, _, err := m.ExecSlots(pkt)
			if err != nil {
				t.Fatal(err)
			}
			instructions += int64(n)
			n, _, err = counter.ExecSlots(twin)
			if err != nil {
				t.Fatal(err)
			}
			ops += int64(n)
			if !slotsEqual(pkt, twin) {
				t.Fatalf("%s: packet %d: the counting clone computed %v, the machine %v", tc.bench, i, twin, pkt)
			}
		}
		if ops != tc.ops || instructions != tc.instructions {
			t.Errorf("%s: %d ops dispatched for %d instructions, want %d for %d", tc.bench, ops, instructions, tc.ops, tc.instructions)
		}
		if per := float64(ops) / packets; per > tc.perPacket {
			t.Errorf("%s: %.1f ops per packet, want at most %.1f", tc.bench, per, tc.perPacket)
		}
	}
}

// TestBuildRefusesEmptyBank: the parser rejects a register without cells, a
// hand-built program can still carry one; NewISAMachine refuses it in the
// table machine's words — it used to build, and ExecSlots indexed into the
// empty bank on the first loadr.
func TestBuildRefusesEmptyBank(t *testing.T) {
	prog, entries := buildCounter(t)
	prog.Register("tally").Count = 0
	_, err := NewISAMachine(prog, nil, entries, HWConfig{})
	if err == nil || !strings.Contains(err.Error(), `register "tally" has no cells`) {
		t.Fatalf("NewISAMachine = %v, want the register refused for having no cells", err)
	}
	if _, tabErr := NewMachine(prog, entries, HWConfig{}, nil); tabErr == nil || !strings.Contains(tabErr.Error(), `register "tally" has no cells`) {
		t.Fatalf("NewMachine = %v, want the same refusal", tabErr)
	}
	if _, err := NewDiffFuzzer(prog, nil, entries, HWConfig{}); err == nil {
		t.Fatal("NewDiffFuzzer accepted the program")
	}
}
