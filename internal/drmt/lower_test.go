package drmt

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"druzhba/internal/flat"
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

// code returns the instructions of a lowered program.
func code(p *flat.Program) []flat.Instr {
	var out []flat.Instr
	if _, err := p.Mutate(func(c []flat.Instr) []flat.Instr { out = slices.Clone(c); return c }); err != nil {
		panic(err)
	}
	return out
}

// retired returns what the count additions among a block's instructions add
// up to.
func (m *ISAMachine) retired(block []flat.Instr) int {
	init, n := m.code.NewFrame(), 0
	for _, in := range block {
		if in.Op == flat.Add && int(in.A) == m.count {
			n += int(init[in.C])
		}
	}
	return n
}

// TestLoweredBlocksRetireTheSourcePath: on every benchmark, the count
// additions add up, along every path from the entry, to the number of source
// instructions on the path: a block starts ahead of the source's count by
// what the blocks before it hoisted out of it, ends at its MATCH ahead by
// what every block of the MATCH starts at, and at the end exactly — so
// instruction counts and latencies are the source program's however much
// was folded. Each block is taken on its path over zero fields and banks,
// on which the benchmarks' only branches, the drop tests, fall through.
func TestLoweredBlocksRetireTheSourcePath(t *testing.T) {
	for _, bm := range Benchmarks() {
		t.Run(bm.Name, func(t *testing.T) {
			m := benchISAMachine(t, bm)
			ref, err := newRefISAMachine(m.prog, m.isa, m.entries)
			if err != nil {
				t.Fatal(err)
			}
			all := code(m.code)
			ahead := map[int]int{} // MATCH source pc -> how far its blocks start ahead
			seen := 0
			for i := len(m.blocks) - 1; i >= 0; i-- {
				bl := m.blocks[i]
				regs := make([]int64, m.isa.NumRegs)
				name := "entry"
				switch {
				case bl.match >= 0:
					in := m.isa.Instrs[bl.match]
					mt := &m.matchTables[in.Sym]
					_, sel, args, _ := mt.outcome(bl.oi)
					regs[in.Dst] = sel
					copy(regs[RegParam0:], args)
					name = mt.name + "/" + mt.outcomeName(bl.oi)
				case bl.pc != 0:
					continue // a branch target: TestBlocksEqualTheirSourcePath
				}
				// The reference from the block's pc on, over zero fields and banks.
				pkt := &Packet{Fields: map[string]int64{}}
				m.layout.SlotsToPacket(make([]int64, m.layout.NumFields()), false, pkt)
				ref.ResetState()
				want, at, err := ref.stepFrom(bl.pc, regs, pkt)
				if err != nil {
					t.Fatal(err)
				}
				after, ok := 0, true
				if at >= 0 {
					after, ok = ahead[at]
				}
				block := all[bl.start:bl.end]
				start := want + after - m.retired(block)
				switch prev, shared := ahead[bl.match]; {
				case !ok:
					t.Fatalf("%s: ends at the MATCH at %d, which has no block", name, at)
				case bl.match < 0 && start != 0:
					t.Errorf("%s: the count starts %d ahead of the source's\n%s", name, start, m.Lowered())
				case bl.match >= 0 && shared && prev != start:
					t.Errorf("%s: the count starts %d ahead of the source's, at another block of its MATCH %d\n%s", name, start, prev, m.Lowered())
				}
				if bl.match < 0 {
					continue
				}
				ahead[bl.match] = start
				if last := block[len(block)-1].Op; last != flat.Match && last != flat.Jmp {
					t.Errorf("%s: block ends in %v, not in a Match or the jump to the end", name, last)
				}
				if len(block) > want {
					t.Errorf("%s: %d instructions for %d source instructions", name, len(block), want)
				}
				seen += bl.outcomes
			}
			outcomes := 0
			for _, mt := range m.matchTables {
				outcomes += len(mt.outcomes)
			}
			if seen != outcomes || seen == 0 {
				t.Fatalf("walked %d outcomes, the lowering has %d", seen, outcomes)
			}
		})
	}
}

// TestLoweringFoldsTheDispatchLadder pins what the pass is for: no block of
// an assembled benchmark still compares the action select (the loadi /
// alu.eq / bz ladder folds away entirely, and the only jumps left are to the
// end), and l2l3's common path — every table missing or taking its default —
// is 19 instructions for 51 source instructions (10 before the count
// additions and the width masks were instructions, 22 before the additions
// were hoisted: re-pinned on purpose).
func TestLoweringFoldsTheDispatchLadder(t *testing.T) {
	for _, bm := range Benchmarks() {
		m := benchISAMachine(t, bm)
		for _, in := range code(m.code) {
			if in.Op == flat.Eq || in.Op == flat.Jz || in.Op == flat.Jmp && int(in.A) != m.code.Len() {
				t.Errorf("%s: the program keeps ladder instruction %v\n%s", bm.Name, in, m.Lowered())
			}
		}
	}
	prog, entries := loadL2L3(t)
	m, err := NewISAMachine(prog, nil, entries, HWConfig{})
	if err != nil {
		t.Fatal(err)
	}
	pkt := &Packet{Fields: map[string]int64{}} // all-zero fields hit no entry
	m.layout.SlotsToPacket(make([]int64, m.layout.NumFields()), false, pkt)
	stats, err := m.Run([]*Packet{pkt})
	if err != nil || stats.Instructions != 51 {
		t.Fatalf("Run = %+v, err %v; want 51 instructions", stats, err)
	}
	if ops := m.Dispatched(); ops != 19 {
		t.Fatalf("l2l3's all-default path dispatches %d instructions; want 19\n%s", ops, m.Lowered())
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

// TestLoweredListing: the listing names every block — what it is the block
// of and its instructions — then lists the flat program with frame registers
// by name.
func TestLoweredListing(t *testing.T) {
	prog, entries := buildCounter(t)
	m, err := NewISAMachine(prog, nil, entries, HWConfig{})
	if err != nil {
		t.Fatal(err)
	}
	out := m.Lowered()
	for _, want := range []string{
		"4 blocks",
		"0: entry: 0-1",
		"classify/0 toss():",
		"classify/1 bump(10):",
		"classify/default bump(1):",
		// Frame operands by name: the input field a loadf renamed, the
		// constant the MATCH bound, a register, the output field; the
		// four-cell bank's index wraps by a mask.
		"match h.key==3 -> ", "load r7, tally[h.key&3]", "add  r8, r7, #10", "store tally[h.key&3], r8", "load h.count', tally[h.key&3]", "mov  dropped, #1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("listing lacks %q:\n%s", want, out)
		}
	}

	// A table without a default lists its miss; an outcome outside the
	// dispatch list and an unknown field trap.
	noDefault, isa, entries := failingFixture(t)
	m, err = NewISAMachine(noDefault, isa, entries, HWConfig{})
	if err != nil {
		t.Fatal(err)
	}
	out = m.Lowered()
	if !strings.Contains(out, "classify/miss:") || !strings.Contains(out, "trap err, #0, 1") || !strings.Contains(out, "trap err, #0, 2") {
		t.Errorf("listing lacks the miss or the two traps:\n%s", out)
	}
	if got := fmt.Sprint(m.errs); got != `[packet lacks field "no.such_field" table "classify" selected action "bump" outside its dispatch list]` {
		t.Errorf("trap codes stand for %s", got)
	}

	// Between two tables a block inlines the MATCH, and keeps the drop test
	// only where a path to it has dropped: before dmac nothing has written
	// r1, after ipv4_route's act_drop something may have, and a packet that
	// passes it leaves for the block of the source after egress_count.
	l2l3, err := LookupBenchmark("l2l3")
	if err != nil {
		t.Fatal(err)
	}
	out = benchISAMachine(t, l2l3).Lowered()
	for _, want := range []string{"70: branch target:", "jnz  r1 -> ", "ipv4_route/1 act_drop():", "add  r17, ipv4.ttl, #-1", "and  ipv4.ttl', r17, #255"} {
		if !strings.Contains(out, want) {
			t.Errorf("l2l3 listing lacks %q:\n%s", want, out)
		}
	}
	if strings.Count(out, "jnz") != 1 {
		t.Errorf("l2l3 tests the drop flag where nothing can have set it:\n%s", out)
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
	blocks, outcomes := 0, 0
	for _, bl := range m.blocks {
		if bl.match >= 0 {
			blocks, outcomes = blocks+1, outcomes+bl.outcomes
		}
	}
	// set(1), set(2), keep() and the default's set(0).
	if outcomes != routes+1 || blocks != 4 {
		t.Fatalf("%d outcomes lowered to %d blocks, want %d to 4", outcomes, blocks, routes+1)
	}
	if n := len(m.isa.Instrs); m.code.Len() > 2*n {
		t.Fatalf("%d lowered instructions for %d source instructions", m.code.Len(), n)
	}
	out := m.Lowered()
	for _, want := range []string{"5 blocks", "t/0 set(1) and 999 more outcomes:", "t/2 keep() and 999 more outcomes:", "t/default set(0):"} {
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

// TestDispatchCounts pins what the flat program dispatches over each
// benchmark's seed-1 stream of 4096 packets, as its counting clone reads it
// (exact and repeatable), next to the source instructions the same stream
// retires, which are the source program's and do not move; and the counting
// clone computes what the program does. Per packet that is counter 8.8,
// l2l3 19.0, l2l3-targeted 19.8 and wide-fanin 38.2 instructions — against
// 6.8, 10.0, 10.8 and 27.2 ops of the lowering's own interpreter, before
// the count additions and the width masks were instructions, and 8.8, 22.0,
// 22.8 and 46.2 before the additions were hoisted (re-pinned on purpose).
// The linked program the differential fuzzer runs dispatches 14.8, 31.1,
// 32.5 and 75.0 (DiffFuzzer.Dispatched; 15.7, 34.1, 35.5 and 91.8 when the
// table side wrote its fields in place and the link copied them in).
func TestDispatchCounts(t *testing.T) {
	const packets = 4096
	for _, tc := range []struct {
		bench                     string
		ops, instructions, linked int64
	}{
		{"counter", 36135, 56615, 60476},
		{"l2l3", 77934, 208932, 127212},
		{"l2l3-targeted", 80947, 210978, 133222},
		{"wide-fanin", 156661, 447453, 307177},
	} {
		bm, err := LookupBenchmark(tc.bench)
		if err != nil {
			t.Fatal(err)
		}
		m := benchISAMachine(t, bm)
		plain := m.Clone()
		gen, err := NewTrafficGen(1, m.prog, bm.MaxInput)
		if err != nil {
			t.Fatal(err)
		}
		pkts := gen.Batch(packets)
		buf := make([]int64, m.layout.NumFields())
		want := make([]string, packets)
		for i, pkt := range pkts {
			if err := m.layout.PacketToSlots(pkt, buf); err != nil {
				t.Fatal(err)
			}
			_, dropped, err := plain.ExecSlots(buf)
			if err != nil {
				t.Fatal(err)
			}
			want[i] = m.layout.FormatSlots(buf, dropped)
		}
		stats, err := m.Run(pkts)
		if err != nil {
			t.Fatal(err)
		}
		for i, pkt := range pkts {
			if got := FormatPacket(pkt); got != want[i] {
				t.Fatalf("%s: packet %d: the counting clone computed %s, the program %s", tc.bench, i, got, want[i])
			}
		}
		if ops := m.Dispatched(); ops != tc.ops || stats.Instructions != tc.instructions {
			t.Errorf("%s: %d instructions dispatched for %d source instructions, want %d for %d", tc.bench, ops, stats.Instructions, tc.ops, tc.instructions)
		}
		f, err := NewDiffFuzzer(m.prog, nil, m.entries, bm.HW)
		if err != nil {
			t.Fatal(err)
		}
		if linked, err := f.Dispatched(1, packets, bm.MaxInput); err != nil || linked != tc.linked {
			t.Errorf("%s: the linked program dispatched %d instructions (err %v), want %d", tc.bench, linked, err, tc.linked)
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
