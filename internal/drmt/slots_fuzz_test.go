package drmt

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"druzhba/internal/p4"
)

// pickRead selects the table and the match key a fuzzed entry lands on.
func pickRead(prog *p4.Program, pick uint8) (*p4.Table, p4.Match, bool) {
	t := prog.Table(prog.Control[int(pick)%len(prog.Control)])
	if len(t.Reads) == 0 || len(t.Actions) == 0 {
		return t, p4.Match{}, false
	}
	return t, t.Reads[int(pick/7)%len(t.Reads)], true
}

// fuzzedEntries returns the benchmark's entry set with one fuzzed entry at
// the highest priority of one table: the table, its read field and its
// action are picked by pick, the key and mask are the fuzzer's, and the
// action-data arguments derive from arg. The entry passes the same
// validation as a parsed one, so it is a configuration the simulator
// accepts, not a malformed one.
func fuzzedEntries(prog *p4.Program, base *EntrySet, pick uint8, key, mask, arg int64) (*EntrySet, error) {
	set := NewEntrySet()
	if t, read, ok := pickRead(prog, pick); ok {
		call := p4.ActionCall{Name: t.Actions[int(pick/3)%len(t.Actions)]}
		for i := range prog.Action(call.Name).Params {
			call.Args = append(call.Args, arg+int64(i))
		}
		e := Entry{Table: t.Name, Field: read.Field, Kind: read.Kind, Key: key, Mask: mask, Action: call}
		if err := validateEntry(prog, &e); err != nil {
			return nil, err
		}
		set.Add(e)
	}
	for _, name := range prog.Control {
		for _, e := range base.ForTable(name) {
			set.Add(e)
		}
	}
	return set, nil
}

// splice inserts ins before instruction at. Branches that jumped past the
// insertion point still reach their instruction; ins carries its targets in
// the new numbering.
func splice(p *ISAProgram, at int, ins ...Instr) {
	for i := range p.Instrs {
		if in := &p.Instrs[i]; (in.Op == OpBZ || in.Op == OpBNZ || in.Op == OpJmp) && in.Target > at {
			in.Target += len(ins)
		}
	}
	p.Instrs = slices.Insert(p.Instrs, at, ins...)
}

// matchPCs returns the pcs of the program's MATCH instructions.
func matchPCs(p *ISAProgram) []int {
	var pcs []int
	for pc, in := range p.Instrs {
		if in.Op == OpMatch {
			pcs = append(pcs, pc)
		}
	}
	return pcs
}

// isaMutants is the number of programs mutatedISA tells apart.
const isaMutants = 16

// mutatedISA returns the ISA program under test: the assembled program
// (mutate 0), its first ALU add miscompiled into a subtract (1, the
// MiscompileALUAdd bug injection — the engines must report the same
// counterexamples), the first table's dispatch list emptied (2 — every
// selected action is now outside it, so both executors must fail with the
// same error on the same packet), or a structural mutant aimed at what the
// lowering folds, follows, renames and deletes (3 and up, described per case;
// 13 and up aim at the renaming of fields and constants). Every
// mutant passes Verify; none has to agree with the table-level machine.
func mutatedISA(prog *p4.Program, mutate uint8) (*ISAProgram, error) {
	asm, err := Assemble(prog)
	if err != nil {
		return nil, err
	}
	isa := *asm
	isa.Instrs = slices.Clone(asm.Instrs)
	matches := matchPCs(&isa)
	first, last := matches[0], matches[len(matches)-1]
	lastField := len(isa.Fields) - 1
	// Fresh temporaries no assembled instruction touches.
	t0, t1, t2 := isa.NumRegs, isa.NumRegs+1, isa.NumRegs+2
	isa.NumRegs += 3

	switch mutate % isaMutants {
	case 1:
		for _, in := range isa.Instrs {
			if in.Op == OpALU && in.AOp == ALUAdd {
				return MiscompileALUAdd(&isa, in.Bits)
			}
		}
	case 2:
		isa.Dispatch = slices.Clone(isa.Dispatch)
		isa.Dispatch[0] = []string{"no_such_action"}
	case 3:
		// A data-dependent branch inside an outcome block: taken, it leaves
		// for the source copy, where t1 must hold the 5 a folded path would
		// never have stored; not taken, t1 is the constant 9.
		at := first + 1
		splice(&isa, at,
			Instr{Op: OpLoadField, Dst: t0, Sym: 0},
			Instr{Op: OpLoadImm, Dst: t1, Imm: 5},
			Instr{Op: OpBNZ, A: t0, Target: at + 4},
			Instr{Op: OpLoadImm, Dst: t1, Imm: 9},
			Instr{Op: OpALU, AOp: ALUAdd, Bits: 8, Dst: t2, A: t1, B: t0},
			Instr{Op: OpStoreField, Sym: lastField, A: t2},
		)
	case 4:
		// Writes to the zero register by every instruction that writes one,
		// then reads of it: r0 stays 0 and the packet fields show it.
		splice(&isa, first+1,
			Instr{Op: OpLoadImm, Dst: RegZero, Imm: 7},
			Instr{Op: OpLoadField, Dst: RegZero, Sym: 0},
			Instr{Op: OpALU, AOp: ALUAdd, Bits: 8, Dst: t0, A: RegZero, B: RegZero},
			Instr{Op: OpLoadImm, Dst: t1, Imm: 3},
			Instr{Op: OpALU, AOp: ALUAdd, Bits: 8, Dst: RegZero, A: t1, B: t1},
			Instr{Op: OpALU, AOp: ALUSub, Bits: 8, Dst: t2, A: t0, B: RegZero},
			Instr{Op: OpStoreField, Sym: lastField, A: t2},
			Instr{Op: OpBNZ, A: RegZero, Target: first + 1 + 9},
			Instr{Op: OpStoreField, Sym: 0, A: RegZero},
		)
	case 5:
		// Temporaries defined after the first MATCH — one from the packet,
		// one a constant — and read after the last: live across every block
		// boundary in between.
		splice(&isa, last+1,
			Instr{Op: OpALU, AOp: ALUAdd, Bits: 16, Dst: t2, A: t0, B: t1},
			Instr{Op: OpStoreField, Sym: lastField, A: t2},
		)
		splice(&isa, first+1,
			Instr{Op: OpLoadField, Dst: t0, Sym: 0},
			Instr{Op: OpLoadImm, Dst: t1, Imm: 77},
		)
	case 6:
		// The last MATCH selects into a temporary: the ladder after it reads
		// whatever the MATCH before left in RegSel.
		isa.Instrs[last].Dst = t0
	case 7:
		// A MATCH that selects into the zero register: the write is void.
		isa.Instrs[first].Dst = RegZero
	case 8:
		// A MATCH that selects into a register it then overwrites with
		// action data, or (no parameters) into the drop register.
		// Either way a field then shows what the register holds.
		isa.Instrs[first].Dst = RegDrop
		if isa.NumParams > 0 {
			isa.Instrs[first].Dst = RegParam0
		}
		splice(&isa, first+1, Instr{Op: OpStoreField, Sym: lastField, A: isa.Instrs[first].Dst})
	case 9:
		// Jumps to len(Instrs): the program's last jump, followed statically
		// inside a block, and a data-dependent one to the same place.
		for pc := len(isa.Instrs) - 1; pc >= 0; pc-- {
			if isa.Instrs[pc].Op == OpJmp {
				isa.Instrs[pc].Target = len(isa.Instrs)
				break
			}
		}
		splice(&isa, last+1,
			Instr{Op: OpLoadField, Dst: t0, Sym: 0},
			Instr{Op: OpBZ, A: t0, Target: len(isa.Instrs) + 2},
		)
	case 10:
		// A load of a field no packet has, into a register nothing reads:
		// deleting the load would delete the failure.
		isa.Fields = append(slices.Clone(isa.Fields), "no.such_field")
		isa.fieldBits = map[int]int{len(isa.Fields) - 1: 8}
		for sym, bits := range asm.fieldBits {
			isa.fieldBits[sym] = bits
		}
		splice(&isa, first+1, Instr{Op: OpLoadField, Dst: t0, Sym: len(isa.Fields) - 1})
	case 11:
		// The last MATCH consults a table the program does not have: every
		// packet that gets there fails on it, after running what came before.
		isa.Tables = slices.Clone(isa.Tables)
		isa.Tables[isa.Instrs[last].Sym] = "ghost"
	case 12:
		// The select a MATCH wrote is overwritten with packet data before
		// the ladder reads it — by an ALU after the first MATCH, by a load
		// after the last — so the ladder must run, not fold.
		splice(&isa, last+1, Instr{Op: OpLoadField, Dst: RegSel, Sym: 0})
		splice(&isa, first+1,
			Instr{Op: OpLoadField, Dst: t0, Sym: 0},
			Instr{Op: OpALU, AOp: ALUAdd, Bits: 62, Dst: RegSel, A: RegSel, B: t0},
		)
	case 13:
		// The drop register loaded from the packet after the first MATCH:
		// no path had written it until then, every drop test after may see
		// it set and must run, not fold.
		splice(&isa, first+1, Instr{Op: OpLoadField, Dst: RegDrop, Sym: 0})
	case 14:
		// A field loaded, overwritten by an ALU op wider than it, and the
		// loaded value stored elsewhere: the load may rename the field only
		// up to the store, and the store stays a masked move.
		splice(&isa, first+1,
			Instr{Op: OpLoadField, Dst: t0, Sym: lastField},
			Instr{Op: OpLoadField, Dst: t1, Sym: 0},
			Instr{Op: OpALU, AOp: ALUAdd, Bits: 62, Dst: t2, A: t0, B: t1},
			Instr{Op: OpStoreField, Sym: lastField, A: t2},
			Instr{Op: OpStoreField, Sym: 0, A: t0},
		)
	case 15:
		// One register holding two constants in turn: each reader sees the
		// one loaded last.
		splice(&isa, first+1,
			Instr{Op: OpLoadImm, Dst: t0, Imm: 5},
			Instr{Op: OpStoreField, Sym: lastField, A: t0},
			Instr{Op: OpLoadImm, Dst: t0, Imm: 9},
			Instr{Op: OpLoadField, Dst: t1, Sym: 0},
			Instr{Op: OpALU, AOp: ALUAdd, Bits: 8, Dst: t2, A: t0, B: t1},
			Instr{Op: OpStoreField, Sym: 0, A: t2},
		)
	}
	return &isa, isa.Verify()
}

// FuzzSlotsVsReference is the differential property of the dRMT flat
// programs: on every embedded benchmark, under a fuzzed table entry, fuzzed
// traffic seeds and modes, fuzzed raw field values (in and out of the
// fields' declared ranges) and an optionally miscompiled or corrupted ISA
// program, the two machines' programs — linked in the differential fuzzer,
// and each on its own — and the reference map interpreters agree on every
// field, the drop flag, every register bank, the executed instruction count
// and the error text. (The name predates the flat programs.)
func FuzzSlotsVsReference(f *testing.F) {
	for b, bm := range Benchmarks() {
		bench := uint8(b)
		for mutate := uint8(0); mutate < isaMutants; mutate++ {
			f.Add(bench, mutate, bench*5+mutate, int64(3), int64(0xff), int64(7), int64(1+bench), true)
		}
		// Every (ternary key, action) of the benchmark under a key with bits
		// outside its mask: only the masked bits may take part in the match.
		prog, err := bm.Program()
		if err != nil {
			f.Fatal(err)
		}
		seen := map[string]bool{}
		for pick := 0; pick < 256; pick++ {
			t, read, ok := pickRead(prog, uint8(pick))
			if !ok || read.Kind != p4.MatchTernary {
				continue
			}
			if id := fmt.Sprint(t.Name, read.Field, (pick/3)%len(t.Actions)); !seen[id] {
				seen[id] = true
				f.Add(bench, uint8(0), uint8(pick), int64(0x1234), int64(0xff), int64(2), int64(pick), false)
			}
		}
	}
	f.Add(uint8(1), uint8(0), uint8(9), int64(0x0a000000), int64(-1<<24), int64(-5), int64(42), false) // an l2l3 ternary prefix, negative args
	f.Add(uint8(3), uint8(1), uint8(200), int64(-1), int64(-1), int64(1<<40), int64(-9), true)         // wide-fanin, all-ones key
	f.Add(uint8(0), uint8(0), uint8(0), int64(5), int64(0), int64(1<<62), int64(77), false)            // counter: zero mask matches everything
	f.Add(uint8(0), uint8(2), uint8(1), int64(3), int64(3), int64(0), int64(1234567), true)            // exec error on the first packet
	f.Fuzz(func(t *testing.T, bench, mutate, pick uint8, key, mask, arg, seed int64, boundary bool) {
		bm := Benchmarks()[int(bench)%len(Benchmarks())]
		prog, err := bm.Program()
		if err != nil {
			t.Fatal(err)
		}
		base, err := bm.Entries(prog)
		if err != nil {
			t.Fatal(err)
		}
		entries, err := fuzzedEntries(prog, base, pick, key, mask, arg)
		if err != nil {
			t.Fatal(err)
		}
		isa, err := mutatedISA(prog, mutate)
		if err != nil {
			t.Fatal(err)
		}
		slot, err := NewDiffFuzzer(prog, isa, entries, bm.HW)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := NewRefFuzzer(prog, isa, entries)
		if err != nil {
			t.Fatal(err)
		}
		sameRegisters := func(when string, isaCells, tabCells func(name string) []int64) {
			t.Helper()
			for _, r := range prog.Registers {
				want, _ := ref.isa.Register(r.Name)
				if got := isaCells(r.Name); !slices.Equal(got, want) {
					t.Fatalf("%s: ISA register %s = %v, reference %v", when, r.Name, got, want)
				}
				want, _ = ref.tab.Register(r.Name)
				if got := tabCells(r.Name); !slices.Equal(got, want) {
					t.Fatalf("%s: table register %s = %v, reference %v", when, r.Name, got, want)
				}
			}
		}

		// The differential loop on seeded traffic.
		mode, max := TrafficUniform, bm.MaxInput
		if boundary {
			mode, max = TrafficBoundary, 0
		}
		want, err := ref.FuzzSeededMode(seed, 96, max, mode)
		if err != nil {
			t.Fatal(err)
		}
		got, err := slot.FuzzSeededMode(seed, 96, max, mode)
		if err != nil {
			t.Fatal(err)
		}
		if g, w := renderReport(got), renderReport(want); g != w {
			t.Fatalf("slot and reference reports differ:\n--- slot ---\n%s--- reference ---\n%s", g, w)
		}
		fuzzed := func(isa bool) func(string) []int64 {
			return func(name string) []int64 {
				cells := slot.registers(name)
				if isa {
					return cells[0]
				}
				return cells[1]
			}
		}
		sameRegisters("after fuzz", fuzzed(true), fuzzed(false))

		// The two machines on their own, from the state the fuzz left.
		slot.isa.frame, slot.tab.frame = slot.isa.code.NewFrame(), slot.tab.code.NewFrame()
		for _, r := range prog.Registers {
			cells := slot.registers(r.Name)
			copy(slot.isa.bank(slices.Index(slot.isa.isa.RegArrays, r.Name)), cells[0])
			copy(slot.tab.bank(slot.layout.regIdx[r.Name]), cells[1])
		}
		machine := func(isa bool) func(string) []int64 {
			return func(name string) []int64 {
				if isa {
					cells, _ := slot.isa.Register(name)
					return cells
				}
				cells, _ := slot.tab.Register(name)
				return cells
			}
		}

		// The four interpreters one packet at a time, on raw field values no
		// traffic generator draws: full-range int64s mixed with the fuzzed
		// key, the argument and small values that hit exact entries.
		rng := rand.New(rand.NewSource(seed ^ arg))
		layout := slot.Layout()
		isaBuf, tabBuf := make([]int64, layout.NumFields()), make([]int64, layout.NumFields())
		isaStats := &ISAStats{Stats: Stats{MemoryAccesses: map[string]int{}}}
		tabStats := &Stats{MemoryAccesses: map[string]int{}}
		for n := 0; n < 8; n++ {
			pkt := &Packet{ID: n, Fields: map[string]int64{}}
			for _, name := range layout.fields {
				switch rng.Intn(4) {
				case 0:
					pkt.Fields[name] = int64(rng.Uint64())
				case 1:
					pkt.Fields[name] = key
				case 2:
					pkt.Fields[name] = arg
				default:
					pkt.Fields[name] = rng.Int63n(16)
				}
			}
			if err := layout.PacketToSlots(pkt, isaBuf); err != nil {
				t.Fatal(err)
			}
			copy(tabBuf, isaBuf)
			isaPkt, tabPkt := pkt.Clone(), pkt.Clone()

			executed, dropped, gotErr := slot.isa.ExecSlots(isaBuf)
			wantExecuted, wantErr := ref.isa.exec(isaPkt, isaStats)
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || executed != wantExecuted {
				t.Fatalf("packet %d: ExecSlots %d instrs, err %v; reference %d instrs, err %v", n, executed, gotErr, wantExecuted, wantErr)
			}
			if g, w := layout.FormatSlots(isaBuf, dropped), FormatPacket(isaPkt); g != w {
				t.Fatalf("packet %d: ExecSlots %s, reference %s", n, g, w)
			}

			dropped = slot.tab.ProcessSlots(tabBuf)
			if err := ref.tab.process(tabPkt, tabStats); err != nil {
				t.Fatalf("packet %d: reference table interpreter failed on a configuration NewMachine accepted: %v", n, err)
			}
			if g, w := layout.FormatSlots(tabBuf, dropped), FormatPacket(tabPkt); g != w {
				t.Fatalf("packet %d: ProcessSlots %s, reference %s", n, g, w)
			}
			sameRegisters(fmt.Sprintf("after raw packet %d", n), machine(true), machine(false))
		}
	})
}

// registers returns the cells of a register array on the fuzzer's frame: the
// ISA side's, then the table side's.
func (f *DiffFuzzer) registers(name string) [2][]int64 {
	isa := f.isa.banks[slices.Index(f.isa.isa.RegArrays, name)]
	tab := f.tab.banks[f.layout.regIdx[name]]
	first := f.regs[tab[0]]
	return [2][]int64{f.frame[isa[0] : isa[0]+isa[1]], f.frame[first : first+tab[1]]}
}
