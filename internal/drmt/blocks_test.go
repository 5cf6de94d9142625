package drmt

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"druzhba/internal/p4"
)

// blocks_test.go is the translation validation of lower.go, one block at a
// time: every block the lowering built is run from its MATCH on random
// packets, register files and banks next to the source instructions it
// replaces, and the structural mistakes the pass could make are planted to
// show the comparison sees them. It stands in for the proof ROADMAP item
// 3(b) asks for — equivalence of a block and its source path for all
// inputs, not sampled ones — and goes when that exists.

// blockFixture is one ISA program over its table entries.
type blockFixture struct {
	name    string
	prog    *p4.Program
	isa     *ISAProgram // nil: assembled from prog
	entries *EntrySet
}

// handSrc has what no registered benchmark has: banks whose cell counts are
// not powers of two, fields of three widths, and two tables so that a block
// runs from one MATCH into the next. No action touches the fields s0 to s5:
// what a spliced instruction stores there is there when the block ends.
const handSrc = `
header_type h_t { fields { k : 8; x : 16; y : 16; z : 32; s0 : 16; s1 : 16; s2 : 8; s3 : 32; s4 : 16; s5 : 32; } }
header h_t h;
register odd { width : 16; instance_count : 3; }
register five { width : 8; instance_count : 5; }
action tally(n) { register_add(odd, h.k, n); register_read(h.y, odd, h.x); }
action note() { register_write(five, h.z, h.x); register_read(h.x, five, h.z); }
action toss() { drop(); }
table first { reads { h.k : exact; } actions { tally; toss; } default_action : tally(2); }
table second { reads { h.x : ternary; } actions { note; toss; } default_action : note(); }
control ingress { apply(first); apply(second); }
`

const handEntries = `
first h.k exact 1 tally(300)
first h.k exact 2 toss()
second h.x ternary 0x1/0x1 toss()
`

// handFixture assembles handSrc and splices ins after its first MATCH, into
// every outcome of table first. The instructions use the four temporaries
// returned, which nothing else touches.
func handFixture(t *testing.T, name string, ins func(t0, t1, t2, t3 int) []Instr) blockFixture {
	t.Helper()
	prog, err := p4.Parse(handSrc)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := ParseEntriesString(handEntries, prog)
	if err != nil {
		t.Fatal(err)
	}
	isa, err := Assemble(prog)
	if err != nil {
		t.Fatal(err)
	}
	r := isa.NumRegs
	isa.NumRegs += 4
	splice(isa, matchPCs(isa)[0]+1, ins(r, r+1, r+2, r+3)...)
	if err := isa.Verify(); err != nil {
		t.Fatal(err)
	}
	return blockFixture{name: name, prog: prog, isa: isa, entries: entries}
}

// Field symbols of handSrc.
const (
	handK = iota
	handX
	handY
	handZ
	handS0
	handS1
	handS2
	handS3
	handS4
	handS5
)

// renamingFixture is what renaming must not get wrong, each in a few
// instructions: a field loaded, overwritten, and the loaded value read after
// (the store may not be forwarded into the load, nor the ALU op before it
// write the field early); a 32-bit sum stored to a 16-bit field (the store
// stays a masked move); an ALU result stored twice (its register stays
// written); and one register holding two constants in turn.
func renamingFixture(t *testing.T) blockFixture {
	return handFixture(t, "hand/renaming", func(t0, t1, t2, t3 int) []Instr {
		return []Instr{
			{Op: OpLoadField, Dst: t0, Sym: handX},
			{Op: OpALU, AOp: ALUAdd, Bits: 16, Dst: t1, A: t0, B: RegParam0},
			{Op: OpStoreField, Sym: handX, A: t1},
			{Op: OpStoreField, Sym: handS0, A: t0},

			{Op: OpLoadField, Dst: t2, Sym: handZ},
			{Op: OpLoadImm, Dst: t3, Imm: 70000},
			{Op: OpALU, AOp: ALUAdd, Bits: 32, Dst: t1, A: t2, B: t3},
			{Op: OpStoreField, Sym: handS1, A: t1},

			{Op: OpALU, AOp: ALUSub, Bits: 16, Dst: t2, A: t2, B: t3},
			{Op: OpStoreField, Sym: handS4, A: t2},
			{Op: OpStoreField, Sym: handS5, A: t2},

			{Op: OpLoadImm, Dst: t3, Imm: 5},
			{Op: OpStoreField, Sym: handS2, A: t3},
			{Op: OpLoadImm, Dst: t3, Imm: 9},
			{Op: OpALU, AOp: ALUMul, Bits: 16, Dst: t1, A: t3, B: t0},
			{Op: OpALU, AOp: ALUAdd, Bits: 16, Dst: t3, A: t3, B: t1},
			{Op: OpStoreField, Sym: handS3, A: t3},
		}
	})
}

// dropFromFieldFixture writes the drop register from a packet field after
// the first MATCH: the drop test before the second table has to stay.
func dropFromFieldFixture(t *testing.T) blockFixture {
	return handFixture(t, "hand/drop-from-field", func(t0, _, _, _ int) []Instr {
		return []Instr{
			{Op: OpLoadField, Dst: t0, Sym: handK},
			{Op: OpALU, AOp: ALULt, Bits: 8, Dst: RegDrop, A: t0, B: RegParam0},
		}
	})
}

// blockFixtures lists the programs the blocks are validated on: every
// registered benchmark under every ISA mutant of slots_fuzz_test.go, the
// hand-written fixtures of lower_test.go (shared outcomes, failing outcomes
// and a table without default, two parameters) and the two above.
func blockFixtures(t *testing.T) []blockFixture {
	t.Helper()
	var out []blockFixture
	for _, bm := range Benchmarks() {
		prog, err := bm.Program()
		if err != nil {
			t.Fatal(err)
		}
		entries, err := bm.Entries(prog)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, blockFixture{name: bm.Name, prog: prog, entries: entries})
		for mutate := uint8(1); mutate < isaMutants; mutate++ {
			isa, err := mutatedISA(prog, mutate)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, blockFixture{name: fmt.Sprintf("%s/isa-mutant-%d", bm.Name, mutate), prog: prog, isa: isa, entries: entries})
		}
	}
	prog, entries := sharedOutcomesFixture(t, 12)
	out = append(out, blockFixture{name: "shared-outcomes", prog: prog, entries: entries})
	prog, isa, entries := failingFixture(t)
	out = append(out, blockFixture{name: "failing-outcomes", prog: prog, isa: isa, entries: entries})
	prog, isa, entries = twoParameterFixture(t)
	out = append(out, blockFixture{name: "two-parameters", prog: prog, isa: isa, entries: entries})
	return append(out, renamingFixture(t), dropFromFieldFixture(t))
}

// defsUses returns the registers a source instruction writes and reads.
func defsUses(isa *ISAProgram, in Instr) (defs, uses []int) {
	switch in.Op {
	case OpLoadImm, OpLoadField:
		defs = []int{in.Dst}
	case OpStoreField:
		uses = []int{in.A}
	case OpALU:
		defs, uses = []int{in.Dst}, []int{in.A, in.B}
	case OpLoadReg:
		defs, uses = []int{in.Dst}, []int{in.A}
	case OpStoreReg:
		uses = []int{in.A, in.B}
	case OpMatch:
		defs = []int{in.Dst}
		for i := 0; i < isa.NumParams; i++ {
			defs = append(defs, RegParam0+i)
		}
	case OpBZ, OpBNZ:
		uses = []int{in.A}
	case OpDrop:
		defs = []int{RegDrop}
	}
	return defs, uses
}

// successors returns the pcs control can reach from instruction pc.
func successors(isa *ISAProgram, pc int) []int {
	switch in := isa.Instrs[pc]; in.Op {
	case OpJmp:
		return []int{in.Target}
	case OpBZ, OpBNZ:
		return []int{pc + 1, in.Target}
	case OpHalt:
		return nil
	}
	return []int{pc + 1}
}

// sourceFacts is the test's own dataflow over the source instructions —
// not the lowering's, which works on lowered ops: live[pc][r] says register
// r may be read after control reaches pc before it is written, written[pc][r]
// that some path from pc 0 to pc writes it.
func sourceFacts(isa *ISAProgram) (live, written [][]bool) {
	n := len(isa.Instrs)
	live, written = make([][]bool, n+1), make([][]bool, n+1)
	for pc := range live {
		live[pc], written[pc] = make([]bool, isa.NumRegs), make([]bool, isa.NumRegs)
	}
	for pc := n - 1; pc >= 0; pc-- {
		for _, s := range successors(isa, pc) {
			for r, l := range live[s] {
				live[pc][r] = live[pc][r] || l
			}
		}
		defs, uses := defsUses(isa, isa.Instrs[pc])
		for _, r := range defs {
			live[pc][r] = false
		}
		for _, r := range uses {
			live[pc][r] = true
		}
		live[pc][RegZero] = false
	}
	for pc := 0; pc < n; pc++ {
		defs, _ := defsUses(isa, isa.Instrs[pc])
		for _, s := range successors(isa, pc) {
			for r, w := range written[pc] {
				written[s][r] = written[s][r] || w
			}
			for _, r := range defs {
				if r != RegZero {
					written[s][r] = true
				}
			}
		}
	}
	return live, written
}

// stepFrom is the reference for one block: refISAMachine.exec's loop started
// at pc on the register file regs, up to and including the next MATCH —
// counted, not looked up — or HALT. It returns the instructions executed
// and the pc of that MATCH, -1 when the program ended.
func (m *refISAMachine) stepFrom(pc int, regs []int64, pkt *Packet) (executed, match int, err error) {
	for pc < len(m.isa.Instrs) {
		in := m.isa.Instrs[pc]
		executed++
		next := pc + 1
		switch in.Op {
		case OpLoadImm:
			regs[in.Dst] = in.Imm
		case OpLoadField:
			v, ok := pkt.Fields[m.isa.Fields[in.Sym]]
			if !ok {
				return executed, -1, fmt.Errorf("packet lacks field %q", m.isa.Fields[in.Sym])
			}
			regs[in.Dst] = v
		case OpStoreField:
			name := m.isa.Fields[in.Sym]
			if _, ok := pkt.Fields[name]; !ok {
				return executed, -1, fmt.Errorf("packet lacks field %q", name)
			}
			pkt.Fields[name] = m.fieldW[in.Sym].Trunc(regs[in.A])
		case OpALU:
			regs[in.Dst] = aluEval(in.AOp, in.Bits, regs[in.A], regs[in.B])
		case OpLoadReg:
			cells := m.regBanks[in.Sym]
			regs[in.Dst] = cells[wrapIndex(regs[in.A], len(cells))]
		case OpStoreReg:
			cells := m.regBanks[in.Sym]
			cells[wrapIndex(regs[in.A], len(cells))] = m.regW[in.Sym].Trunc(regs[in.B])
		case OpMatch:
			if name := m.isa.Tables[in.Sym]; m.prog.Table(name) == nil {
				return executed, -1, fmt.Errorf("unknown table %q", name)
			}
			return executed, pc, nil
		case OpBZ:
			if regs[in.A] == 0 {
				next = in.Target
			}
		case OpBNZ:
			if regs[in.A] != 0 {
				next = in.Target
			}
		case OpJmp:
			next = in.Target
		case OpDrop:
			pkt.Dropped = true
			regs[RegDrop] = 1
		case OpHalt:
			return executed, -1, nil
		}
		regs[RegZero] = 0
		pc = next
	}
	return executed, -1, nil
}

// blockState is what a block leaves behind.
type blockState struct {
	fields   []int64
	banks    [][]int64
	dropped  bool
	executed int
	where    string  // "halt", "match at <pc>" or the failure
	regs     []int64 // the registers live there, in register order
}

func (s *blockState) String() string {
	return fmt.Sprintf("fields %v banks %v dropped %v executed %d, %s, live registers %v", s.fields, s.banks, s.dropped, s.executed, s.where, s.regs)
}

// blockTrial is one random state a block is entered in, and what the source
// makes of it.
type blockTrial struct {
	fields []int64
	banks  [][]int64
	regs   []int64 // the lowered side's register file: what the MATCH writes holds garbage
	live   []bool  // the registers compared at the block's end
	want   blockState
}

// blockCase is one block with its trials.
type blockCase struct {
	name   string
	start  int32
	trials []blockTrial
}

// blockCases enumerates the fixture's blocks — the entry block and every
// MATCH × outcome, a shared block once — and runs the reference over trials
// random states of each.
func blockCases(t *testing.T, fx blockFixture, m *ISAMachine, trials int) []blockCase {
	t.Helper()
	ref, err := newRefISAMachine(fx.prog, m.isa, fx.entries)
	if err != nil {
		t.Fatal(err)
	}
	isa := m.isa
	live, written := sourceFacts(isa)
	rng := rand.New(rand.NewSource(int64(len(fx.name))*7919 + int64(len(isa.Instrs))))
	// Full-range values, in and out of every width; small ones, which hit
	// entries, bank cells and each other; and 0 to 2, which the dispatch
	// ladders and drop tests of the restructured programs branch on.
	value := func() int64 {
		switch rng.Intn(8) {
		case 0, 1:
			return int64(rng.Uint64())
		case 2:
			return rng.Int63n(1 << 20)
		case 3, 4:
			return rng.Int63n(16)
		}
		return rng.Int63n(3)
	}

	// trial draws a state for the block entered at pc with the registers in
	// bound set as given, and steps the source from pc.
	trial := func(pc int, wrote []bool, bound map[int]int64, fails error) blockTrial {
		tr := blockTrial{fields: make([]int64, m.layout.NumFields()), regs: make([]int64, isa.NumRegs)}
		for i := range tr.fields {
			tr.fields[i] = value()
		}
		for i, cells := range ref.regBanks {
			tr.banks = append(tr.banks, make([]int64, len(cells)))
			for c := range cells {
				tr.banks[i][c] = ref.regW[i].Trunc(value())
			}
			copy(cells, tr.banks[i])
		}
		regs := make([]int64, isa.NumRegs)
		for r := 1; r < isa.NumRegs; r++ {
			if wrote[r] && rng.Intn(3) > 0 {
				regs[r] = value()
			}
			tr.regs[r] = regs[r]
			if v, ok := bound[r]; ok {
				regs[r], tr.regs[r] = v, value()
			}
		}
		pkt := &Packet{Fields: map[string]int64{}}
		m.layout.SlotsToPacket(tr.fields, false, pkt)
		tr.want.where, tr.live = "halt", make([]bool, isa.NumRegs)
		if fails != nil {
			tr.want.where = fails.Error()
		} else {
			executed, match, err := ref.stepFrom(pc, regs, pkt)
			tr.want.executed = executed
			switch {
			case err != nil:
				tr.want.where = err.Error()
			case match >= 0:
				tr.want.where, tr.live = fmt.Sprintf("match at %d", match), live[match]
			}
		}
		tr.want.fields = make([]int64, len(tr.fields))
		if err := m.layout.PacketToSlots(pkt, tr.want.fields); err != nil {
			t.Fatal(err)
		}
		tr.want.dropped = pkt.Dropped
		for r, l := range tr.live {
			if l {
				tr.want.regs = append(tr.want.regs, regs[r])
			}
		}
		for _, cells := range ref.regBanks {
			tr.want.banks = append(tr.want.banks, slices.Clone(cells))
		}
		return tr
	}

	entry := blockCase{name: "entry", start: m.low.entry}
	for i := 0; i < trials; i++ {
		entry.trials = append(entry.trials, trial(0, written[0], nil, nil))
	}
	cases := []blockCase{entry}
	seen := map[int32]bool{}
	for pc := range isa.Instrs {
		if m.low.code[pc].op != OpMatch {
			continue
		}
		in := isa.Instrs[pc]
		mt := &m.matchTables[in.Sym]
		for oi := 0; oi <= len(mt.entries); oi++ {
			c := blockCase{name: mt.name + "/" + mt.outcomeName(oi), start: m.low.outcomes[int(m.low.code[pc].x)+oi].block}
			if seen[c.start] {
				continue
			}
			seen[c.start] = true
			matched, sel, args, action := mt.outcome(oi)
			bound := map[int]int64{in.Dst: sel}
			for i := 0; i < isa.NumParams; i++ {
				bound[RegParam0+i] = 0
				if i < len(args) {
					bound[RegParam0+i] = args[i]
				}
			}
			delete(bound, RegZero)
			var fails error
			if matched && sel == 0 {
				fails = fmt.Errorf("table %q selected action %q outside its dispatch list", mt.name, action)
			}
			for i := 0; i < trials; i++ {
				c.trials = append(c.trials, trial(pc+1, written[pc], bound, fails))
			}
			cases = append(cases, c)
		}
	}
	return cases
}

// blockRunner returns a clone of m that runs one block at a time: edit (if
// any) is applied to a private copy of the lowered code, every MATCH — of
// the blocks and of the source copy a taken branch continues in — then stops
// the packet with "match at <its source pc>", and no register is cleared on
// entry, so that ExecSlots started at a block's first op runs the block on
// the frame it finds.
func blockRunner(m *ISAMachine, edit func(code []lop)) *ISAMachine {
	c := m.Clone()
	low := *m.low
	low.code, low.errs, low.zero = slices.Clone(low.code), slices.Clone(low.errs), nil
	if edit != nil {
		edit(low.code)
	}
	source := map[int64]int{} // a MATCH's first outcome -> its source pc
	for pc := range m.isa.Instrs {
		if o := low.code[pc]; o.op == OpMatch {
			source[o.x] = pc
		}
	}
	for i, o := range low.code {
		if o.op == OpMatch {
			low.errs = append(low.errs, fmt.Errorf("match at %d", source[o.x]))
			low.code[i] = lop{op: opFail, retire: o.retire, x: int64(len(low.errs) - 1)}
		}
	}
	c.low = &low
	return c
}

// runBlock runs the block on the trial's state and returns the first
// difference from what the source left, "" when there is none.
func runBlock(c *ISAMachine, bc *blockCase, tr *blockTrial) string {
	c.low.entry = bc.start
	for i, cells := range tr.banks {
		copy(c.regBanks[i], cells)
	}
	copy(c.frame[c.low.regBase:c.low.constBase], tr.regs)
	got := blockState{fields: slices.Clone(tr.fields), where: "halt"}
	var err error
	got.executed, got.dropped, err = c.ExecSlots(got.fields)
	if err != nil {
		got.where = err.Error()
	}
	for r, l := range tr.live {
		if l {
			got.regs = append(got.regs, c.frame[int(c.low.regBase)+r])
		}
	}
	got.banks = c.regBanks
	if g, w := got.String(), tr.want.String(); g != w {
		return fmt.Sprintf("%s: from fields %v banks %v registers %v\n  block:  %s\n  source: %s", bc.name, tr.fields, tr.banks, tr.regs, g, w)
	}
	return ""
}

// TestBlocksEqualTheirSourcePath: for every fixture, every block — the entry
// and each MATCH × outcome — leaves what the source leaves when the reference
// steps it from that MATCH with that outcome's select and arguments: field
// slots, banks, drop flag, every register live where the block ends, the
// retired count, and where control continues. Registers the source cannot
// have written by then are zero on both sides, the others random; the
// registers the MATCH writes hold garbage on the block's side, which knows
// them as constants.
func TestBlocksEqualTheirSourcePath(t *testing.T) {
	blocks := 0
	for _, fx := range blockFixtures(t) {
		m, err := NewISAMachine(fx.prog, fx.isa, fx.entries, HWConfig{})
		if err != nil {
			t.Fatalf("%s: %v", fx.name, err)
		}
		c := blockRunner(m, nil)
		cases := blockCases(t, fx, m, 48)
		blocks += len(cases)
		for i := range cases {
			for j := range cases[i].trials {
				if diff := runBlock(c, &cases[i], &cases[i].trials[j]); diff != "" {
					t.Fatalf("%s: %s\n%s", fx.name, diff, m.Lowered())
				}
			}
		}
	}
	if blocks < 500 {
		t.Fatalf("validated %d blocks, expected the fixtures to have over 500", blocks)
	}

	// The drop test folds where no path has written the drop register, and
	// only there: a program that computes it from a packet field keeps it.
	fx := dropFromFieldFixture(t)
	m, err := NewISAMachine(fx.prog, fx.isa, fx.entries, HWConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if out := m.Lowered(); !strings.Contains(out, "alu.lt/8 r1, h.k, #300") || strings.Count(out, "bnz    r1, ") != 2 {
		t.Fatalf("the drop test after table first went, or is not on r1:\n%s", out)
	}
}

// lowMutant is one structural mistake the lowering could make, planted in
// the lowered code of one block.
type lowMutant struct {
	kind, id string
	block    int32 // start of the block it is in
	edit     func(code []lop)
}

// skip is what a deleted op leaves: its retired count, rolled onto a jump to
// the next op.
func skip(code []lop, i int) { code[i] = lop{op: OpJmp, retire: code[i].retire, x: int64(i + 1)} }

// lowMutantsOf enumerates the mutants of m's blocks:
//
//   - forward: a move that settles a renamed register before its slot is
//     overwritten (or before control leaves) is missing, and the block's
//     later reads of the register go to what it renamed — a field load
//     forwarded across a store to that field;
//   - coalesce: an ALU op takes over the storef after it although its result
//     is wider than the field, or its register is read again;
//   - unwritten: a register some path has written is taken for its initial
//     0 — a kept branch on it folds, an operand reads #0;
//   - mask: a bank whose cell count is not a power of two wraps by mask;
//   - retire: an op does not carry what was rolled onto it;
//   - stale: an operand reads another constant register than its own.
func lowMutantsOf(m *ISAMachine) []lowMutant {
	low := m.low
	var out []lowMutant
	isReg := func(idx int32) bool { return idx >= low.regBase && idx < low.constBase }
	isConst := func(idx int32) bool { return idx >= low.constBase }
	block := low.entry
	var wrote map[int32]bool // the registers the block has written so far
	for i := int(low.entry); i < len(low.code); i++ {
		i, o := i, low.code[i]
		if int32(i) == block {
			wrote = map[int32]bool{}
		}
		add := func(kind string, operand string, edit func(code []lop)) {
			out = append(out, lowMutant{kind, fmt.Sprintf("%s%s@%d", kind, operand, i-int(low.entry)), block, edit})
		}
		// reads calls f with every frame operand o reads.
		reads := func(o *lop, f func(name string, idx *int32)) {
			switch o.op {
			case OpLoadImm, OpLoadField, OpStoreField, OpLoadReg, opLoadRegMask, OpBZ, OpBNZ:
				f(".a", &o.a)
			case OpALU, opAdd, OpStoreReg, opStoreRegMask:
				f(".a", &o.a)
				f(".b", &o.b)
			}
		}
		end := i // the block's last op
		for ; ; end++ {
			if op := low.code[end].op; op == OpMatch || op == OpHalt || op == opFail {
				break
			}
		}

		if (o.op == OpLoadImm || o.op == OpLoadField) && isReg(o.dst) {
			add("forward", "", func(code []lop) {
				skip(code, i)
				for j := i + 1; j <= end; j++ {
					reads(&code[j], func(_ string, idx *int32) {
						if *idx == o.dst {
							*idx = o.a
						}
					})
					if code[j].writesFrame() && code[j].dst == o.dst {
						break
					}
				}
			})
		}
		if (o.op == OpALU || o.op == opAdd) && isReg(o.dst) && low.code[i+1].op == OpStoreField && low.code[i+1].a == o.dst {
			add("coalesce", "", func(code []lop) {
				code[i].dst = code[i+1].dst
				skip(code, i+1)
			})
		}
		if (o.op == OpBZ || o.op == OpBNZ) && isReg(o.a) {
			add("unwritten", "", func(code []lop) {
				skip(code, i)
				if o.op == OpBZ {
					code[i].x = o.x
				}
			})
		}
		reads(&o, func(name string, idx *int32) {
			at := *idx
			if o.op != OpBZ && o.op != OpBNZ && isReg(at) && at != low.regBase && !wrote[at] {
				add("unwritten", name, func(code []lop) {
					reads(&code[i], func(n string, idx *int32) {
						if n == name {
							*idx = low.constBase
						}
					})
				})
			}
			if isConst(at) && len(low.consts) > 1 {
				add("stale", name, func(code []lop) {
					reads(&code[i], func(n string, idx *int32) {
						if n == name {
							*idx = low.constBase + (at-low.constBase+1)%int32(len(low.consts))
						}
					})
				})
			}
		})
		switch o.op {
		case OpLoadReg:
			add("mask", "", func(code []lop) { code[i].op = opLoadRegMask })
		case OpStoreReg:
			add("mask", "", func(code []lop) { code[i].op = opStoreRegMask })
		}
		if o.retire > 1 {
			add("retire", "", func(code []lop) { code[i].retire-- })
		}

		if o.writesFrame() || o.op == opAdd || o.op == OpDrop {
			wrote[o.dst] = true
		}
		if i == end {
			block = int32(i + 1)
		}
	}
	return out
}

// TestBlockMutantsAreCaught plants every structural mutant of the lowering in
// every fixture's blocks and runs the comparison of
// TestBlocksEqualTheirSourcePath on the block it is in. Every kind must be
// caught somewhere, and the survivors must be the ones listed: mutants that
// are not mistakes.
func TestBlockMutantsAreCaught(t *testing.T) {
	planted, caught := map[string]int{}, map[string]int{}
	var survivors []string
	for _, fx := range blockFixtures(t) {
		m, err := NewISAMachine(fx.prog, fx.isa, fx.entries, HWConfig{})
		if err != nil {
			t.Fatal(err)
		}
		cases := blockCases(t, fx, m, 48)
		for _, mu := range lowMutantsOf(m) {
			planted[mu.kind]++
			c := blockRunner(m, mu.edit)
			killed := false
			for i := range cases {
				if cases[i].start != mu.block {
					continue
				}
				for j := range cases[i].trials {
					killed = killed || runBlock(c, &cases[i], &cases[i].trials[j]) != ""
				}
			}
			if killed {
				caught[mu.kind]++
			} else {
				survivors = append(survivors, fx.name+" "+mu.id)
			}
		}
	}
	for _, kind := range []string{"forward", "coalesce", "unwritten", "mask", "retire", "stale"} {
		if caught[kind] == 0 {
			t.Errorf("no %s mutant was caught (%d planted)", kind, planted[kind])
		}
	}
	sort.Strings(survivors)
	var want []string
	for id := range blockMutantSurvivors {
		want = append(want, id)
	}
	sort.Strings(want)
	if !slices.Equal(survivors, want) {
		t.Errorf("surviving mutants:\n%s\nwant:\n%s", strings.Join(survivors, "\n"), strings.Join(want, "\n"))
	}
	t.Logf("planted %v, caught %v", planted, caught)
}

// Why a surviving mutant is not a mistake.
const (
	storedAgain = "the field it changes is stored again before the block ends"
	oneBitField = "both constants are odd, and all that shows is a 1-bit field"
	otherSelect = "settles the parameter register for the branch target, where only the path of another select reads it"
)

// blockMutantSurvivors are the mutants no state tells from the block they
// were planted in.
var blockMutantSurvivors = map[string]string{
	"counter/isa-mutant-3 forward@2":        otherSelect,
	"counter/isa-mutant-3 stale.a@2":        otherSelect,
	"counter/isa-mutant-4 stale.a@6":        storedAgain,
	"counter/isa-mutant-4 stale.a@14":       storedAgain,
	"counter/isa-mutant-14 forward@8":       storedAgain,
	"counter/isa-mutant-14 forward@18":      storedAgain,
	"counter/isa-mutant-15 stale.a@6":       storedAgain,
	"counter/isa-mutant-15 stale.a@14":      storedAgain,
	"two-parameters stale.a@2":              storedAgain,
	"two-parameters stale.b@3":              storedAgain,
	"two-parameters stale.a@10":             storedAgain,
	"two-parameters stale.b@11":             storedAgain,
	"l2l3/isa-mutant-3 stale.a@3":           oneBitField,
	"l2l3/isa-mutant-3 stale.a@5":           oneBitField,
	"l2l3/isa-mutant-15 stale.a@1":          oneBitField,
	"l2l3-targeted/isa-mutant-3 stale.a@3":  oneBitField,
	"l2l3-targeted/isa-mutant-3 stale.a@5":  oneBitField,
	"l2l3-targeted/isa-mutant-15 stale.a@1": oneBitField,
}
