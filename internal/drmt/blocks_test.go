package drmt

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"druzhba/internal/flat"
	"druzhba/internal/p4"
)

// blocks_test.go is the translation validation of lower.go, one block at a
// time: every block of the flat program the lowering built is run from its
// start on random packets, register files and banks next to the source
// instructions it replaces, and the structural mistakes the pass could make
// are planted in the flat code to show the comparison sees them, and those
// it cannot tell apart are decided by proof (proof_test.go). It samples
// what proof_test.go does not prove: a block against its source path, on
// fixtures whose ISA programs no table machine agrees with.

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

// vars numbers what the source computes with, as the test's own dataflow
// sees it: the ISA registers, then one variable per layout field slot, then
// the drop flag.
type vars struct{ regs, fields int }

func (v vars) field(slot int) int { return v.regs + slot }
func (v vars) drop() int          { return v.regs + v.fields }
func (v vars) n() int             { return v.regs + v.fields + 1 }

// defsUses returns the variables a source instruction writes and reads, and
// whether it fails wherever it is reached.
func defsUses(m *ISAMachine, v vars, in Instr) (defs, uses []int, fails bool) {
	reg := func(r int) {
		if r != RegZero {
			defs = append(defs, r)
		}
	}
	slot := func(sym int) int {
		if s, ok := m.layout.fieldIdx[m.isa.Fields[sym]]; ok {
			return s
		}
		fails = true
		return 0
	}
	switch in.Op {
	case OpLoadImm:
		reg(in.Dst)
	case OpLoadField:
		s := slot(in.Sym)
		if in.Dst != RegZero {
			reg(in.Dst)
			uses = []int{v.field(s)}
		}
	case OpStoreField:
		defs, uses = []int{v.field(slot(in.Sym))}, []int{in.A}
	case OpALU:
		if in.Dst != RegZero {
			reg(in.Dst)
			uses = []int{in.A, in.B}
		}
	case OpLoadReg:
		if in.Dst != RegZero {
			reg(in.Dst)
			uses = []int{in.A}
		}
	case OpStoreReg:
		uses = []int{in.A, in.B}
	case OpMatch:
		mt := &m.matchTables[in.Sym]
		fails = mt.err != nil
		reg(in.Dst)
		for i := 0; i < m.isa.NumParams; i++ {
			reg(RegParam0 + i)
		}
		for _, k := range mt.keys {
			uses = append(uses, v.field(k.slot))
		}
	case OpBZ, OpBNZ:
		uses = []int{in.A}
	case OpDrop:
		defs = []int{RegDrop, v.drop()}
	}
	return defs, uses, fails
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

// sourceFacts is the test's own dataflow over the source instructions — not
// the lowering's: live[pc][v] says variable v may be read after control
// reaches pc before it is written, every field and the drop flag being read
// where the program ends; written[pc][v] that some path from pc 0 to pc
// writes it.
func sourceFacts(m *ISAMachine) (v vars, live, written [][]bool) {
	isa := m.isa
	v = vars{isa.NumRegs, m.layout.NumFields()}
	n := len(isa.Instrs)
	live, written = make([][]bool, n+1), make([][]bool, n+1)
	for pc := range live {
		live[pc], written[pc] = make([]bool, v.n()), make([]bool, v.n())
	}
	outputs := live[n]
	for i := v.regs; i < v.n(); i++ {
		outputs[i] = true
	}
	for pc := n - 1; pc >= 0; pc-- {
		defs, uses, fails := defsUses(m, v, isa.Instrs[pc])
		if fails || isa.Instrs[pc].Op == OpHalt {
			copy(live[pc], outputs)
			continue
		}
		for _, s := range successors(isa, pc) {
			for i, l := range live[s] {
				live[pc][i] = live[pc][i] || l
			}
		}
		for _, d := range defs {
			live[pc][d] = false
		}
		for _, u := range uses {
			live[pc][u] = true
		}
		live[pc][RegZero] = false
	}
	for pc := 0; pc < n; pc++ {
		defs, _, fails := defsUses(m, v, isa.Instrs[pc])
		if fails {
			continue
		}
		for _, s := range successors(isa, pc) {
			for i, w := range written[pc] {
				written[s][i] = written[s][i] || w
			}
			for _, d := range defs {
				written[s][d] = true
			}
		}
	}
	return v, live, written
}

// blockTrial is one random state a block is entered in, and what the source
// makes of it.
type blockTrial struct {
	fields []int64
	banks  [][]int64
	regs   []int64 // the lowered side's register file: what the MATCH writes holds garbage
	want   string

	executed int64 // the source instructions the reference retired
	at       int   // the source pc of the MATCH it stopped at, len(Instrs) at the end or a failure
}

// selects renders what a MATCH selects: the select and every parameter
// register, or the error the selection fails with and the arguments of the
// call that fails, whose outcome has a block of its own.
func selects(m *ISAMachine, sel int64, args []int64, err error) string {
	params := make([]int64, m.isa.NumParams)
	copy(params, args)
	if err != nil {
		return fmt.Sprint(err, " with arguments ", params)
	}
	return fmt.Sprint("select ", sel, " parameters ", params)
}

// refSelects renders what the reference's MATCH on table sym selects on
// pkt, as selects does.
func refSelects(m *ISAMachine, ref *refISAMachine, sym int, pkt *refPacket) string {
	sel, args, err := ref.match(sym, pkt)
	if err != nil && m.matchTables[sym].err == nil {
		call := m.prog.Table(m.isa.Tables[sym]).Default
		for _, e := range m.entries.ForTable(m.isa.Tables[sym]) {
			if v, ok := pkt.Fields[e.Field]; ok && e.Matches(v) {
				call = &e.Action
				break
			}
		}
		args = call.Args
	}
	return selects(m, int64(sel), args, err)
}

// blockCase is one block with its trials, and the facts the comparison
// needs.
type blockCase struct {
	name    string
	block   lowBlock
	wrote   []bool // the variables some path to the block has written
	trials  []blockTrial
	lookups []lookupTrial // of the lookup the block ends in
	*blockFacts
}

// lookupTrial is one packet a lookup is run on from its first test, and
// what the MATCH it stands for selects on it.
type lookupTrial struct {
	fields []int64
	want   string
}

// garbage is what the lowered side holds where the source has nothing yet.
func garbage(i int) int64 { return -7919 * int64(i+1) }

// blockFacts is the source dataflow and the frame registers of one machine.
type blockFacts struct {
	v             vars
	live, written [][]bool
	frameRegs
}

// blockCases enumerates the lowered program's blocks — the entry, every
// MATCH × distinct outcome and every branch target — and runs the reference
// over trials random states of each: from the block's source pc up to the
// next MATCH, HALT or failure, whatever branches it takes, and through the
// lookup of that MATCH.
func blockCases(t *testing.T, fx blockFixture, m *ISAMachine, trials int) []blockCase {
	t.Helper()
	ref, err := newRefISAMachine(fx.prog, m.isa, fx.entries)
	if err != nil {
		t.Fatal(err)
	}
	isa := m.isa
	v, live, written := sourceFacts(m)
	facts := &blockFacts{v, live, written, regsOf(m)}
	rng := rand.New(rand.NewSource(int64(len(fx.name))*7919 + int64(len(isa.Instrs))))
	// Full-range values, in and out of every width; small ones, which hit
	// entries, bank cells and each other; 0 to 2, which the dispatch ladders
	// and drop tests of the restructured programs branch on; the same with the
	// bit above a field's or the datapath's width set, which only a mask tells
	// from them; and the all-ones pattern of a width.
	value := func() int64 {
		switch rng.Intn(10) {
		case 0, 1:
			return int64(rng.Uint64())
		case 2:
			return rng.Int63n(1 << 20)
		case 3, 4:
			return rng.Int63n(16)
		case 5:
			return rng.Int63n(3) + 1<<[...]int{8, 16, 32, 62}[rng.Intn(4)]
		case 6:
			return 1<<(1+rng.Intn(62)) - 1
		}
		return rng.Int63n(3)
	}
	// What a lookup's tests tell apart: each key an entry tests a field for,
	// one off it, with every bit outside the entry's mask set, and with each
	// bit of the field and the bit above its width flipped. Random trials
	// draw them now and then; a lookup is run on each in turn.
	keyed := make([][]int64, v.fields)
	for _, mt := range m.matchTables {
		for _, k := range mt.keys {
			w := m.layout.fieldW[k.slot]
			keyed[k.slot] = append(keyed[k.slot], k.key, k.key+1, k.key-1, k.key|^k.mask&w.Mask())
			for b := 0; b <= w.Bits(); b++ {
				keyed[k.slot] = append(keyed[k.slot], k.key^1<<b)
			}
		}
	}

	// trial draws a state for the block that steps the source from pc, with
	// the registers some path to it wrote random — and those in bound set as
	// given — and steps the source.
	trial := func(pc int, wrote []bool, bound map[int]int64, fails error) blockTrial {
		tr := blockTrial{fields: make([]int64, v.fields), regs: make([]int64, v.regs)}
		for i := range tr.fields {
			tr.fields[i] = value()
			if len(keyed[i]) > 0 && rng.Intn(3) == 0 {
				tr.fields[i] = keyed[i][rng.Intn(len(keyed[i]))]
			}
		}
		for i, cells := range ref.regBanks {
			tr.banks = append(tr.banks, make([]int64, len(cells)))
			for c := range cells {
				tr.banks[i][c] = ref.regW[i].Trunc(value())
			}
			copy(cells, tr.banks[i])
		}
		regs := make([]int64, v.regs)
		for r := 1; r < v.regs; r++ {
			// A register no path has written is 0 for the source; the
			// lowering must not read its home, which holds garbage.
			tr.regs[r] = garbage(r)
			if wrote[r] {
				if rng.Intn(3) > 0 {
					regs[r] = value()
				}
				tr.regs[r] = regs[r]
			}
			if b, ok := bound[r]; ok {
				regs[r], tr.regs[r] = b, value()
			}
		}
		pkt := newRefPacket(m.layout.fields, 0, tr.fields)
		executed, at, where := 0, len(isa.Instrs), "halt"
		if fails != nil {
			where = fails.Error()
		} else {
			var match int
			executed, match, err = ref.stepFrom(pc, regs, pkt)
			switch {
			case err != nil:
				where = err.Error()
			case match >= 0:
				at, where = match, fmt.Sprintf("match at %d: %s", match, refSelects(m, ref, isa.Instrs[match].Sym, pkt))
			}
		}
		fields := pkt.slots(m.layout)
		var banks [][]int64
		for _, cells := range ref.regBanks {
			banks = append(banks, slices.Clone(cells))
		}
		tr.executed, tr.at = int64(executed), at
		tr.want = blockState(v, live[at], where, banks, func(i int) int64 {
			switch {
			case i < v.regs:
				return regs[i]
			case i < v.drop():
				return fields[i-v.regs]
			}
			return phvBool(pkt.Dropped)
		})
		return tr
	}

	var cases []blockCase
	for _, bl := range m.blocks {
		c := blockCase{name: "branch target", block: bl, blockFacts: facts}
		var bound map[int]int64
		var fails error
		if bl.match >= 0 {
			in := isa.Instrs[bl.match]
			mt := &m.matchTables[in.Sym]
			c.name = mt.name + "/" + mt.outcomeName(bl.oi)
			matched, sel, args, action := mt.outcome(bl.oi)
			bound = map[int]int64{in.Dst: sel}
			for i := 0; i < isa.NumParams; i++ {
				bound[RegParam0+i] = 0
				if i < len(args) {
					bound[RegParam0+i] = args[i]
				}
			}
			delete(bound, RegZero)
			if matched && sel == 0 {
				fails = fmt.Errorf("table %q selected action %q outside its dispatch list", mt.name, action)
			}
		} else if bl.pc == 0 {
			c.name = "entry"
		}
		wrote := written[bl.pc]
		if bl.match >= 0 {
			wrote = written[bl.match]
		}
		c.wrote = wrote
		for i := 0; i < trials; i++ {
			c.trials = append(c.trials, trial(bl.pc, wrote, bound, fails))
		}
		if bl.lookup >= 0 {
			sym := isa.Instrs[bl.lookup].Sym
			for _, k := range m.matchTables[sym].keys {
				for _, x := range append(keyed[k.slot], value()) {
					lt := lookupTrial{fields: make([]int64, v.fields)}
					for i := range lt.fields {
						lt.fields[i] = value()
					}
					lt.fields[k.slot] = x
					pkt := newRefPacket(m.layout.fields, 0, lt.fields)
					lt.want = fmt.Sprintf("match at %d: %s", bl.lookup, refSelects(m, ref, sym, pkt))
					c.lookups = append(c.lookups, lt)
				}
			}
		}
		cases = append(cases, c)
	}
	return cases
}

func phvBool(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// blockState renders what a block leaves behind: where control continues,
// the banks, and every variable live there.
func blockState(v vars, live []bool, where string, banks [][]int64, value func(int) int64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s, banks %v,", where, banks)
	for i, l := range live {
		if !l {
			continue
		}
		switch {
		case i < v.regs:
			fmt.Fprintf(&b, " r%d=%d", i, value(i))
		case i < v.drop():
			fmt.Fprintf(&b, " field%d=%d", i-v.regs, value(i))
		default:
			fmt.Fprintf(&b, " dropped=%d", value(i))
		}
	}
	return b.String()
}

// frameRegs is where a machine's program keeps what the test sets and reads.
type frameRegs struct {
	regBase int   // the home of ISA register 0
	zero    int   // the constant 0
	consts  []int // every constant register
}

// regsOf finds them by the names the listing gives them.
func regsOf(m *ISAMachine) frameRegs {
	var f frameRegs
	for r := range m.code.NewFrame() {
		switch name := m.code.RegName(r); {
		case name == "r0":
			f.regBase = r
		case strings.HasPrefix(name, "#"):
			f.consts = append(f.consts, r)
			if name == "#0" {
				f.zero = r
			}
		}
	}
	return f
}

// blockRunner returns a function that makes m's program, with edit (if any)
// applied, run block i from its instruction at: the program's first
// instruction becomes a jump there, and the packet stops with the trap code
// base+j where a lookup enters outcome block j — the block's first
// instruction is the trap — and with base+len(blocks) at the end of the
// program; base is one past the codes of the program's own traps. Where
// blocks start at one instruction, an empty block falls into the next: the
// trap is the first's, except for a run from there.
func blockRunner(m *ISAMachine, edit func(code []flat.Instr)) (func(i, at int) *flat.Program, error) {
	f := regsOf(m)
	base := len(m.errs) + 1
	trap := func(code int) flat.Instr {
		return flat.Instr{Op: flat.Trap, A: uint32(m.err), B: uint32(f.zero), C: uint32(base + code)}
	}
	prog, err := m.code.Mutate(func(c []flat.Instr) []flat.Instr {
		if edit != nil {
			edit(c)
		}
		return append(c, trap(len(m.blocks)))
	})
	if err != nil {
		return nil, err
	}
	return func(i, at int) *flat.Program {
		p, err := prog.Mutate(func(c []flat.Instr) []flat.Instr {
			for j := len(m.blocks) - 1; j >= 0; j-- {
				if bl := m.blocks[j]; bl.match >= 0 && j != i && (j > i || bl.start != at) {
					c[bl.start] = trap(j)
				}
			}
			if at != 0 {
				c[0] = flat.Instr{Op: flat.Jmp, A: uint32(at)}
			}
			return c
		})
		if err != nil {
			panic(err)
		}
		return p
	}, nil
}

// runBlock runs the block on the trial's state and returns the first
// difference from what the source left, "" when there is none, and what the
// block added to the count.
func runBlock(m *ISAMachine, p *flat.Program, bc *blockCase, tr *blockTrial) (diff string, added int64) {
	f, v, live, written := bc.frameRegs, bc.v, bc.live, bc.written
	// A field no path has stored to is at its input register, and the output
	// register holds garbage; so does the drop flag's before a drop.
	frame := p.NewFrame()
	for slot, x := range tr.fields {
		frame[m.in+slot] = x
		if out := m.out[slot]; out != m.in+slot {
			frame[out] = garbage(out)
			if bc.wrote[v.field(slot)] {
				frame[out] = x
			}
		}
	}
	if m.canDrop && !bc.wrote[v.drop()] {
		frame[m.dropped] = garbage(m.dropped)
	}
	copy(frame[f.regBase:], tr.regs)
	for i, cells := range tr.banks {
		copy(frame[m.banks[i][0]:], cells)
	}
	p.Run(frame)

	at, where := stopped(m, frame)
	n := len(m.isa.Instrs)
	var banks [][]int64
	for i := range tr.banks {
		banks = append(banks, slices.Clone(frame[m.banks[i][0]:m.banks[i][0]+m.banks[i][1]]))
	}
	got := blockState(v, live[at], where, banks, func(i int) int64 {
		// Where the variable is: at home if some path to here has written
		// it, where it starts otherwise — and every output at home where the
		// program ends.
		home := at == n || written[at][i]
		switch {
		case i < v.regs && home:
			return frame[f.regBase+i]
		case i < v.regs:
			return 0
		case i < v.drop() && home:
			return frame[m.out[i-v.regs]]
		case i < v.drop():
			return frame[m.in+i-v.regs]
		case home:
			return frame[m.dropped]
		}
		return 0
	})
	if got != tr.want {
		return fmt.Sprintf("%s: from fields %v banks %v registers %v\n  block:  %s\n  source: %s", bc.name, tr.fields, tr.banks, tr.regs, got, tr.want), frame[m.count]
	}
	return "", frame[m.count]
}

// stopped decodes where a run of blockRunner's program stopped: the source
// pc it stands for, and a failure, the end or the MATCH whose outcome block
// it entered with what that selects.
func stopped(m *ISAMachine, frame []int64) (at int, where string) {
	at, where = len(m.isa.Instrs), "halt"
	switch code := int(frame[m.err]) - len(m.errs) - 1; {
	case code < 0:
		where = m.errs[frame[m.err]-1].Error()
	case code < len(m.blocks):
		bl := m.blocks[code]
		mt := &m.matchTables[m.isa.Instrs[bl.match].Sym]
		matched, sel, args, action := mt.outcome(bl.oi)
		var err error
		if matched && sel == 0 {
			err = fmt.Errorf("table %q selected action %q outside its dispatch list", mt.name, action)
		}
		at, where = bl.match, fmt.Sprintf("match at %d: %s", bl.match, selects(m, sel, args, err))
	}
	return at, where
}

// runLookup runs the lookup block case bc ends in, from its first test, on
// a packet whose every field holds the trial's value at its input and its
// output register alike, and returns how what it selects differs from what
// the MATCH does, "" when it does not.
func runLookup(m *ISAMachine, p *flat.Program, bc *blockCase, lt *lookupTrial) string {
	frame := p.NewFrame()
	for slot, x := range lt.fields {
		frame[m.in+slot], frame[m.out[slot]] = x, x
	}
	p.Run(frame)
	if _, got := stopped(m, frame); got != lt.want {
		return fmt.Sprintf("%s: the lookup on fields %v: %s, the MATCH: %s", bc.name, lt.fields, got, lt.want)
	}
	return ""
}

// blockCounts is how far the lowered program's count is ahead of the
// source's where each block starts (by its index among the machine's
// blocks), and where the blocks of each MATCH start (by its source pc).
type blockCounts struct {
	block []int64
	site  map[int]int64
}

// countsOf derives a blockCounts from what the runs of the blocks added to
// the count (added[i][j]: case i, trial j) and checks that the counts add up
// along every path from the entry: every run of a block starts ahead by one
// amount, the entry by none; every run ends at its next MATCH ahead by the
// amount that every block of the MATCH starts at, and at the end or a
// failure exactly. Control only goes forward, so the blocks are taken from
// the last.
func countsOf(m *ISAMachine, cases []blockCase, added [][]int64) (*blockCounts, error) {
	c := &blockCounts{block: make([]int64, len(cases)), site: map[int]int64{}}
	for i := len(cases) - 1; i >= 0; i-- {
		bc := &cases[i]
		for j := range bc.trials {
			after, err := c.after(m, &bc.trials[j])
			if err != nil {
				return nil, fmt.Errorf("%s: %w", bc.name, err)
			}
			ahead := after - added[i][j] + bc.trials[j].executed
			if j > 0 && ahead != c.block[i] {
				return nil, fmt.Errorf("%s: a run starts %d ahead of the source's count, another %d", bc.name, c.block[i], ahead)
			}
			c.block[i] = ahead
		}
		switch bl := bc.block; {
		case bl.pc == 0 && bl.match < 0 && c.block[i] != 0:
			return nil, fmt.Errorf("%s: the entry starts %d ahead of the source's count", bc.name, c.block[i])
		case bl.match >= 0:
			if ahead, ok := c.site[bl.match]; ok && ahead != c.block[i] {
				return nil, fmt.Errorf("%s: starts %d ahead of the source's count, another block of its MATCH %d", bc.name, c.block[i], ahead)
			}
			c.site[bl.match] = c.block[i]
		}
	}
	return c, nil
}

// after is how far the count must be ahead where the trial's run ends.
func (c *blockCounts) after(m *ISAMachine, tr *blockTrial) (int64, error) {
	if tr.at == len(m.isa.Instrs) {
		return 0, nil
	}
	ahead, ok := c.site[tr.at]
	if !ok {
		return 0, fmt.Errorf("a run ends at the MATCH at %d, which has no block", tr.at)
	}
	return ahead, nil
}

// check reports whether the run of case i that added added to the count on
// trial tr leaves the count where the path from the entry needs it.
func (c *blockCounts) check(m *ISAMachine, i int, tr *blockTrial, added int64) string {
	after, err := c.after(m, tr)
	if err != nil {
		return err.Error()
	}
	if got := c.block[i] + added - tr.executed; got != after {
		return fmt.Sprintf("the count ends %d ahead of the source's, want %d", got, after)
	}
	return ""
}

// TestBlocksEqualTheirSourcePath: for every fixture, every block — the entry,
// each MATCH × outcome and each branch target — leaves what the source
// leaves when the reference steps it from the block's source pc (after a
// MATCH with that outcome's select and arguments) to the next MATCH, HALT
// or failure: banks, where control continues, and every variable live there
// — registers, fields and the drop flag. Registers the source cannot have
// written by then are zero on both sides, the others random; the registers
// the MATCH writes hold garbage on the block's side, which knows them as
// constants. A block's count additions are not its own source path's — the
// lowering hoists them into the blocks before — so the counts are compared
// per path from the entry (countsOf): at the end and at every failure the
// count is the source's.
func TestBlocksEqualTheirSourcePath(t *testing.T) {
	blocks := 0
	for _, fx := range blockFixtures(t) {
		m, err := NewISAMachine(fx.prog, fx.isa, fx.entries, HWConfig{})
		if err != nil {
			t.Fatalf("%s: %v", fx.name, err)
		}
		from, err := blockRunner(m, nil)
		if err != nil {
			t.Fatal(err)
		}
		cases := blockCases(t, fx, m, 64)
		blocks += len(cases)
		added := make([][]int64, len(cases))
		for i := range cases {
			p := from(i, cases[i].block.start)
			for j := range cases[i].trials {
				diff, n := runBlock(m, p, &cases[i], &cases[i].trials[j])
				if diff != "" {
					t.Fatalf("%s: %s\n%s", fx.name, diff, m.Lowered())
				}
				added[i] = append(added[i], n)
			}
			p = from(i, cases[i].block.tests)
			for j := range cases[i].lookups {
				if diff := runLookup(m, p, &cases[i], &cases[i].lookups[j]); diff != "" {
					t.Fatalf("%s: %s\n%s", fx.name, diff, m.Lowered())
				}
			}
		}
		if _, err := countsOf(m, cases, added); err != nil {
			t.Fatalf("%s: %v\n%s", fx.name, err, m.Lowered())
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
	if out := m.Lowered(); !strings.Contains(out, "lt   r1, s0, #44") || strings.Count(out, "jne  r1, #0 -> ") != 2 {
		t.Fatalf("the drop test after table first went, or is not on r1:\n%s", out)
	}
}

// lowMutant is one structural mistake the lowering could make, planted in
// the flat code of one block.
type lowMutant struct {
	kind, id string
	block    int // the block it is in, by index
	at       int // the instruction it is planted in
	edit     func(code []flat.Instr)
}

// skip is what a deleted instruction leaves: a jump to the next.
func skip(c []flat.Instr, i int) { c[i] = flat.Instr{Op: flat.Jmp, A: uint32(i + 1)} }

// operands calls f with every register operand the instruction reads.
func operands(in *flat.Instr, f func(name string, r *uint32)) {
	switch in.Op {
	case flat.Mov:
		f(".b", &in.B)
	case flat.Load, flat.LoadMask:
		f(".c", &in.C)
	case flat.Trap, flat.Jmp:
	default:
		f(".b", &in.B)
		f(".c", &in.C)
	}
}

// written returns the register a value instruction or a load writes.
func written(in flat.Instr) (uint32, bool) {
	switch in.Op {
	case flat.Jmp, flat.Jeq, flat.Jne, flat.Trap, flat.Store, flat.StoreMask:
		return 0, false
	}
	return in.A, true
}

// lowMutantsOf enumerates the mutants of m's blocks:
//
//   - forward: a move that settles a renamed register before what it renamed
//     is overwritten (or before control leaves) is missing, and the block's
//     later reads of the register go to what it renamed — a field load
//     forwarded across a store to that field;
//   - coalesce: an instruction takes over the store to a field after it
//     although its result is wider than the field, or its register is read
//     again;
//   - unwritten: a register some path has written is taken for its initial
//     0 — a kept branch on it folds, an operand reads #0;
//   - mask: a bank whose cell count is not a power of two wraps by mask;
//   - retire: a count addition is missing;
//   - stale: an operand reads another constant register than its own;
//   - store: a store to a field's output register or to the drop flag is
//     missing — the dead-store pass deleting a live one;
//   - invert: a lookup's jeq is a jne, or its jne a jeq;
//   - retarget: a lookup's branch goes to another block of its lookup;
//   - key: a lookup's branch compares with key+1 or key-1, where the program
//     has a constant register that holds it.
func lowMutantsOf(m *ISAMachine) []lowMutant {
	f := regsOf(m)
	all := code(m.code)
	init := m.code.NewFrame()
	outcomeBlock := func(start uint32) int {
		return slices.IndexFunc(m.blocks, func(bl lowBlock) bool { return bl.match >= 0 && bl.start == int(start) })
	}
	isReg := func(r uint32) bool { return int(r) >= f.regBase && int(r) < f.regBase+m.isa.NumRegs }
	isOut := func(r uint32) bool {
		for slot, out := range m.out {
			if int(r) == out && out != m.in+slot {
				return true
			}
		}
		return m.canDrop && int(r) == m.dropped
	}
	var out []lowMutant
	for b, bl := range m.blocks {
		wrote := map[uint32]bool{} // the registers the block has written so far
		for i := bl.start; i < bl.end; i++ {
			i, in := i, all[i]
			add := func(kind, operand string, edit func(c []flat.Instr)) {
				out = append(out, lowMutant{kind, fmt.Sprintf("%s%s@%d", kind, operand, i), b, i, edit})
			}
			if in.Op == flat.Mov && isReg(in.A) {
				add("forward", "", func(c []flat.Instr) {
					skip(c, i)
					for j := i + 1; j < bl.end; j++ {
						operands(&c[j], func(_ string, r *uint32) {
							if *r == in.A {
								*r = in.B
							}
						})
						if w, ok := written(c[j]); ok && w == in.A {
							break
						}
					}
				})
			}
			if w, ok := written(in); ok && isReg(w) && i+1 < bl.end && all[i+1].Op == flat.And && isOut(all[i+1].A) && all[i+1].B == w {
				add("coalesce", "", func(c []flat.Instr) {
					c[i].A = c[i+1].A
					skip(c, i+1)
				})
			}
			branch, lookup := in.Op == flat.Jeq || in.Op == flat.Jne, bl.lookup >= 0 && i >= bl.tests
			if branch && !lookup && isReg(in.B) {
				add("unwritten", "", func(c []flat.Instr) {
					skip(c, i)
					if in.Op == flat.Jeq {
						c[i].A = in.A
					}
				})
			}
			operands(&in, func(name string, r *uint32) {
				at := *r
				if !branch && isReg(at) && int(at) != f.regBase && !wrote[at] {
					add("unwritten", name, func(c []flat.Instr) {
						operands(&c[i], func(n string, r *uint32) {
							if n == name {
								*r = uint32(f.zero)
							}
						})
					})
				}
				if k := slices.Index(f.consts, int(at)); k >= 0 && len(f.consts) > 1 {
					add("stale", name, func(c []flat.Instr) {
						operands(&c[i], func(n string, r *uint32) {
							if n == name {
								*r = uint32(f.consts[(k+1)%len(f.consts)])
							}
						})
					})
				}
			})
			switch in.Op {
			case flat.Load:
				add("mask", "", func(c []flat.Instr) { c[i].Op = flat.LoadMask })
			case flat.Store:
				add("mask", "", func(c []flat.Instr) { c[i].Op = flat.StoreMask })
			case flat.Add:
				if int(in.A) == m.count {
					add("retire", "", func(c []flat.Instr) { skip(c, i) })
				}
			}
			if (in.Op == flat.And || in.Op == flat.Mov) && isOut(in.A) {
				add("store", "", func(c []flat.Instr) { skip(c, i) })
			}
			if branch && lookup {
				add("invert", "", func(c []flat.Instr) { c[i].Op = flat.Jeq + flat.Jne - in.Op })
				if t := outcomeBlock(in.A); t >= 0 {
					for u := (t + 1) % len(m.blocks); u != t; u = (u + 1) % len(m.blocks) {
						if other := m.blocks[u]; other.match == m.blocks[t].match && other.start != int(in.A) {
							add("retarget", "", func(c []flat.Instr) { c[i].A = uint32(other.start) })
							break
						}
					}
				}
				for _, d := range []int64{1, -1} {
					if k := slices.IndexFunc(f.consts, func(r int) bool { return init[r] == init[in.C]+d }); k >= 0 {
						add("key", fmt.Sprintf("%+d", d), func(c []flat.Instr) { c[i].C = uint32(f.consts[k]) })
					}
				}
			}
			if w, ok := written(in); ok {
				wrote[w] = true
			}
		}
	}
	return out
}

// TestBlockMutantsAreCaught plants every structural mutant of the lowering in
// every fixture's blocks and runs the comparison of
// TestBlocksEqualTheirSourcePath on the block it is in, counts included.
// Every kind must be caught somewhere, and the survivors must be the ones
// listed, each with the verdict of a proof: planted in the program of the
// first fixture it survives in, linked after that fixture's own program,
// the mutant is proved equivalent — for every packet, bank state and
// register garbage — or refuted with a frame that replays as a difference.
func TestBlockMutantsAreCaught(t *testing.T) {
	planted, caught := map[string]int{}, map[string]int{}
	type survivor struct {
		m      *ISAMachine
		mutant lowMutant
	}
	survived := map[string]survivor{}
	for _, fx := range blockFixtures(t) {
		m, err := NewISAMachine(fx.prog, fx.isa, fx.entries, HWConfig{})
		if err != nil {
			t.Fatal(err)
		}
		cases := blockCases(t, fx, m, 64)
		from, err := blockRunner(m, nil)
		if err != nil {
			t.Fatal(err)
		}
		added := make([][]int64, len(cases))
		for i := range cases {
			p := from(i, cases[i].block.start)
			for j := range cases[i].trials {
				_, n := runBlock(m, p, &cases[i], &cases[i].trials[j])
				added[i] = append(added[i], n)
			}
		}
		counts, err := countsOf(m, cases, added)
		if err != nil {
			t.Fatalf("%s: %v", fx.name, err)
		}
		listing := strings.Split(m.code.String(), "\n")
		for _, mu := range lowMutantsOf(m) {
			planted[mu.kind]++
			from, err := blockRunner(m, mu.edit)
			killed := err != nil // refused by flat's checker
			for i := range cases {
				if killed || i != mu.block {
					continue
				}
				p := from(i, cases[i].block.start)
				for j := range cases[i].trials {
					tr := &cases[i].trials[j]
					diff, n := runBlock(m, p, &cases[i], tr)
					killed = killed || diff != "" || counts.check(m, i, tr, n) != ""
				}
				p = from(i, cases[i].block.tests)
				for j := range cases[i].lookups {
					killed = killed || runLookup(m, p, &cases[i], &cases[i].lookups[j]) != ""
				}
			}
			if killed {
				caught[mu.kind]++
				continue
			}
			// A survivor is named by its fixture's benchmark, its kind and the
			// instruction it was planted in: the ISA mutants of a benchmark
			// share most of its blocks.
			family, _, _ := strings.Cut(fx.name, "/isa-mutant")
			kind, _, _ := strings.Cut(mu.id, "@")
			id := fmt.Sprintf("%s %s: %s", family, kind, strings.Join(strings.Fields(listing[mu.at])[1:], " "))
			if _, ok := survived[id]; !ok {
				survived[id] = survivor{m, mu}
			}
		}
	}
	for _, kind := range []string{"forward", "coalesce", "unwritten", "mask", "retire", "stale", "store", "invert", "retarget", "key"} {
		if caught[kind] == 0 {
			t.Errorf("no %s mutant was caught (%d planted)", kind, planted[kind])
		}
	}
	var survivors, want []string
	for id := range survived {
		survivors = append(survivors, id)
	}
	for id := range blockMutantSurvivors {
		want = append(want, id)
	}
	sort.Strings(survivors)
	sort.Strings(want)
	if !slices.Equal(survivors, want) {
		t.Errorf("surviving mutants:\n%s\nwant:\n%s", strings.Join(survivors, "\n"), strings.Join(want, "\n"))
	}
	for _, id := range survivors {
		sv := survived[id]
		a, err := mutantAgreement(sv.m, sv.mutant)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		got := equivalent
		if pr := a.prove(t); pr.cex != nil {
			got = refuted
			if diff := a.replay(pr.cex); diff == "" {
				t.Errorf("%s: the refuting frame replays as no difference", id)
			} else {
				t.Logf("%s: refuted: %s", id, diff)
			}
		}
		if w, ok := blockMutantSurvivors[id]; ok && got != w {
			t.Errorf("%s: %s, listed as %s", id, got, w)
		}
	}
	t.Logf("planted %v, caught %v", planted, caught)
}

// mutantAgreement is the theorem that the mutant changes nothing a packet
// leaves: the machine's program with the mutant planted, linked after the
// program itself on the packet's fields, ends with every field, the drop
// flag and the count where the program does, and both keep their banks
// equal. The count of the two sides, like their banks, starts equal.
func mutantAgreement(m *ISAMachine, mu lowMutant) (*agreement, error) {
	mutant, err := m.code.Mutate(func(c []flat.Instr) []flat.Instr { mu.edit(c); return c })
	if err != nil {
		return nil, err
	}
	bind := map[int]int{}
	for slot := range m.out {
		bind[m.in+slot] = m.in + slot
	}
	code, regs, err := flat.Link(m.code, mutant, bind)
	if err != nil {
		return nil, err
	}
	a := &agreement{code: code, inputs: map[int]int{}, trap: -1}
	for slot, w := range m.layout.fieldW {
		a.inputs[m.in+slot] = w.Bits()
		a.pairs = append(a.pairs, [2]int{m.out[slot], regs[m.out[slot]]})
	}
	a.pairs = append(a.pairs, [2]int{m.dropped, regs[m.dropped]})
	a.shared = append(a.shared, [3]int{m.count, regs[m.count], flat.SymBits})
	for i, bank := range m.banks {
		bits := m.layout.regW[m.layout.regIdx[m.isa.RegArrays[i]]].Bits()
		for c := 0; c < bank[1]; c++ {
			a.shared = append(a.shared, [3]int{bank[0] + c, regs[bank[0]+c], bits})
		}
	}
	return a, nil
}

// The verdicts on the surviving mutants.
const (
	equivalent = "proved equivalent"
	refuted    = "refuted"
)

// blockMutantSurvivors are the mutants no trial tells from the block they
// were planted in, by benchmark (a benchmark's ISA mutants included), kind
// and instruction, with the verdict of the proof.
var blockMutantSurvivors = map[string]string{
	"counter coalesce: add r13, #9, r11":                       equivalent,
	"counter forward: mov r3, #0":                              equivalent,
	"counter stale.b: mov r3, #0":                              equivalent,
	"counter stale.b: store tally[#5&3], r8":                   equivalent,
	"counter stale.c: and h.key', r13, #255":                   equivalent,
	"counter stale.c: and s0, h.count, #4611686018427387903":   equivalent,
	"counter stale.c: and s0, r2, #4611686018427387903":        equivalent,
	"counter stale.c: load r10, tally[#5&3]":                   equivalent,
	"counter stale.c: load r7, tally[#5&3]":                    equivalent,
	"l2l3 stale.b: add r28, #9, r26":                           equivalent,
	"l2l3 stale.b: mov r27, #5":                                equivalent,
	"l2l3 stale.c: add r17, ipv4.ttl, #-1":                     equivalent,
	"l2l3 stale.c: and meta.l2Hit', r28, #1":                   equivalent,
	"l2l3-targeted stale.b: add r28, #9, r26":                  equivalent,
	"l2l3-targeted stale.b: mov r27, #5":                       equivalent,
	"l2l3-targeted stale.c: add r17, ipv4.ttl, #-1":            equivalent,
	"l2l3-targeted stale.c: and meta.l2Hit', r28, #1":          equivalent,
	"wide-fanin coalesce: add r7, lane.a', #1":                 equivalent,
	"wide-fanin coalesce: add r7, lane.a', #7":                 equivalent,
	"wide-fanin retire: add count, count, #3":                  equivalent,
	"wide-fanin stale.b: mov dropped, #1":                      equivalent,
	"wide-fanin stale.c: add count, count, #3":                 equivalent,
	"wide-fanin stale.c: and lane.a', r7, #65535":              equivalent,
	"wide-fanin stale.c: and lane.h', r69, #255":               equivalent,
	"wide-fanin stale.c: and s0, r2, #4611686018427387903":     equivalent,
	"wide-fanin store: mov dropped, #1":                        equivalent,
	"wide-fanin unwritten.b: and s0, r2, #4611686018427387903": equivalent,
	"wide-fanin unwritten: jeq r37, #0 -> 107":                 equivalent,
}
