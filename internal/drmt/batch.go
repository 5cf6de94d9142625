// batch.go is the dRMT side of the PHV-batch execution layer: packets live
// in column-major slot planes (planes[slot][packet], slot order given by
// SlotLayout) and both slot-compiled engines execute a whole vector per
// call. Unlike the feedforward RMT pipeline, dRMT register banks are shared
// across tables — packet k's register read in a later table must observe
// packet k-1's write from an earlier one — so batch execution here stays
// packet-major over the planes: the wins are generation locality
// (TrafficGen.FillBatch), whole-plane copies and plane-major comparison in
// the differential fuzzer, not table-major reordering, which would be
// unsound for stateful programs.
package drmt

import (
	"fmt"

	"druzhba/internal/p4"
)

// FillBatch writes the next n packets' field values into column-major
// planes (planes[i][k] is field slot i of packet k) and returns the first
// packet's ID; IDs are sequential, so packet k has ID FillBatch()+k. Values
// are drawn packet-major — packet k's fields in slot order before packet
// k+1's — so FillBatch consumes the random stream and the ID counter
// exactly like n successive Fill calls. Every plane must have at least n
// entries and len(planes) must be NumFields.
//
//dvet:hotpath allocs=0
func (g *TrafficGen) FillBatch(planes [][]int64, n int) int {
	g.ensureLimits()
	first := g.next
	g.next += n
	for k := 0; k < n; k++ {
		for i := range g.limits {
			planes[i][k] = g.draw(i)
		}
	}
	return first
}

// SetBatch selects the differential fuzzer's execution strategy: size >= 1
// streams packets through both machines a batch at a time on column-major
// planes, 0 restores the packet-at-a-time loop. Reports are byte-identical
// in every mode and for every batch size. No product path calls this — dRMT
// batching is slower than the slot loop, so campaigns always run the latter;
// it is reachable only from the frozen benchmark/probes.go and the
// differential tests, and goes with the first.
func (f *DiffFuzzer) SetBatch(size int) {
	if size < 0 {
		size = 0
	}
	f.batchSize = size
}

// ensureBatch (re)allocates the batched mode's planes and flag vectors the
// first time a batched run needs them (or when the batch size grew).
func (f *DiffFuzzer) ensureBatch() {
	size := f.batchSize
	if f.inP != nil && len(f.inP[0]) >= size {
		return
	}
	nf := f.layout.NumFields()
	backing := make([]int64, 3*nf*size)
	plane := func(i int) []int64 { return backing[i*size : (i+1)*size : (i+1)*size] }
	f.inP = make([][]int64, nf)
	f.gotP = make([][]int64, nf)
	f.wantP = make([][]int64, nf)
	for i := 0; i < nf; i++ {
		f.inP[i] = plane(i)
		f.gotP[i] = plane(nf + i)
		f.wantP[i] = plane(2*nf + i)
	}
	flags := make([]bool, 3*size)
	f.gotDrops = flags[0*size : 1*size : 1*size]
	f.wantDrops = flags[1*size : 2*size : 2*size]
	f.dirty = flags[2*size : 3*size : 3*size]
}

// fuzzBatched is Fuzz on the plane engines: traffic is generated straight
// into the input planes, both machines' working copies are whole-plane
// copies, and divergence detection runs plane-major (one pass per field
// over the batch, plus the drop flags), materializing renderings only for
// diverging packets. Packets execute in index order on both machines, so
// the DiffReport — Checked, Instructions, every Diff and any Err — is
// byte-identical to the streaming loop's.
func (f *DiffFuzzer) fuzzBatched(gen *TrafficGen, n int) (*DiffReport, error) {
	f.ensureBatch()
	f.Reset()
	rep := &DiffReport{}
	nf := f.layout.NumFields()
	for at := 0; at < n; at += f.batchSize {
		m := f.batchSize
		if n-at < m {
			m = n - at
		}
		first := gen.FillBatch(f.inP, m)
		for i := 0; i < nf; i++ {
			copy(f.gotP[i][:m], f.inP[i][:m])
			copy(f.wantP[i][:m], f.inP[i][:m])
		}
		executed, bad, err := f.isa.ExecBatch(f.gotP, f.gotDrops, m)
		rep.Instructions += executed
		if err != nil {
			// The streaming loop compares the packets before the failing
			// one, then records the failure: replicate its accounting by
			// running the specification over — and diffing — that prefix.
			f.tab.ProcessBatch(f.wantP, f.wantDrops, bad)
			rep.Checked += bad
			f.diffBatch(rep, at, first, bad)
			rep.Err = fmt.Errorf("drmt isa: packet %d: %w", first+bad, err)
			return rep, nil
		}
		f.tab.ProcessBatch(f.wantP, f.wantDrops, m)
		rep.Checked += m
		f.diffBatch(rep, at, first, m)
	}
	return rep, nil
}

// diffBatch scans the first m packet columns plane-major, marking diverging
// packets, and appends their Diff records in index order.
func (f *DiffFuzzer) diffBatch(rep *DiffReport, at, first, m int) {
	any := false
	for k := 0; k < m; k++ {
		d := f.gotDrops[k] != f.wantDrops[k]
		f.dirty[k] = d
		any = any || d
	}
	for i := range f.gotP {
		got, want := f.gotP[i], f.wantP[i]
		for k := 0; k < m; k++ {
			if got[k] != want[k] {
				f.dirty[k] = true
				any = true
			}
		}
	}
	if !any {
		return
	}
	for k := 0; k < m; k++ {
		if !f.dirty[k] {
			continue
		}
		gatherColInt(f.inP, k, f.in)
		gatherColInt(f.gotP, k, f.got)
		gatherColInt(f.wantP, k, f.want)
		rep.Diffs = append(rep.Diffs, Diff{
			Index: at + k,
			ID:    first + k,
			Input: f.layout.FormatSlots(f.in, false),
			Got:   f.layout.FormatSlots(f.got, f.gotDrops[k]),
			Want:  f.layout.FormatSlots(f.want, f.wantDrops[k]),
		})
	}
}

// gatherColInt copies packet column k of the planes into the row dst.
func gatherColInt(planes [][]int64, k int, dst []int64) {
	for i := range planes {
		dst[i] = planes[i][k]
	}
}

// evalCol is compiledOperand.eval against packet column k of slot planes.
func (o compiledOperand) evalCol(planes [][]int64, k int) int64 {
	if o.slot >= 0 {
		return planes[o.slot][k]
	}
	return o.lit
}

// ProcessBatch executes the program on n packets held in column-major slot
// planes, recording each packet's drop flag in drops[k]. Packets execute in
// index order against the shared register banks, so results, register state
// and crossbar counts are byte-identical to n successive ProcessSlots
// calls.
//
//dvet:hotpath allocs=0
func (m *Machine) ProcessBatch(planes [][]int64, drops []bool, n int) {
	for k := 0; k < n; k++ {
		dropped := false
		for ti := range m.ctables {
			if dropped {
				break
			}
			ct := &m.ctables[ti]
			m.matchCount[ct.slot]++
			act := ct.def
			for ei := range ct.entries {
				e := &ct.entries[ei]
				if e.matches(planes[e.field][k]) {
					act = &e.act
					break
				}
			}
			if act == nil {
				continue
			}
			if m.applyCol(act, planes, k) {
				dropped = true
			}
		}
		drops[k] = dropped
	}
}

// applyCol is applySlots against packet column k of slot planes.
//
//dvet:hotpath allocs=0
func (m *Machine) applyCol(act *compiledAction, planes [][]int64, k int) (dropped bool) {
	for i := range act.prims {
		p := &act.prims[i]
		switch p.op {
		case p4.PrimModifyField:
			planes[p.field][k] = p.fw.Trunc(p.val.evalCol(planes, k))
		case p4.PrimAddToField:
			planes[p.field][k] = p.fw.Add(planes[p.field][k], p.fw.Trunc(p.val.evalCol(planes, k)))
		case p4.PrimRegWrite:
			cells := m.regBanks[p.reg]
			cells[wrapIndex(p.idx.evalCol(planes, k), len(cells))] = p.rw.Trunc(p.val.evalCol(planes, k))
		case p4.PrimRegAdd:
			cells := m.regBanks[p.reg]
			ci := wrapIndex(p.idx.evalCol(planes, k), len(cells))
			cells[ci] = p.rw.Add(cells[ci], p.rw.Trunc(p.val.evalCol(planes, k)))
		case p4.PrimRegRead:
			cells := m.regBanks[p.reg]
			planes[p.field][k] = p.fw.Trunc(cells[wrapIndex(p.idx.evalCol(planes, k), len(cells))])
		case p4.PrimDrop:
			dropped = true
		}
	}
	return
}

// ExecBatch runs the ISA program on n packets held in column-major slot
// planes, recording drop flags in drops[k] and accumulating the executed
// instruction count across packets. Packets execute in index order against
// the shared register banks, so effects are byte-identical to n successive
// ExecSlots calls. On an execution error it stops, returning the failing
// packet's index k and the instruction count up to and including the
// partial packet — exactly the accounting a streaming loop over ExecSlots
// produces.
//
//dvet:hotpath allocs=0
func (m *ISAMachine) ExecBatch(planes [][]int64, drops []bool, n int) (executed int64, bad int, err error) {
	regs := m.scratch
	instrs := m.isa.Instrs
	for k := 0; k < n; k++ {
		for i := range regs {
			regs[i] = 0
		}
		dropped := false
		pc := 0
		for pc < len(instrs) {
			in := &instrs[pc]
			executed++
			next := pc + 1
			switch in.Op {
			case OpLoadImm:
				regs[in.Dst] = in.Imm
			case OpLoadField:
				s := m.fieldSlot[in.Sym]
				if s < 0 {
					return executed, k, fmt.Errorf("packet lacks field %q", m.isa.Fields[in.Sym]) //dvet:alloc-ok malformed-packet error path
				}
				regs[in.Dst] = planes[s][k]
			case OpStoreField:
				s := m.fieldSlot[in.Sym]
				if s < 0 {
					return executed, k, fmt.Errorf("packet lacks field %q", m.isa.Fields[in.Sym]) //dvet:alloc-ok malformed-packet error path
				}
				planes[s][k] = m.fieldW[in.Sym].Trunc(regs[in.A])
			case OpALU:
				regs[in.Dst] = aluEvalW(in.AOp, m.aluW[pc], regs[in.A], regs[in.B])
			case OpLoadReg:
				cells := m.regBanks[in.Sym]
				regs[in.Dst] = cells[wrapIndex(regs[in.A], len(cells))]
			case OpStoreReg:
				cells := m.regBanks[in.Sym]
				cells[wrapIndex(regs[in.A], len(cells))] = m.regW[in.Sym].Trunc(regs[in.B])
			case OpMatch:
				mt := &m.matchTables[in.Sym]
				if mt.err != nil {
					return executed, k, mt.err
				}
				var sel int64
				var args []int64
				matched := false
				actName := ""
				for ei := range mt.entries {
					e := &mt.entries[ei]
					if e.matches(planes[e.field][k]) {
						matched, sel, args, actName = true, e.sel, e.args, e.actName
						break
					}
				}
				if !matched && mt.hasDef {
					matched, sel, args, actName = true, mt.defSel, mt.defArgs, mt.defName
				}
				if matched && sel == 0 {
					return executed, k, fmt.Errorf("table %q selected action %q outside its dispatch list", mt.name, actName) //dvet:alloc-ok config-error path
				}
				regs[in.Dst] = sel
				for i := 0; i < m.isa.NumParams; i++ {
					regs[RegParam0+i] = 0
				}
				for i, v := range args {
					regs[RegParam0+i] = v
				}
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
				dropped = true
				regs[RegDrop] = 1
			case OpHalt:
				// ExecSlots returns here; completing the packet and falling
				// through to the next is equivalent (the register file is
				// zeroed per packet).
				next = len(instrs)
			default:
				return executed, k, fmt.Errorf("unknown opcode %d at pc %d", in.Op, pc) //dvet:alloc-ok corrupt-program error path
			}
			regs[RegZero] = 0 // the zero register is immutable
			pc = next
		}
		drops[k] = dropped
	}
	return executed, 0, nil
}
