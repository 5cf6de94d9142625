package flat

import (
	"fmt"
	"slices"

	"druzhba/internal/bv"
	"druzhba/internal/sat"
)

// SymBits is the width of a register in a symbolic frame that keeps all of
// an int64's bits.
const SymBits = 64

// SymFrame returns a frame of bits-wide vectors for Sym: every constant
// register holds its value, cut to bits, and every other register the vector
// value returns for it. bits is SymBits, for Run's int64 arithmetic on any
// program, or a width w up to the program's own. The program's width enters
// Sym only as the mask Run wraps arithmetic with, which is every bit at w, so
// a frame of w bits computes what the program's lowering at w runs wherever
// the lowering's width enters only through literals truncated to it — every
// program packages core and domino build, their constants in [0, 2^width).
func (p *Program) SymFrame(b *bv.Builder, bits int, value func(r int) bv.Vec) []bv.Vec {
	if bits != SymBits && (bits < 1 || bits > p.w.Bits()) {
		panic(fmt.Sprintf("flat: a %d-bit symbolic frame for a %d-bit program", bits, p.w.Bits()))
	}
	frame := make([]bv.Vec, len(p.init))
	for r := range frame {
		if p.fixed[r] {
			frame[r] = b.Const(bits, p.init[r])
		} else {
			frame[r] = value(r)
		}
	}
	return frame
}

// symPath is one way into an instruction: the decisions taken on the way —
// a branch condition or a Trap's, or its negation —
// the condition they make together, and the frame the path arrives with.
// A path owns its frame, so a merge writes the joined frame over the frame of
// one of the paths it joins, which it drops. Decision lists are shared: they
// are copied, never written, once a path is queued.
type symPath struct {
	dec  []sat.Lit
	cond sat.Lit
	regs []bv.Vec
}

// Sym evaluates the program once, as Run does, over a symbolic frame from
// SymFrame, and returns the frame the run leaves and the condition under
// which a Trap stopped it. Jumps only go forward, so one pass in program
// order meets every path into an instruction before the instruction. A
// compare-and-branch and a Trap split the path on a decision, unless it
// folds to a constant. On the path where a Jeq or Jne found a register equal
// to the constant-0 register, that register is the constant 0. Where paths
// join, their frames merge by ITEs on the decision at which they split, so
// two programs that decide the same things and compute the same values end
// in the same vectors however their paths join. A bank access is an ITE
// over the cells, indexed as Run wraps the index.
//
// On a SymBits frame every operation is Run's int64 arithmetic. On a frame
// of w bits, at most the program's width, every register of Run's stays in
// [0, 2^w), so the arithmetic is unsigned and wraps at w bits with nothing to
// mask, and only a Trap code that does not fit is cut to its low bits. Either
// way, on a frame of constants the result folds to exactly the frame Run
// leaves, at w bits the frame of the program lowered at w (see SymFrame).
func (p *Program) Sym(b *bv.Builder, frame []bv.Vec) (out []bv.Vec, trapped sat.Lit) {
	s := &symRun{b: b, in: make([][]symPath, len(p.code)+1), bits: SymBits}
	if len(frame) > 0 {
		s.bits = len(frame[0])
	}
	mask := b.Const(s.bits, p.w.Mask())
	s.cur = &symPath{cond: b.True(), regs: append([]bv.Vec(nil), frame...)}
	var exits []symPath // the paths a Trap ends
	trapped = b.False()
	for pc, in := range p.code {
		if len(s.in[pc]) > 0 {
			if s.cur != nil {
				s.in[pc] = append(s.in[pc], *s.cur)
			}
			m := s.merge(s.in[pc], 0)
			s.cur, s.in[pc] = &m, nil
		}
		if s.cur == nil {
			continue
		}
		r := s.cur.regs
		if in.Op.branch() {
			path := s.split(s.holds(in.Op, r[in.B], r[in.C]))
			var equal *symPath // the path on which B and C are equal
			switch rels[in.Op] {
			case relEQ:
				equal = path
			case relLT | relGT:
				equal = s.cur
			}
			if equal != nil && p.fixed[in.C] && p.init[in.C] == 0 {
				equal.regs[in.B] = b.Const(s.bits, 0)
			}
			if path != nil {
				s.in[in.A] = append(s.in[in.A], *path)
			}
			continue
		}
		switch in.Op {
		case Add:
			r[in.A] = s.and(b.Add(r[in.B], r[in.C]), mask)
		case Sub:
			r[in.A] = s.and(b.Sub(r[in.B], r[in.C]), mask)
		case Mul:
			r[in.A] = s.and(b.Mul(r[in.B], r[in.C]), mask)
		case Div:
			q, _ := s.divMod(r[in.B], r[in.C])
			r[in.A] = s.and(q, mask)
		case Mod:
			_, m := s.divMod(r[in.B], r[in.C])
			r[in.A] = s.and(m, mask)
		case Eq, Ne, Lt, Gt, Le, Ge:
			r[in.A] = b.FromBool(s.holds(in.Op, r[in.B], r[in.C]), s.bits)
		case Mov:
			r[in.A] = r[in.B]
		case Jmp:
			s.in[in.A] = append(s.in[in.A], *s.cur)
			s.cur = nil
		case Trap:
			if exit := s.split(b.IsZero(r[in.B])); exit != nil {
				exit.regs[in.A] = b.Const(s.bits, int64(in.C))
				exits = append(exits, *exit)
				trapped = b.Or(trapped, exit.cond)
			}
		case And:
			r[in.A] = s.and(r[in.B], r[in.C])
		case Load, LoadMask:
			bk := p.banks[in.B]
			idx, v := s.index(in.Op == LoadMask, r[in.C], bk.cells), r[bk.first+bk.cells-1]
			for c := bk.cells - 2; c >= 0; c-- {
				v = s.ite(b.Eq(idx, b.Const(SymBits, int64(c))), r[bk.first+c], v)
			}
			r[in.A] = v
		case Store, StoreMask:
			bk := p.banks[in.A]
			idx, v := s.index(in.Op == StoreMask, r[in.B], bk.cells), s.and(r[in.C], b.Const(s.bits, bk.mask))
			for c := 0; c < bk.cells; c++ {
				r[bk.first+c] = s.ite(b.Eq(idx, b.Const(SymBits, int64(c))), v, r[bk.first+c])
			}
		}
	}
	end := append(s.in[len(p.code)], exits...)
	if s.cur != nil {
		end = append(end, *s.cur)
	}
	return s.merge(end, 0).regs, trapped
}

// symRun is the state of one Sym pass: the path under way (nil where none
// reaches) and the paths queued into each instruction.
type symRun struct {
	b    *bv.Builder
	cur  *symPath
	in   [][]symPath
	bits int // the frame's width: SymBits, or the program's
}

// split takes decision d off the path under way: it returns the path on
// which d holds, with a frame of its own, and goes on where d does not.
// Either side is nil when d folds to a constant that rules it out.
func (s *symRun) split(d sat.Lit) (taken *symPath) {
	b, cur := s.b, s.cur
	switch d {
	case b.True():
		s.cur = nil
		return cur
	case b.False():
		return nil
	}
	taken = &symPath{dec: append(slices.Clip(cur.dec), d), cond: b.And(cur.cond, d), regs: slices.Clone(cur.regs)}
	cur.dec, cur.cond = append(slices.Clip(cur.dec), d.Not()), b.And(cur.cond, d.Not())
	return taken
}

// merge joins paths that exclude each other and agree on their first k
// decisions into one. At the first decision on which they differ they split
// on one literal, taken on some and refused on the others: each side is
// merged on its own and the frame is the ITE on that literal; when the two
// sides go on to decide the same, the join keeps those decisions and drops
// the split. Paths that differ otherwise, or go on to decide differently,
// join under the disjunction of what is left of their conditions, the frame
// an ITE chain over those.
func (s *symRun) merge(paths []symPath, k int) symPath {
	if len(paths) == 1 {
		return paths[0]
	}
	first := paths[0].dec
	for ; k < len(first); k++ {
		same := true
		for _, p := range paths {
			same = same && k < len(p.dec) && p.dec[k] == first[k]
		}
		if !same {
			break
		}
	}
	var on, off []symPath
	for _, p := range paths {
		if k >= len(first) || k >= len(p.dec) || p.dec[k].Var() != first[k].Var() {
			on = nil
			break
		}
		if p.dec[k].Sign() {
			off = append(off, p)
		} else {
			on = append(on, p)
		}
	}
	if len(on) > 0 && len(off) > 0 {
		x, y := s.merge(on, k+1), s.merge(off, k+1)
		regs := x.regs
		for r := range regs {
			regs[r] = s.ite(x.dec[k], regs[r], y.regs[r])
		}
		if slices.Equal(x.dec[k+1:], y.dec[k+1:]) {
			dec := append(slices.Clip(x.dec[:k]), x.dec[k+1:]...)
			return symPath{dec: dec, cond: s.all(dec), regs: regs}
		}
		return s.join(paths[0].dec[:k], []symPath{x, y}, regs)
	}
	return s.join(paths[0].dec[:k], paths, nil)
}

// join joins paths that share the decisions in prefix and go on to decide
// differently, under the disjunction of the rest of their conditions: one
// decision more. regs is their merged frame, or nil for the ITE chain over
// the rest of each path's condition.
func (s *symRun) join(prefix []sat.Lit, paths []symPath, regs []bv.Vec) symPath {
	b := s.b
	either, rest := b.False(), make([]sat.Lit, len(paths))
	for i, p := range paths {
		rest[i] = s.all(p.dec[len(prefix):])
		either = b.Or(either, rest[i])
	}
	if regs == nil {
		regs = paths[len(paths)-1].regs
		for i := len(paths) - 2; i >= 0; i-- {
			for r, v := range paths[i].regs {
				regs[r] = s.ite(rest[i], v, regs[r])
			}
		}
	}
	dec := slices.Clip(prefix)
	if either != b.True() {
		dec = append(dec, either)
	}
	return symPath{dec: dec, cond: s.all(dec), regs: regs}
}

// all is the conjunction of the decisions.
func (s *symRun) all(dec []sat.Lit) sat.Lit {
	c := s.b.True()
	for _, d := range dec {
		c = s.b.And(c, d)
	}
	return c
}

// ite is c ? x : y, which is x itself when the two are one vector.
func (s *symRun) ite(c sat.Lit, x, y bv.Vec) bv.Vec {
	if same(x, y) {
		return x
	}
	return s.b.Ite(c, x, y)
}

// same reports whether two vectors are bit for bit the same literals.
func same(x, y bv.Vec) bool {
	if len(x) > 0 && len(y) > 0 && &x[0] == &y[0] {
		return true
	}
	for i := range x {
		if x[i] != y[i] {
			return false
		}
	}
	return true
}

// and is x & y.
func (s *symRun) and(x, y bv.Vec) bv.Vec {
	out := make(bv.Vec, len(x))
	for i := range x {
		out[i] = s.b.And(x[i], y[i])
	}
	return out
}

// holds is the decision a compare or a compare-and-branch makes on x and y.
func (s *symRun) holds(op Op, x, y bv.Vec) sat.Lit {
	switch rels[op] {
	case relEQ:
		return s.b.Eq(x, y)
	case relLT | relGT:
		return s.b.Ne(x, y)
	case relLT:
		return s.lt(x, y)
	case relGT:
		return s.lt(y, x)
	case relLT | relEQ:
		return s.lt(y, x).Not()
	}
	return s.lt(x, y).Not()
}

// lt is x < y on int64s: unsigned < with the sign bits flipped. On a frame of
// the program's width no register is negative, so it is unsigned <.
func (s *symRun) lt(x, y bv.Vec) sat.Lit {
	if s.bits != SymBits {
		return s.b.Ult(x, y)
	}
	flip := func(v bv.Vec) bv.Vec {
		f := append(bv.Vec(nil), v...)
		f[len(f)-1] = f[len(f)-1].Not()
		return f
	}
	return s.b.Ult(flip(x), flip(y))
}

// divMod is Go's int64 x / y and x % y, both 0 when y is 0: the unsigned
// division of the magnitudes, the quotient negated when the signs differ
// and the remainder when x is negative. (The smallest int64 is its own
// magnitude and its own negation, so it divides as Go divides it.) On a
// frame of the program's width it is the unsigned division.
func (s *symRun) divMod(x, y bv.Vec) (q, m bv.Vec) {
	b := s.b
	if s.bits != SymBits {
		return b.DivMod(x, y)
	}
	xs, ys := x[len(x)-1], y[len(y)-1]
	q, m = b.DivMod(b.Ite(xs, b.Neg(x), x), b.Ite(ys, b.Neg(y), y))
	return b.Ite(b.Xor(xs, ys), b.Neg(q), q), b.Ite(xs, b.Neg(m), m)
}

// index wraps the index of an access to a bank of n cells as Run does:
// idx & (n-1) for a mask-wrapped access, and otherwise idx % n made
// non-negative. It is a SymBits vector, an index from a narrower frame
// zero-extended, so that it can name every cell.
func (s *symRun) index(masked bool, idx bv.Vec, n int) bv.Vec {
	b := s.b
	idx = append(slices.Clip(idx), b.Const(SymBits-len(idx), 0)...)
	if masked {
		return s.and(idx, b.Const(SymBits, int64(n-1)))
	}
	_, m := s.divMod(idx, b.Const(SymBits, int64(n)))
	return b.Ite(m[len(m)-1], b.Add(m, b.Const(SymBits, int64(n))), m)
}
