package flat_test

import (
	"math/rand"
	"strconv"
	"testing"

	"druzhba/internal/aludsl"
	"druzhba/internal/core"
	"druzhba/internal/flat"
	"druzhba/internal/machinecode"
	"druzhba/internal/phv"
)

// TestLoweringFolds: an ALU computing on constants, lowered as written
// (core.Spec.Lower, the program every prechecked level builds) and then
// optimized observing its output, leaves no instruction and its output in
// the constant register holding what the ALU interpreter (core.Build at
// Unoptimized) returns, at widths 8 and 32: every operator evaluated as the
// interpreter evaluates it, division and modulo by 0 included, a && or || on
// a constant left side decided or reduced to the truth of its right side, -
// and ! on a constant, an if on a constant reduced to the branch it takes.
// The untaken branch adds the packet fields, which no folding could remove.
// A lowering that folded as it lowered made these programs a mov of that
// constant and a jmp, or nothing; Optimize must do as well.
func TestLoweringFolds(t *testing.T) {
	num := func(v int64) aludsl.Expr { return &aludsl.Num{Value: v} }
	bin := func(op aludsl.BinOp, x, y aludsl.Expr) aludsl.Expr { return &aludsl.Binary{Op: op, X: x, Y: y} }
	ret := func(e aludsl.Expr) []aludsl.Stmt { return []aludsl.Stmt{&aludsl.Return{Value: e}} }
	sum := bin(aludsl.OpAdd, &aludsl.Ident{Name: "a", Class: aludsl.VarField, Index: 0}, &aludsl.Ident{Name: "b", Class: aludsl.VarField, Index: 1})
	var bodies [][]aludsl.Stmt
	for op := aludsl.OpAdd; op.Valid(); op++ {
		for _, xy := range [][2]int64{{200, 100}, {100, 200}, {7, 0}, {0, 7}, {-3, 5}} {
			bodies = append(bodies, ret(bin(op, num(xy[0]), num(xy[1]))))
		}
	}
	bodies = append(bodies, ret(bin(aludsl.OpAnd, num(0), sum)), ret(bin(aludsl.OpOr, num(3), sum)))
	for _, x := range []int64{0, 1, 5, -1} {
		bodies = append(bodies,
			ret(&aludsl.Unary{Op: aludsl.OpNeg, X: num(x)}),
			ret(&aludsl.Unary{Op: aludsl.OpNot, X: num(x)}))
	}
	for _, cond := range []aludsl.Expr{num(5), num(-1), bin(aludsl.OpGt, num(1), num(0)), bin(aludsl.OpAnd, num(1), num(7))} {
		bodies = append(bodies,
			[]aludsl.Stmt{&aludsl.If{Cond: cond, Then: ret(num(9)), Else: ret(sum)}},
			[]aludsl.Stmt{&aludsl.If{Cond: cond, Then: ret(num(4))}, &aludsl.Return{Value: sum}})
	}
	for _, cond := range []aludsl.Expr{num(0), bin(aludsl.OpGt, num(0), num(1)), bin(aludsl.OpOr, num(0), num(0))} {
		bodies = append(bodies,
			[]aludsl.Stmt{&aludsl.If{Cond: cond, Then: ret(sum), Else: ret(num(9))}},
			[]aludsl.Stmt{&aludsl.If{Cond: cond, Then: ret(sum)}, &aludsl.Return{Value: num(4)}})
	}
	for _, width := range []int{8, 32} {
		rng := rand.New(rand.NewSource(int64(width)))
		for _, body := range bodies {
			alu := &aludsl.Program{Name: "folds", Kind: aludsl.Stateless, PacketFields: []string{"a", "b"}, Body: body}
			s := core.Spec{Depth: 1, Width: 1, PHVLen: 2, Bits: phv.MustWidth(width), StatelessALU: alu}
			req, err := s.RequiredPairs()
			if err != nil {
				t.Fatal(err)
			}
			code := machinecode.New()
			for _, h := range req {
				code.Set(h.Name, 0)
			}
			code.Set(machinecode.OperandMuxName(0, false, 0, 1), 1)
			code.Set(machinecode.OutputMuxName(0, 0), 1)
			read, err := s.Read(code)
			if err != nil {
				t.Fatal(err)
			}
			f, err := s.Lower(read, read.Muxes.Live([]bool{true, true}, nil))
			if err != nil {
				t.Fatal(err)
			}
			q, end, err := flat.Optimize(f.Program, f.Out())
			if err != nil {
				t.Fatal(err)
			}
			flat.ProveOptimized(t, f.Program, q, end, f.Out())
			out := end[f.Out()[0]]
			frame := q.NewFrame()
			q.Run(frame)
			if q.Len() != 0 || q.RegName(out) != "#"+strconv.FormatInt(frame[out], 10) {
				t.Errorf("width %d, %s: lowered to\n%soptimized to\n%sthe output in %s", width, alu.Format(), f, q, q.RegName(out))
				continue
			}
			ref, err := core.Build(s, code, core.Unoptimized)
			if err != nil {
				t.Fatal(err)
			}
			for range 4 {
				in := []phv.Value{rng.Int63n(1 << width), rng.Int63n(1 << width)}
				got, err := ref.Process(phv.FromValues(in))
				if err != nil {
					t.Fatal(err)
				}
				if got.Get(0) != frame[out] {
					t.Errorf("width %d, %s on %v: folded to %d, the interpreter returns %d", width, alu.Format(), in, frame[out], got.Get(0))
				}
			}
		}
	}
}
