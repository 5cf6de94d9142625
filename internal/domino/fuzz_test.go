package domino

import (
	"fmt"
	"slices"
	"testing"

	"druzhba/internal/phv"
)

// FuzzParse: the Domino parser must never panic, and accepted programs must
// render to source that reparses to the same shape.
func FuzzParse(f *testing.F) {
	f.Add(samplingSrc)
	f.Add("state x = -3;\ntransaction { int t = pkt.a * 2; x = x + t; pkt.a = x; }")
	f.Add("transaction { if (pkt.a < 3 && pkt.b != 0) { pkt.a = pkt.a / pkt.b; } }")
	f.Add("transaction")
	f.Add("state transaction = 0;")
	f.Fuzz(func(t *testing.T, src string) {
		p, err := Parse(src)
		if err != nil {
			return
		}
		rendered := p.String()
		q, err := Parse(rendered)
		if err != nil {
			t.Fatalf("accepted program fails to reparse: %v\n%s", err, rendered)
		}
		if len(q.States) != len(p.States) || len(q.Fields()) != len(p.Fields()) {
			t.Fatal("program shape changed across render round trip")
		}
	})
}

// FuzzStep is the differential property of the evaluator: on any accepted
// program with every field bound to a container and any field values, the
// bound transaction (PHVSpec.ProcessStream) and the reference map interpreter
// agree on every container, every state variable and the error text, packet
// after packet — including the packets after one that failed. (The name is
// the one the target had when a second runner stepped a map of fields.)
func FuzzStep(f *testing.F) {
	f.Add(samplingSrc, int64(5), int64(10))
	// A local assigned on one branch only: reading it is an error on the
	// other path, and only there.
	f.Add("transaction { if (pkt.a == 1) { int t = 5; } pkt.b = t; }", int64(1), int64(0))
	f.Add("transaction { if (pkt.a == 1) { int t = 5; } pkt.b = t; }", int64(0), int64(0))
	// A local declared with a state's name: the name keeps meaning the state.
	f.Add("state x = 7;\ntransaction { int x = pkt.a; pkt.b = x; x = x + 1; }", int64(3), int64(4))
	// Division and remainder by zero.
	f.Add("state s = 1;\ntransaction { s = s + pkt.a / pkt.b; pkt.a = pkt.a % pkt.b; }", int64(9), int64(0))
	// Short-circuits that skip an operand which would fail.
	f.Add("transaction { if (pkt.a == 0) { int t = 1; } if (pkt.a != 0 || t == 1) { pkt.b = 1; } if (pkt.a == 0 && t == 1) { pkt.b = 2; } }", int64(3), int64(0))
	f.Add("transaction { if (pkt.a == 0) { int t = 1; } pkt.b = (pkt.a == 0 || t) + (pkt.a != 0 && t); }", int64(0), int64(0))
	// An error in the middle of a transaction keeps the writes before it.
	f.Add("state s = 0;\ntransaction { s = s + 1; pkt.a = s; if (s == 2) { int t = 0; } pkt.b = t + -s; }", int64(1), int64(2))
	f.Fuzz(func(t *testing.T, src string, a, b int64) {
		p, err := Parse(src)
		if err != nil {
			return
		}
		w := phv.Default32
		names := p.Fields()
		binding := FieldMap{}
		vals, refVals := make([]phv.Value, len(names)), make([]phv.Value, len(names))
		for i, name := range names {
			v := w.Trunc(a)
			if i%2 == 1 {
				v = w.Trunc(b)
			}
			binding[name] = i
			vals[i], refVals[i] = v, v
		}
		bound, err := NewPHVSpec(p, binding, w)
		if err != nil {
			t.Fatal(err)
		}
		ref := newRefMachine(p, w)
		for step := 0; step < 3; step++ {
			gotErr, wantErr := bound.ProcessStream(vals), ref.ProcessStream(binding, refVals)
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Fatalf("step %d: ProcessStream error %v, reference %v", step, gotErr, wantErr)
			}
			if !slices.Equal(vals, refVals) {
				t.Fatalf("step %d: ProcessStream containers %v, reference %v", step, vals, refVals)
			}
			for _, name := range p.StateNames() {
				g, _ := bound.State(name)
				r, _ := ref.State(name)
				if g != r {
					t.Fatalf("step %d: state %s = %d, reference %d", step, name, g, r)
				}
			}
			for _, v := range vals {
				if gotErr == nil && (v < 0 || v > w.Mask()) {
					t.Fatalf("step %d: container value %d outside the datapath range", step, v)
				}
			}
		}
	})
}
