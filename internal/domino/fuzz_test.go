package domino

import (
	"fmt"
	"maps"
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
// program and any field values, Machine (through Step's map view and, bound
// to containers, through ProcessStream) and the reference map interpreter
// agree on every field, every state variable and the error text, packet after
// packet — including the packets after one that failed.
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
		fields, refFields := map[string]int64{}, map[string]int64{}
		for i, name := range names {
			v := w.Trunc(a)
			if i%2 == 1 {
				v = w.Trunc(b)
			}
			binding[name] = i
			vals[i], refVals[i] = v, v
			if i%3 != 2 { // leave some fields out of the packet: reading them fails
				fields[name], refFields[name] = v, v
			}
		}
		m, ref := NewMachine(p, w), newRefMachine(p, w)
		bound, err := NewPHVSpec(p, binding, w)
		if err != nil {
			t.Fatal(err)
		}
		boundRef := newRefMachine(p, w)
		sameState := func(step int, what string, got func(string) (int64, bool), want *refMachine) {
			for _, name := range p.StateNames() {
				g, _ := got(name)
				r, _ := want.State(name)
				if g != r {
					t.Fatalf("step %d: %s: state %s = %d, reference %d", step, what, name, g, r)
				}
			}
		}
		for step := 0; step < 3; step++ {
			gotErr, wantErr := m.Step(fields), ref.Step(refFields)
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Fatalf("step %d: Step error %v, reference %v", step, gotErr, wantErr)
			}
			if !maps.Equal(fields, refFields) {
				t.Fatalf("step %d: Step fields %v, reference %v", step, fields, refFields)
			}
			sameState(step, "Step", m.State, ref)

			gotErr, wantErr = bound.ProcessStream(vals), boundRef.ProcessStream(binding, refVals)
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Fatalf("step %d: ProcessStream error %v, reference %v", step, gotErr, wantErr)
			}
			if !slices.Equal(vals, refVals) {
				t.Fatalf("step %d: ProcessStream containers %v, reference %v", step, vals, refVals)
			}
			sameState(step, "ProcessStream", bound.State, boundRef)
			for _, v := range vals {
				if gotErr == nil && (v < 0 || v > w.Mask()) {
					t.Fatalf("step %d: container value %d outside the datapath range", step, v)
				}
			}
		}
	})
}
