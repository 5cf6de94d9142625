package phv

import (
	"testing"
	"testing/quick"
)

func TestWidthConstruction(t *testing.T) {
	for _, bits := range []int{0, -1, 63, 100} {
		if _, err := NewWidth(bits); err == nil {
			t.Errorf("NewWidth(%d) succeeded", bits)
		}
	}
	w, err := NewWidth(8)
	if err != nil {
		t.Fatal(err)
	}
	if w.Bits() != 8 || w.Mask() != 255 || !w.Valid() {
		t.Errorf("w = %+v", w)
	}
	var zero Width
	if zero.Valid() {
		t.Error("zero Width reports Valid")
	}
}

func TestMustWidthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustWidth(0) did not panic")
		}
	}()
	MustWidth(0)
}

func TestWidthArithmetic(t *testing.T) {
	w := MustWidth(8)
	cases := []struct {
		name string
		got  Value
		want Value
	}{
		{"add wrap", w.Add(200, 100), 44},
		{"sub wrap", w.Sub(1, 2), 255},
		{"mul wrap", w.Mul(16, 17), 16},
		{"div", w.Div(100, 7), 14},
		{"div zero", w.Div(5, 0), 0},
		{"mod", w.Mod(100, 7), 2},
		{"mod zero", w.Mod(5, 0), 0},
		{"trunc neg", w.Trunc(-1), 255},
		{"trunc big", w.Trunc(511), 255},
	}
	for _, tc := range cases {
		if tc.got != tc.want {
			t.Errorf("%s = %d, want %d", tc.name, tc.got, tc.want)
		}
	}
}

// Property: every arithmetic result stays within the width's range.
func TestWidthResultsInRange(t *testing.T) {
	w := MustWidth(12)
	f := func(a, b int64) bool {
		for _, v := range []Value{w.Add(w.Trunc(a), w.Trunc(b)), w.Sub(w.Trunc(a), w.Trunc(b)),
			w.Mul(w.Trunc(a), w.Trunc(b)), w.Div(w.Trunc(a), w.Trunc(b)), w.Mod(w.Trunc(a), w.Trunc(b))} {
			if v < 0 || v > w.Mask() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBoolTruthy(t *testing.T) {
	if Bool(true) != 1 || Bool(false) != 0 {
		t.Error("Bool encoding broken")
	}
	if Truthy(0) || !Truthy(1) || !Truthy(-5) {
		t.Error("Truthy broken")
	}
}

func TestPHVBasics(t *testing.T) {
	p := New(3)
	if p.Len() != 3 {
		t.Fatalf("Len = %d", p.Len())
	}
	p.Set(1, 42)
	if p.Get(1) != 42 || p.Get(0) != 0 {
		t.Error("Set/Get broken")
	}
	q := FromValues([]Value{1, 2, 3})
	if q.String() != "[1 2 3]" {
		t.Errorf("String = %q", q.String())
	}
	vals := q.Values()
	vals[0] = 99
	if q.Get(0) != 1 {
		t.Error("Values does not copy")
	}
	c := q.Clone()
	c.Set(0, 7)
	if q.Get(0) != 1 {
		t.Error("Clone shares storage")
	}
	if !q.Equal(FromValues([]Value{1, 2, 3})) {
		t.Error("Equal broken")
	}
	if q.Equal(FromValues([]Value{1, 2})) || q.Equal(FromValues([]Value{1, 2, 4})) {
		t.Error("Equal false positives")
	}
}

func TestTraceDiff(t *testing.T) {
	a := NewTrace()
	b := NewTrace()
	a.Append(FromValues([]Value{1}))
	b.Append(FromValues([]Value{1}))
	if d := a.Diff(b); d != "" {
		t.Errorf("Diff of equal traces = %q", d)
	}
	b.Append(FromValues([]Value{2}))
	if d := a.Diff(b); d == "" {
		t.Error("length mismatch not reported")
	}
	a.Append(FromValues([]Value{3}))
	if d := a.Diff(b); d == "" {
		t.Error("value mismatch not reported")
	}
	if a.Equal(b) {
		t.Error("Equal false positive")
	}
}

func TestTraceClone(t *testing.T) {
	a := NewTrace()
	a.Append(FromValues([]Value{5}))
	c := a.Clone()
	c.At(0).Set(0, 9)
	if a.At(0).Get(0) != 5 {
		t.Error("Clone shares PHVs")
	}
}

func TestTraceString(t *testing.T) {
	a := NewTrace()
	for i := 0; i < 10; i++ {
		a.Append(FromValues([]Value{Value(i)}))
	}
	s := a.String()
	if len(s) == 0 || s[:10] != "Trace(len=" {
		t.Errorf("String = %q", s)
	}
}

func TestStateSnapshot(t *testing.T) {
	s := StateSnapshot{{{1, 2}, {3}}, {{4}}}
	c := s.Clone()
	c[0][0][0] = 99
	if s[0][0][0] != 1 {
		t.Error("Clone shares storage")
	}
	if !s.Equal(s.Clone()) {
		t.Error("Equal broken")
	}
	if s.Equal(StateSnapshot{{{1, 2}, {3}}}) {
		t.Error("Equal ignores shape")
	}
	if s.Equal(StateSnapshot{{{1, 2}, {9}}, {{4}}}) {
		t.Error("Equal ignores content")
	}
	if s.String() == "" {
		t.Error("String empty")
	}
}
