package machinecode

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestSetGetDelete(t *testing.T) {
	p := New()
	p.Set("a", 1)
	p.Set("b", 2)
	p.Set("a", 3) // overwrite keeps position
	if v, ok := p.Get("a"); !ok || v != 3 {
		t.Errorf("Get(a) = %d,%v; want 3,true", v, ok)
	}
	if p.Len() != 2 {
		t.Errorf("Len = %d, want 2", p.Len())
	}
	if !p.Delete("a") {
		t.Error("Delete(a) = false")
	}
	if p.Has("a") {
		t.Error("a still present after Delete")
	}
	if p.Delete("a") {
		t.Error("second Delete(a) = true")
	}
	if v, ok := p.Get("b"); !ok || v != 2 {
		t.Errorf("Get(b) after delete = %d,%v; want 2,true", v, ok)
	}
}

func TestDeleteReindexes(t *testing.T) {
	p := New()
	for _, n := range []string{"a", "b", "c", "d"} {
		p.Set(n, int64(len(n)))
	}
	p.Delete("b")
	// Remaining pairs must still be retrievable and ordered.
	want := []string{"a", "c", "d"}
	got := p.Names()
	if len(got) != len(want) {
		t.Fatalf("Names = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Names[%d] = %q, want %q", i, got[i], want[i])
		}
	}
	p.Set("c", 42)
	if v, _ := p.Get("c"); v != 42 {
		t.Errorf("Set after Delete broke indexing: c = %d", v)
	}
}

func TestInsertionOrderPreserved(t *testing.T) {
	p := New()
	names := []string{"z", "a", "m", "b"}
	for i, n := range names {
		p.Set(n, int64(i))
	}
	got := p.Names()
	for i, n := range names {
		if got[i] != n {
			t.Errorf("Names[%d] = %q, want %q", i, got[i], n)
		}
	}
}

func TestParseFormats(t *testing.T) {
	src := `
# comment
alpha = 5
beta=7   // trailing
gamma, 9

`
	p, err := ParseString(src)
	if err != nil {
		t.Fatalf("ParseString: %v", err)
	}
	for name, want := range map[string]int64{"alpha": 5, "beta": 7, "gamma": 9} {
		if v, ok := p.Get(name); !ok || v != want {
			t.Errorf("%s = %d,%v; want %d,true", name, v, ok, want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"just_a_name",
		"x = notanumber",
		"= 5",
	}
	for _, src := range cases {
		if _, err := ParseString(src); err == nil {
			t.Errorf("ParseString(%q) succeeded, want error", src)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	p := New()
	p.Set("pipeline_stage_0_stateful_alu_0_const_0", 9)
	p.Set("pipeline_stage_0_output_mux_phv_0", 1)
	q, err := ParseString(p.String())
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	if q.String() != p.String() {
		t.Errorf("round trip changed program:\n%s\nvs\n%s", p, q)
	}
}

func TestCloneIndependence(t *testing.T) {
	p := New()
	p.Set("x", 1)
	q := p.Clone()
	q.Set("x", 99)
	if v, _ := p.Get("x"); v != 1 {
		t.Error("Clone shares storage with original")
	}
}

func TestMerge(t *testing.T) {
	p, q := New(), New()
	p.Set("x", 1)
	p.Set("y", 2)
	q.Set("y", 20)
	q.Set("z", 30)
	p.Merge(q)
	for name, want := range map[string]int64{"x": 1, "y": 20, "z": 30} {
		if v, _ := p.Get(name); v != want {
			t.Errorf("%s = %d, want %d", name, v, want)
		}
	}
}

func TestNamingConvention(t *testing.T) {
	cases := []struct {
		got, want string
	}{
		{ALUHoleName(2, true, 1, "mux3_0"), "pipeline_stage_2_stateful_alu_1_mux3_0"},
		{ALUHoleName(0, false, 4, "const_2"), "pipeline_stage_0_stateless_alu_4_const_2"},
		{OperandMuxName(3, true, 0, 1), "pipeline_stage_3_stateful_alu_0_operand_mux_1"},
		{OutputMuxName(1, 3), "pipeline_stage_1_output_mux_phv_3"},
	}
	for _, tc := range cases {
		if tc.got != tc.want {
			t.Errorf("got %q, want %q", tc.got, tc.want)
		}
	}
	// All names must carry stage and position, per §3.2.
	for _, tc := range cases {
		if !strings.HasPrefix(tc.got, "pipeline_stage_") {
			t.Errorf("%q lacks pipeline_stage_ prefix", tc.got)
		}
	}
}

// TestNamesMatchTheirFormats pins the three name functions and their
// Append forms to the formats they are defined by, over multi-digit stages,
// slots, operands and containers, both kinds and a hole name longer than the
// string forms' stack buffer. An Append form keeps what dst held, and
// GetBytes finds each name as Get does.
func TestNamesMatchTheirFormats(t *testing.T) {
	p := New()
	check := func(fn, got, want string, appended []byte) {
		t.Helper()
		if got != want || string(appended) != ">"+want {
			t.Fatalf("%s = %q, appended %q, want %q", fn, got, appended, want)
		}
		p.Set(want, int64(len(want)))
		if v, ok := p.GetBytes(appended[1:]); !ok || v != int64(len(want)) {
			t.Fatalf("GetBytes(%q) = %d, %v", appended[1:], v, ok)
		}
	}
	for stage := 0; stage <= 12; stage++ {
		for slot := 0; slot <= 12; slot++ {
			check("OutputMuxName", OutputMuxName(stage, slot), fmt.Sprintf("pipeline_stage_%d_output_mux_phv_%d", stage, slot),
				AppendOutputMuxName([]byte(">"), stage, slot))
			for _, stateful := range []bool{false, true} {
				kind := KindName(stateful)
				for _, hole := range []string{"mux3_0", "const_12", "", strings.Repeat("h", 70)} {
					check("ALUHoleName", ALUHoleName(stage, stateful, slot, hole), fmt.Sprintf("pipeline_stage_%d_%s_alu_%d_%s", stage, kind, slot, hole),
						AppendALUHoleName([]byte(">"), stage, stateful, slot, hole))
				}
				for op := 0; op <= 12; op++ {
					check("OperandMuxName", OperandMuxName(stage, stateful, slot, op), fmt.Sprintf("pipeline_stage_%d_%s_alu_%d_operand_mux_%d", stage, kind, slot, op),
						AppendOperandMuxName([]byte(">"), stage, stateful, slot, op))
				}
			}
		}
	}
	if _, ok := p.GetBytes([]byte("pipeline_stage_13_output_mux_phv_0")); ok {
		t.Fatal("GetBytes found a name that was never set")
	}
}

// fixtures returns the Table-1 machine code fixtures' file contents by path.
func fixtures(t testing.TB) map[string][]byte {
	paths, err := filepath.Glob(filepath.Join("..", "spec", "testdata", "*.mc"))
	if err != nil || len(paths) != 12 {
		t.Fatalf("%d fixtures (%v), want 12", len(paths), err)
	}
	out := map[string][]byte{}
	for _, path := range paths {
		if out[path], err = os.ReadFile(path); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestStringIsWrite: String and Write emit the same bytes, which are the
// "name = value" lines fmt would print, on the Table-1 fixtures, on negative
// and extreme values, and on a program with a name longer than Write's
// buffer and enough pairs to fill it many times.
// Write streams: no call to the writer carries more than its buffer unless
// one line does, and the writer's error ends it.
func TestStringIsWrite(t *testing.T) {
	odd := New()
	for i, v := range []int64{-1, 0, -9, math.MinInt64, math.MaxInt64, 10, -1000} {
		odd.Set(OutputMuxName(i, i), v)
	}
	long := New()
	for i := range 500 {
		long.Set(OperandMuxName(i, i%2 == 0, i, 1), int64(i)*7919)
		if i == 250 {
			long.Set(strings.Repeat("x", 3000), math.MinInt64)
		}
	}
	progs := []*Program{New(), odd, long}
	for path, src := range fixtures(t) {
		p, err := ParseString(string(src))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		progs = append(progs, p)
	}
	for _, p := range progs {
		var want bytes.Buffer
		w := &chunks{}
		if err := p.Write(w); err != nil {
			t.Fatal(err)
		}
		for _, pr := range p.pairs {
			fmt.Fprintf(&want, "%s = %d\n", pr.Name, pr.Value)
		}
		if p.String() != want.String() || w.String() != want.String() {
			t.Errorf("String\n%s\nWrite\n%s\nwant\n%s", p.String(), w.String(), want.String())
		}
		limit := 1 << 10
		for _, line := range strings.SplitAfter(want.String(), "\n") {
			limit = max(limit, len(line))
		}
		for _, c := range w.calls {
			if c > limit {
				t.Errorf("one write of %d bytes, text %d bytes: Write does not stream", c, want.Len())
			}
		}
		if p == long && len(w.calls) < 8 {
			t.Errorf("the long program's %d bytes came in %d writes", want.Len(), len(w.calls))
		}
	}
	fail := errors.New("full")
	if err := long.Write(&failAfter{2, fail}); !errors.Is(err, fail) {
		t.Errorf("Write into a failing writer: %v, want %v", err, fail)
	}
}

// chunks is a writer that records the size of every write.
type chunks struct {
	bytes.Buffer
	calls []int
}

func (c *chunks) Write(b []byte) (int, error) {
	c.calls = append(c.calls, len(b))
	return c.Buffer.Write(b)
}

// failAfter fails every write after its first n.
type failAfter struct {
	n   int
	err error
}

func (f *failAfter) Write(b []byte) (int, error) {
	if f.n--; f.n < 0 {
		return 0, f.err
	}
	return len(b), nil
}

// TestParseRejectsADuplicateName: two pairs for one primitive are the
// compiler's bug to report, whether the values differ or not; the error
// names both lines.
func TestParseRejectsADuplicateName(t *testing.T) {
	for _, src := range []string{
		"a = 1\nb = 0\n# again\na = 2\n",
		"a = 1\nb = 0\n\na, 1\n",
	} {
		_, err := ParseString(src)
		if err == nil || err.Error() != `machinecode: line 4: duplicate pair "a" (first on line 1)` {
			t.Errorf("ParseString(%q) = %v, want the duplicate named with both lines", src, err)
		}
	}
}

// FuzzParse: the parser never panics; what it accepts round-trips through
// String with the same pairs in the same order, and what it refuses is
// refused with the line the refusal is about.
func FuzzParse(f *testing.F) {
	for _, src := range fixtures(f) {
		f.Add(string(src))
	}
	f.Add("a = 1\na = 2\n")
	f.Add("a,1\nb , -2\n")
	f.Add("# comment\n// comment\na = 3 # trailing\n\n   \nb = 4 // trailing\n")
	f.Add("x = notanumber\n")
	f.Add("= 5\n")
	f.Fuzz(func(t *testing.T, src string) {
		p, err := ParseString(src)
		if err != nil {
			if !lineError.MatchString(err.Error()) {
				t.Fatalf("error %q names no line", err)
			}
			return
		}
		q, err := ParseString(p.String())
		if err != nil {
			t.Fatalf("reparse of %q: %v", p.String(), err)
		}
		if !slices.Equal(p.pairs, q.pairs) {
			t.Fatalf("round trip moved the pairs: %v, then %v", p.pairs, q.pairs)
		}
	})
}

var lineError = regexp.MustCompile(`^machinecode: line [1-9][0-9]*: `)

// Property: parse(render(p)) == p for arbitrary identifier-valued programs.
func TestRoundTripProperty(t *testing.T) {
	f := func(vals []int64) bool {
		p := New()
		for i, v := range vals {
			p.Set(ALUHoleName(i%4, i%2 == 0, i%3, "h"), v)
		}
		q, err := ParseString(p.String())
		if err != nil {
			return false
		}
		return q.String() == p.String()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// textDigest is Digest's formula, from String's text.
func textDigest(p *Program) string {
	sum := sha256.Sum256([]byte(p.String()))
	return hex.EncodeToString(sum[:])
}

// TestDigestTracksEdits: Digest is the hex SHA-256 of String's text after a
// load and after every kind of edit, each read with the last digest kept, so
// a kept digest is never served for a changed program; a clone and its
// original keep their own. A repeated Digest allocates nothing.
func TestDigestTracksEdits(t *testing.T) {
	p, err := ParseString("a = 1\nb = 2\nc = 3\n")
	if err != nil {
		t.Fatal(err)
	}
	var orig *Program
	for _, step := range []struct {
		name string
		edit func()
	}{
		{"Parse", func() {}},
		{"Set of a new name", func() { p.Set("d", 4) }},
		{"Set of an existing name's value", func() { p.Set("b", 20) }},
		{"Set of an existing name's same value", func() { p.Set("b", 20) }},
		{"Delete", func() { p.Delete("a") }},
		{"Delete of a missing name", func() { p.Delete("a") }},
		{"Merge", func() {
			q := New()
			q.Set("c", 30)
			q.Set("e", 5)
			p.Merge(q)
		}},
		{"Merge of an empty program", func() { p.Merge(New()) }},
		{"Clone", func() { orig, p = p, p.Clone() }},
		{"Set on the clone", func() { p.Set("c", -1) }},
		{"Delete every pair", func() {
			for _, name := range p.Names() {
				p.Delete(name)
			}
		}},
	} {
		step.edit()
		if got, want := p.Digest(), textDigest(p); got != want {
			t.Fatalf("after %s: Digest %s, text's SHA-256 %s", step.name, got, want)
		}
	}
	if got, want := orig.Digest(), textDigest(orig); got != want || p.String() == orig.String() {
		t.Fatalf("the clone's edits reached the original: Digest %s, text's SHA-256 %s", got, want)
	}
	if a := testing.AllocsPerRun(100, func() { orig.Digest() }); a != 0 {
		t.Errorf("a repeated Digest allocates %.0f times, want 0", a)
	}
}

// FuzzDigestTracksEdits: a byte string decoded into a sequence of Set,
// Delete, Merge and Clone calls (two bytes an edit: the call and its
// argument) leaves Digest equal to the SHA-256 of String's text after every
// step, on the edited program and on every program cloned from it on the
// way.
func FuzzDigestTracksEdits(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 0, 2, 1, 1, 0, 1})
	f.Add([]byte{0, 0, 0, 9, 3, 0, 0, 17, 2, 5, 1, 0, 1, 9})
	f.Add([]byte{0, 255, 2, 254, 3, 3, 1, 255, 0, 128})
	f.Fuzz(func(t *testing.T, ops []byte) {
		name := func(b byte) string { return fmt.Sprintf("n%d", b%8) }
		p := New()
		seen := []*Program{p}
		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i]%4, ops[i+1]
			switch op {
			case 0:
				p.Set(name(arg), int64(int8(arg)))
			case 1:
				p.Delete(name(arg))
			case 2:
				q := New()
				for j := byte(0); j <= arg%3; j++ {
					q.Set(name(arg+j), int64(arg)*int64(j))
				}
				p.Merge(q)
			case 3:
				p = p.Clone()
				seen = append(seen, p)
			}
			for _, q := range seen {
				if got, want := q.Digest(), textDigest(q); got != want {
					t.Fatalf("after edit %d (call %d, argument %d): Digest %s, text's SHA-256 %s", i/2, op, arg, got, want)
				}
			}
		}
	})
}
