package core_test

import (
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"druzhba/internal/aludsl"
	"druzhba/internal/core"
	"druzhba/internal/machinecode"
	"druzhba/internal/phv"
	"druzhba/internal/sim"
	"druzhba/internal/spec"
	"druzhba/internal/verify"
)

var updateUnchecked = flag.Bool("update", false, "rewrite testdata/unchecked.golden (on purpose only: it pins the run-time errors of unchecked builds)")

// fixture returns a Table-1 program's normalized spec and a private copy of
// its machine code.
func fixture(t *testing.T, bm *spec.Benchmark) (core.Spec, *machinecode.Program) {
	t.Helper()
	s, err := bm.Spec()
	if err != nil {
		t.Fatal(err)
	}
	if s, err = s.Normalize(); err != nil {
		t.Fatal(err)
	}
	code, err := bm.MachineCode()
	if err != nil {
		t.Fatal(err)
	}
	return s, code
}

// TestBuildNamesTheFirstALUOfAFailingConfiguration: at the prechecked levels
// Build reports the first ALU in latch order, stage-major, whose program is
// not total with its holes, however many ALUs after it fail too. The
// hand-built Mux2 declares a domain of 3, so Spec.Read accepts the value 2,
// which the builtin has no choice for.
func TestBuildNamesTheFirstALUOfAFailingConfiguration(t *testing.T) {
	a := &aludsl.Ident{Name: "a", Class: aludsl.VarField, Index: 0}
	mux := &aludsl.HoleCall{Builtin: aludsl.BuiltinMux2, Hole: "m", Args: []aludsl.Expr{a, a}}
	alu := &aludsl.Program{
		Name: "hand", Kind: aludsl.Stateless, PacketFields: []string{"a"},
		Holes: []aludsl.Hole{{Name: "m", Builtin: aludsl.BuiltinMux2, Domain: 3}},
		Body:  []aludsl.Stmt{&aludsl.Return{Value: mux}},
	}
	s := core.Spec{Depth: 2, Width: 3, StatelessALU: alu}
	req, err := s.RequiredPairs()
	if err != nil {
		t.Fatal(err)
	}
	_, refused := mux.Choose(2)
	if refused == nil {
		t.Fatal("Mux2 has a choice for 2")
	}
	for _, tc := range []struct {
		m    [2][3]int64 // m per stage and slot
		want string
	}{
		{[2][3]int64{{0, 2, 2}, {2, 0, 0}}, "core: stage 0 stateless ALU 1: aludsl: hole \"m\": " + refused.Error()},
		{[2][3]int64{{0, 1, 0}, {1, 0, 2}}, "core: stage 1 stateless ALU 2: aludsl: hole \"m\": " + refused.Error()},
	} {
		code := machinecode.New()
		for _, h := range req {
			code.Set(h.Name, 0)
		}
		for si, slots := range tc.m {
			for slot, v := range slots {
				code.Set(machinecode.ALUHoleName(si, false, slot, "m"), v)
			}
		}
		for _, level := range []core.OptLevel{core.SCCPropagation, core.SCCInlining, core.Compiled} {
			if _, err := core.Build(s, code, level); err == nil || err.Error() != tc.want {
				t.Errorf("%v with m = %v: Build error %v, want %q", level, tc.m, err, tc.want)
			}
		}
	}
}

// validateByName is the reference for Validate: every required pair looked up
// by its name, in RequiredPairs order.
func validateByName(s core.Spec, code *machinecode.Program) []error {
	req, err := s.RequiredPairs()
	if err != nil {
		return []error{err}
	}
	var errs []error
	for _, h := range req {
		v, ok := code.Get(h.Name)
		if !ok {
			errs = append(errs, fmt.Errorf("core: missing machine code pair %q", h.Name))
			continue
		}
		if h.Domain > 0 && (v < 0 || v >= int64(h.Domain)) {
			errs = append(errs, fmt.Errorf("core: machine code pair %q = %d out of range [0,%d)", h.Name, v, h.Domain))
		}
	}
	return errs
}

// faultyCode returns three mutants of a fixture's machine code, chosen by a
// generator seeded per fixture: one pair deleted, one bounded pair set to its
// domain, and both kinds of fault at once on two other pairs.
func faultyCode(s core.Spec, code *machinecode.Program, seed int64) (names []string, mutants []*machinecode.Program) {
	req, _ := s.RequiredPairs()
	rng := rand.New(rand.NewSource(seed))
	bounded := func() core.HoleSpec {
		for {
			if h := req[rng.Intn(len(req))]; h.Domain > 0 {
				return h
			}
		}
	}
	del := code.Clone()
	gone := req[rng.Intn(len(req))]
	del.Delete(gone.Name)
	out := code.Clone()
	h := bounded()
	out.Set(h.Name, int64(h.Domain))
	both := code.Clone()
	h2 := bounded()
	gone2 := req[rng.Intn(len(req))]
	for gone2.Name == h2.Name {
		gone2 = req[rng.Intn(len(req))]
	}
	both.Set(h2.Name, int64(h2.Domain))
	both.Delete(gone2.Name)
	return []string{"delete " + gone.Name, "domain " + h.Name, "domain " + h2.Name + " delete " + gone2.Name},
		[]*machinecode.Program{del, out, both}
}

// TestReadReportsWhatValidateReported pins Spec.Read's one pass against
// lookups by name (validateByName), on three faulty mutants of every Table-1
// fixture: Validate and Build at every level report exactly those errors, in
// order and text, verify.NewProblem wraps the same text, and the pipeline
// BuildUnchecked returns fails at run time with the errors pinned in
// testdata/unchecked.golden (regenerate only on purpose, with -update).
func TestReadReportsWhatValidateReported(t *testing.T) {
	var golden strings.Builder
	for i, bm := range spec.All() {
		s, code := fixture(t, bm)
		r, err := bm.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		names, mutants := faultyCode(s, code, int64(i+1))
		for j, m := range mutants {
			what := bm.Name + ": " + names[j]
			want := validateByName(s, m)
			if len(want) == 0 {
				t.Fatalf("%s: the mutant is valid", what)
			}
			if got := s.Validate(m); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: Validate = %v, want %v", what, got, want)
			}
			joined := errors.Join(want...).Error()
			for _, level := range core.AllLevels() {
				if _, err := core.Build(s, m, level); err == nil || err.Error() != joined {
					t.Errorf("%s: Build(%v) = %v, want %q", what, level, err, joined)
				}
			}
			_, err := verify.NewProblem(s, m, r.Program, bm.Fields, verify.Options{})
			if want := "verify: machine code incompatible with pipeline: " + joined; err == nil || err.Error() != want {
				t.Errorf("%s: NewProblem = %v, want %q", what, err, want)
			}

			p, err := core.BuildUnchecked(s, m)
			if err != nil {
				t.Fatalf("%s: BuildUnchecked: %v", what, err)
			}
			gen := sim.NewTrafficGen(1, p.PHVLen(), p.Bits(), bm.MaxInput)
			in := make([]phv.Value, p.PHVLen())
			outcome := "ok"
			for range 8 {
				gen.Fill(in)
				if _, err := p.Process(phv.FromValues(in)); err != nil {
					outcome = err.Error()
					break
				}
			}
			fmt.Fprintf(&golden, "%s\n\t%s\n", what, outcome)
		}
	}
	path := filepath.Join("testdata", "unchecked.golden")
	if *updateUnchecked {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(golden.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if golden.String() != string(want) {
		t.Errorf("BuildUnchecked run-time errors moved:\n%s\nwant\n%s", golden.String(), want)
	}
}

// TestReadAllocations: Spec.Read makes a bounded number of allocations
// however many pairs and stages it reads (32 pairs in 1 stage to 340 in 4
// across the Table-1 fixtures). A name is made only for an error, so a pair
// costs no allocation; Read once made every name, about one allocation a
// pair.
func TestReadAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under -race are not the read's")
	}
	const bound = 16
	for _, bm := range spec.All() {
		s, code := fixture(t, bm)
		n := testing.AllocsPerRun(20, func() {
			if c, err := s.Read(code); err != nil || len(c.Errs) > 0 {
				t.Fatal(err, c.Errs)
			}
		})
		if n > bound {
			t.Errorf("%s: Spec.Read allocates %v times, bound %d", bm.Name, n, bound)
		}
	}
}

// TestBuildAllocations holds core.Build's allocations, summed over the 12
// Table-1 fixtures, to a budget per level. Before Spec.Read formatted names
// into one buffer and SCC and inlining stopped deep-copying their input, the
// sums were 3 235 (unoptimized), 7 557 (scc) and 10 085 (scc+inline and
// compiled); then about 3 195, 4 268 and 5 415; once the prechecked levels
// lowered each ALU's program as written, with no SCC propagation or inlining
// in the build, about 1 123 at each; since a prechecked build lays out no
// interpreter state (ALUs, latches, operand buffers) and waits with the stage
// programs until the pipeline first executes, about 494. The budgets leave
// room for a toolchain's escape analysis to move a few values to the heap.
// The Unoptimized engine makes every pair's name, since it resolves names at
// run time, so its budget is the old figure.
func TestBuildAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under -race are not the build's")
	}
	budget := map[core.OptLevel]float64{
		core.Unoptimized:    3235,
		core.SCCPropagation: 700,
		core.SCCInlining:    700,
		core.Compiled:       700,
	}
	for _, level := range core.AllLevels() {
		var sum float64
		for _, bm := range spec.All() {
			s, code := fixture(t, bm)
			sum += testing.AllocsPerRun(10, func() {
				if _, err := core.Build(s, code, level); err != nil {
					t.Fatal(err)
				}
			})
		}
		if sum > budget[level] {
			t.Errorf("%v: core.Build allocates %v times over the 12 fixtures, budget %v", level, sum, budget[level])
		}
		t.Logf("%v: %v allocations", level, sum)
	}
}

// TestConcurrentBuildsLeaveTheSpecAlone builds every Table-1 fixture at all
// four levels from 8 goroutines sharing the one resolved Spec, as a
// campaign's jobs do. Every build runs the spec's own ALU programs, so under
// -race this catches a build that writes to them; every ALU program, the
// spec's and each build's, must Format as it did in a build run alone.
func TestConcurrentBuildsLeaveTheSpecAlone(t *testing.T) {
	formats := func(progs [][]*aludsl.Program) []string {
		var out []string
		for _, stage := range progs {
			for _, p := range stage {
				out = append(out, p.Format())
			}
		}
		return out
	}
	for _, bm := range spec.All() {
		r, err := bm.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		s := r.Spec
		specALUs := [][]*aludsl.Program{{s.StatelessALU}}
		if s.StatefulALU != nil {
			specALUs[0] = append(specALUs[0], s.StatefulALU)
		}
		before := formats(specALUs)
		want := map[core.OptLevel][]string{}
		for _, level := range core.AllLevels() {
			p, err := core.Build(s, r.Code, level)
			if err != nil {
				t.Fatal(err)
			}
			want[level] = formats(p.ALUPrograms())
		}
		var wg sync.WaitGroup
		for range 8 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, level := range core.AllLevels() {
					p, err := core.Build(s, r.Code, level)
					if err != nil {
						t.Error(err)
						return
					}
					if got := formats(p.ALUPrograms()); !slices.Equal(got, want[level]) {
						t.Errorf("%s %v: a concurrent build's ALU programs differ from a build alone", bm.Name, level)
					}
				}
			}()
		}
		wg.Wait()
		if after := formats(specALUs); !slices.Equal(after, before) {
			t.Errorf("%s: building changed the spec's ALU programs:\n%v\nwas\n%v", bm.Name, after, before)
		}
	}
}
