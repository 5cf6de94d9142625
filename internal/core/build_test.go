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
	"strconv"
	"strings"
	"sync"
	"testing"

	"druzhba/internal/aludsl"
	"druzhba/internal/atoms"
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

// configuration is the memo's key computed the long way: the ALU's kind and
// its hole values looked up by name.
func configuration(s core.Spec, code *machinecode.Program, si, latch int) string {
	prog, stateful, slot := s.StatelessALU, false, latch
	if latch >= s.Width {
		prog, stateful, slot = s.StatefulALU, true, latch-s.Width
	}
	key := machinecode.KindName(stateful)
	for _, h := range prog.Holes {
		v, _ := code.Get(machinecode.ALUHoleName(si, stateful, slot, h.Name))
		key += " " + strconv.FormatInt(v, 10)
	}
	return key
}

// TestOneSpecialisationPerConfiguration pins Build's memo on every Table-1
// fixture at every prechecked level: each ALU runs what specialising it alone
// gives, two ALUs share a program exactly when their kind and hole values are
// equal, and the number of programs built is the number of configurations.
func TestOneSpecialisationPerConfiguration(t *testing.T) {
	want := map[string]int{
		"blue-decrease": 4, "blue-increase": 3, "sampling": 4, "marple-new-flow": 4,
		"marple-tcp-nmo": 4, "snap-heavy-hitter": 2, "stateful-firewall": 6, "flowlets": 6,
		"learn-filter": 8, "rcp": 6, "conga": 3, "spam-detection": 2,
	}
	for _, level := range []core.OptLevel{core.SCCPropagation, core.SCCInlining, core.Compiled} {
		total, alus := 0, 0
		for _, bm := range spec.All() {
			s, code := fixture(t, bm)
			p, err := core.Build(s, code, level)
			if err != nil {
				t.Fatal(err)
			}
			type placed struct {
				prog *aludsl.Program
				key  string
			}
			var all []placed
			distinct := map[*aludsl.Program]bool{}
			for si, stage := range p.ALUPrograms() {
				for latch, prog := range stage {
					alone, err := core.OptimizeALUAlone(s, code, si, latch, level)
					if err != nil {
						t.Fatal(err)
					}
					if prog.Format() != alone.Format() || !reflect.DeepEqual(prog, alone) {
						t.Errorf("%s %v stage %d latch %d: built\n%s\nalone\n%s", bm.Name, level, si, latch, prog.Format(), alone.Format())
					}
					all = append(all, placed{prog, configuration(s, code, si, latch)})
					distinct[prog] = true
				}
			}
			for i := range all {
				for j := range i {
					if shared, equal := all[i].prog == all[j].prog, all[i].key == all[j].key; shared != equal {
						t.Errorf("%s %v: ALUs %d and %d share a program %v, configurations equal %v (%q, %q)",
							bm.Name, level, j, i, shared, equal, all[j].key, all[i].key)
					}
				}
			}
			if len(distinct) != want[bm.Name] {
				t.Errorf("%s %v: %d programs for %d ALUs, want %d", bm.Name, level, len(distinct), len(all), want[bm.Name])
			}
			total += len(distinct)
			alus += len(all)
		}
		if total != 52 || alus != 198 {
			t.Errorf("%v: %d programs for %d ALUs, want 52 for 198", level, total, alus)
		}
	}
}

// TestALUsDifferingInOneHoleGetTwoPrograms: a 1-stage grid of two stateless
// ALUs equal in everything but alu_op (add, sub), then one of a stateless and
// a stateful ALU with equal hole values. A memo key that dropped a hole, or
// the kind, would run one program for both.
func TestALUsDifferingInOneHoleGetTwoPrograms(t *testing.T) {
	s := core.Spec{Depth: 1, Width: 2, StatelessALU: atoms.MustLoad("stateless_full")}
	req, err := s.RequiredPairs()
	if err != nil {
		t.Fatal(err)
	}
	code := machinecode.New()
	for _, h := range req {
		code.Set(h.Name, 0)
	}
	for slot := range 2 {
		code.Set(machinecode.OperandMuxName(0, false, slot, 1), 1)     // operand 1 <- container 1
		code.Set(machinecode.ALUHoleName(0, false, slot, "mux3_1"), 1) // b = pkt_1
		code.Set(machinecode.OutputMuxName(0, slot), int64(1+slot))    // container slot <- ALU slot
	}
	code.Set(machinecode.ALUHoleName(0, false, 1, "alu_op_0"), aludsl.ALUOpSub)
	for _, level := range []core.OptLevel{core.SCCPropagation, core.SCCInlining, core.Compiled} {
		p, err := core.Build(s, code, level)
		if err != nil {
			t.Fatal(err)
		}
		if progs := p.ALUPrograms()[0]; progs[0] == progs[1] {
			t.Errorf("%v: the add and the sub ALU share one program", level)
		}
		out, err := p.Process(phv.FromValues([]phv.Value{30, 12}))
		if err != nil {
			t.Fatal(err)
		}
		if got := out.Values(); got[0] != 42 || got[1] != 18 {
			t.Errorf("%v: outputs %v, want [42 18]", level, got)
		}
	}

	// A stateless ALU with the raw atom's holes, configured like the raw
	// ALU beside it: equal hole values, different kinds.
	stateless, err := aludsl.Parse(`
type: stateless
state variables: {}
hole variables: {}
packet fields: {pkt_0}
return pkt_0 + Mux2(pkt_0, C());
`)
	if err != nil {
		t.Fatal(err)
	}
	s = core.Spec{Depth: 1, Width: 1, PHVLen: 2, StatelessALU: stateless, StatefulALU: atoms.MustLoad("raw")}
	if req, err = s.RequiredPairs(); err != nil {
		t.Fatal(err)
	}
	code = machinecode.New()
	for _, h := range req {
		code.Set(h.Name, 0)
	}
	for _, stateful := range []bool{false, true} {
		code.Set(machinecode.ALUHoleName(0, stateful, 0, "mux2_0"), 1) // the immediate
		code.Set(machinecode.ALUHoleName(0, stateful, 0, "const_0"), 5)
	}
	code.Set(machinecode.OutputMuxName(0, 0), 1) // container 0 <- stateless ALU
	code.Set(machinecode.OutputMuxName(0, 1), 2) // container 1 <- stateful ALU
	for _, level := range []core.OptLevel{core.SCCPropagation, core.SCCInlining, core.Compiled} {
		p, err := core.Build(s, code, level)
		if err != nil {
			t.Fatal(err)
		}
		if progs := p.ALUPrograms()[0]; progs[0] == progs[1] {
			t.Errorf("%v: the stateless and the stateful ALU share one program", level)
		}
		out, err := p.Process(phv.FromValues([]phv.Value{30, 0}))
		if err != nil {
			t.Fatal(err)
		}
		if got := out.Values(); got[0] != 35 || got[1] != 5 {
			t.Errorf("%v: outputs %v, want [35 5]", level, got)
		}
	}
}

// TestBuildNamesTheFirstALUOfAFailingConfiguration: a configuration that
// specialisation refuses is reported at the first ALU that carries it, in
// stage-major order, however many ALUs share it after.
func TestBuildNamesTheFirstALUOfAFailingConfiguration(t *testing.T) {
	a := &aludsl.Ident{Name: "a", Class: aludsl.VarField, Index: 0}
	// if (h) { return ghost; } else { return a; }: total exactly when h = 0.
	alu := &aludsl.Program{
		Name: "hand", Kind: aludsl.Stateless, PacketFields: []string{"a"}, HoleVars: []string{"h"},
		Holes: []aludsl.Hole{{Name: "h", Builtin: aludsl.BuiltinC, IsVar: true}},
		Body: []aludsl.Stmt{&aludsl.If{
			Cond: &aludsl.Ident{Name: "h", Class: aludsl.VarHole},
			Then: []aludsl.Stmt{&aludsl.Return{Value: &aludsl.Ident{Name: "ghost"}}},
			Else: []aludsl.Stmt{&aludsl.Return{Value: a}},
		}},
	}
	s := core.Spec{Depth: 2, Width: 3, StatelessALU: alu}
	req, err := s.RequiredPairs()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		h    [2][3]int64 // h per stage and slot
		want string
	}{
		{[2][3]int64{{0, 1, 1}, {1, 0, 0}}, "core: stage 0 stateless ALU 1: aludsl: unresolved identifier \"ghost\""},
		{[2][3]int64{{0, 0, 0}, {0, 0, 1}}, "core: stage 1 stateless ALU 2: aludsl: unresolved identifier \"ghost\""},
	} {
		code := machinecode.New()
		for _, h := range req {
			code.Set(h.Name, 0)
		}
		for si, slots := range tc.h {
			for slot, v := range slots {
				code.Set(machinecode.ALUHoleName(si, false, slot, "h"), v)
			}
		}
		for _, level := range []core.OptLevel{core.SCCPropagation, core.SCCInlining, core.Compiled} {
			if _, err := core.Build(s, code, level); err == nil || err.Error() != tc.want {
				t.Errorf("%v with h = %v: Build error %v, want %q", level, tc.h, err, tc.want)
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
// compiled); since, they are about 3 195, 4 268 and 5 415. The budgets sit
// below the old figures with room for a toolchain's escape analysis to move
// a few values to the heap. The Unoptimized engine makes every pair's name,
// since it resolves names at run time, so its budget is the old figure.
func TestBuildAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under -race are not the build's")
	}
	budget := map[core.OptLevel]float64{
		core.Unoptimized:    3235,
		core.SCCPropagation: 5000,
		core.SCCInlining:    6500,
		core.Compiled:       6500,
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
// campaign's jobs do. SCC and inlining share the nodes they leave unchanged
// with the spec's ALU programs, so under -race this catches a pass that
// writes to its input; every ALU program, the spec's and each build's, must
// Format as it did in a build run alone.
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
