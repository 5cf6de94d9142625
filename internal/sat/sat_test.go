package sat

import (
	"math/rand"
	"testing"
)

// bruteForce decides satisfiability of the clause set by enumeration.
func bruteForce(nVars int, clauses [][]Lit, assumptions []Lit) bool {
	if nVars > 24 {
		panic("bruteForce: too many variables")
	}
assign:
	for m := 0; m < 1<<uint(nVars); m++ {
		value := func(l Lit) bool {
			v := m&(1<<uint(l.Var())) != 0
			if l.Sign() {
				return !v
			}
			return v
		}
		for _, a := range assumptions {
			if !value(a) {
				continue assign
			}
		}
		for _, c := range clauses {
			sat := false
			for _, l := range c {
				if value(l) {
					sat = true
					break
				}
			}
			if !sat {
				continue assign
			}
		}
		return true
	}
	return false
}

func newWithVars(n int) *Solver {
	s := New()
	for i := 0; i < n; i++ {
		s.NewVar()
	}
	return s
}

func TestEmptyFormulaIsSat(t *testing.T) {
	s := New()
	if got := s.Solve(); got != Sat {
		t.Fatalf("empty formula: got %v, want sat", got)
	}
}

func TestSingleUnit(t *testing.T) {
	s := newWithVars(1)
	s.AddClause(MkLit(0, false))
	if got := s.Solve(); got != Sat {
		t.Fatalf("got %v, want sat", got)
	}
	if !s.ModelValue(MkLit(0, false)) {
		t.Fatal("model does not satisfy unit clause")
	}
}

func TestContradictoryUnits(t *testing.T) {
	s := newWithVars(1)
	s.AddClause(MkLit(0, false))
	if ok := s.AddClause(MkLit(0, true)); ok {
		t.Fatal("adding contradictory unit should report failure")
	}
	if got := s.Solve(); got != Unsat {
		t.Fatalf("got %v, want unsat", got)
	}
}

func TestEmptyClauseIsUnsat(t *testing.T) {
	s := newWithVars(1)
	if ok := s.AddClause(); ok {
		t.Fatal("empty clause should report failure")
	}
	if got := s.Solve(); got != Unsat {
		t.Fatalf("got %v, want unsat", got)
	}
}

func TestTautologyIgnored(t *testing.T) {
	s := newWithVars(2)
	s.AddClause(MkLit(0, false), MkLit(0, true))
	s.AddClause(MkLit(1, true))
	if got := s.Solve(); got != Sat {
		t.Fatalf("got %v, want sat", got)
	}
	if s.ModelValue(MkLit(1, false)) {
		t.Fatal("v1 should be false")
	}
}

func TestSimpleImplicationChain(t *testing.T) {
	// v0 ∧ (v0→v1) ∧ (v1→v2) ∧ (v2→v3) forces all true.
	s := newWithVars(4)
	s.AddClause(MkLit(0, false))
	for i := 0; i < 3; i++ {
		s.AddClause(MkLit(i, true), MkLit(i+1, false))
	}
	if got := s.Solve(); got != Sat {
		t.Fatalf("got %v, want sat", got)
	}
	for i := 0; i < 4; i++ {
		if !s.ModelValue(MkLit(i, false)) {
			t.Fatalf("v%d should be true", i)
		}
	}
}

func TestXorChainUnsat(t *testing.T) {
	// x0 xor x1, x1 xor x2, x0 xor x2 with odd parity is UNSAT:
	// encode x≠y as (x∨y)∧(¬x∨¬y), then force x0=x2 and x0≠x2.
	s := newWithVars(3)
	neq := func(a, b int) {
		s.AddClause(MkLit(a, false), MkLit(b, false))
		s.AddClause(MkLit(a, true), MkLit(b, true))
	}
	eq := func(a, b int) {
		s.AddClause(MkLit(a, true), MkLit(b, false))
		s.AddClause(MkLit(a, false), MkLit(b, true))
	}
	neq(0, 1)
	neq(1, 2)
	eq(0, 1) // contradiction with neq(0,1)
	_ = eq
	if got := s.Solve(); got != Unsat {
		t.Fatalf("got %v, want unsat", got)
	}
}

// pigeonhole encodes PHP(n+1, n): n+1 pigeons into n holes, classically
// UNSAT and a canonical hard instance for resolution.
func pigeonhole(pigeons, holes int) *Solver {
	nVars, clauses := pigeonholeClauses(pigeons, holes)
	s := newWithVars(nVars)
	for _, c := range clauses {
		s.AddClause(c...)
	}
	return s
}

// pigeonholeClauses is the PHP(pigeons, holes) clause list over variables
// pigeon*holes + hole.
func pigeonholeClauses(pigeons, holes int) (nVars int, clauses [][]Lit) {
	v := func(p, h int) int { return p*holes + h }
	// Every pigeon in some hole.
	for p := 0; p < pigeons; p++ {
		var c []Lit
		for h := 0; h < holes; h++ {
			c = append(c, MkLit(v(p, h), false))
		}
		clauses = append(clauses, c)
	}
	// No two pigeons share a hole.
	for h := 0; h < holes; h++ {
		for p1 := 0; p1 < pigeons; p1++ {
			for p2 := p1 + 1; p2 < pigeons; p2++ {
				clauses = append(clauses, []Lit{MkLit(v(p1, h), true), MkLit(v(p2, h), true)})
			}
		}
	}
	return pigeons * holes, clauses
}

func TestPigeonholeUnsat(t *testing.T) {
	for n := 2; n <= 6; n++ {
		s := pigeonhole(n+1, n)
		if got := s.Solve(); got != Unsat {
			t.Fatalf("PHP(%d,%d): got %v, want unsat", n+1, n, got)
		}
	}
}

func TestPigeonholeSatWhenEnoughHoles(t *testing.T) {
	s := pigeonhole(4, 4)
	if got := s.Solve(); got != Sat {
		t.Fatalf("PHP(4,4): got %v, want sat", got)
	}
}

func TestAssumptions(t *testing.T) {
	// (v0 ∨ v1) ∧ (¬v0 ∨ v2)
	s := newWithVars(3)
	s.AddClause(MkLit(0, false), MkLit(1, false))
	s.AddClause(MkLit(0, true), MkLit(2, false))

	if got := s.Solve(MkLit(0, false)); got != Sat {
		t.Fatalf("assume v0: got %v, want sat", got)
	}
	if !s.ModelValue(MkLit(2, false)) {
		t.Fatal("assuming v0 must imply v2")
	}
	if got := s.Solve(MkLit(0, true), MkLit(1, true)); got != Unsat {
		t.Fatalf("assume ~v0,~v1: got %v, want unsat", got)
	}
	// The solver must remain usable after an UNSAT-under-assumptions call.
	if got := s.Solve(); got != Sat {
		t.Fatalf("no assumptions after unsat call: got %v, want sat", got)
	}
}

func TestAssumptionsConflictingWithEachOther(t *testing.T) {
	s := newWithVars(2)
	s.AddClause(MkLit(0, false), MkLit(1, false))
	if got := s.Solve(MkLit(0, false), MkLit(0, true)); got != Unsat {
		t.Fatalf("contradictory assumptions: got %v, want unsat", got)
	}
}

func TestIncrementalAddBetweenSolves(t *testing.T) {
	s := newWithVars(3)
	s.AddClause(MkLit(0, false), MkLit(1, false))
	if got := s.Solve(); got != Sat {
		t.Fatalf("first solve: got %v", got)
	}
	s.AddClause(MkLit(0, true))
	s.AddClause(MkLit(1, true))
	if got := s.Solve(); got != Unsat {
		t.Fatalf("after narrowing: got %v, want unsat", got)
	}
}

func TestDuplicateLiteralsInClause(t *testing.T) {
	s := newWithVars(2)
	s.AddClause(MkLit(0, false), MkLit(0, false), MkLit(1, false))
	s.AddClause(MkLit(0, true))
	s.AddClause(MkLit(1, true))
	if got := s.Solve(); got != Unsat {
		t.Fatalf("got %v, want unsat", got)
	}
}

func TestModelValueRespectsSign(t *testing.T) {
	s := newWithVars(1)
	s.AddClause(MkLit(0, true))
	if got := s.Solve(); got != Sat {
		t.Fatalf("got %v", got)
	}
	if s.ModelValue(MkLit(0, false)) {
		t.Fatal("positive literal should be false")
	}
	if !s.ModelValue(MkLit(0, true)) {
		t.Fatal("negative literal should be true")
	}
}

func TestLubySequence(t *testing.T) {
	want := []int64{1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8}
	for i, w := range want {
		if got := luby(int64(i)); got != w {
			t.Fatalf("luby(%d) = %d, want %d", i, got, w)
		}
	}
}

// TestRandom3SATAgainstBruteForce cross-checks the solver against
// exhaustive enumeration on random 3-SAT instances around the phase
// transition (ratio ~4.26), where both SAT and UNSAT outcomes occur.
func TestRandom3SATAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 400; iter++ {
		nVars := 4 + rng.Intn(9) // 4..12
		nClauses := int(float64(nVars)*4.26) + rng.Intn(5) - 2
		clauses := make([][]Lit, nClauses)
		for i := range clauses {
			seen := map[int]bool{}
			var c []Lit
			for len(c) < 3 {
				v := rng.Intn(nVars)
				if seen[v] {
					continue
				}
				seen[v] = true
				c = append(c, MkLit(v, rng.Intn(2) == 0))
			}
			clauses[i] = c
		}
		s := newWithVars(nVars)
		for _, c := range clauses {
			s.AddClause(c...)
		}
		got := s.Solve()
		want := bruteForce(nVars, clauses, nil)
		if (got == Sat) != want {
			t.Fatalf("iter %d (%d vars, %d clauses): solver=%v bruteforce sat=%v",
				iter, nVars, nClauses, got, want)
		}
		if got == Sat {
			// The model must actually satisfy every clause.
			for ci, c := range clauses {
				ok := false
				for _, l := range c {
					if s.ModelValue(l) {
						ok = true
						break
					}
				}
				if !ok {
					t.Fatalf("iter %d: model does not satisfy clause %d", iter, ci)
				}
			}
		}
	}
}

// TestRandomAssumptionsAgainstBruteForce cross-checks Solve under
// assumptions.
func TestRandomAssumptionsAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for iter := 0; iter < 200; iter++ {
		nVars := 4 + rng.Intn(6)
		nClauses := nVars * 3
		clauses := make([][]Lit, nClauses)
		for i := range clauses {
			var c []Lit
			for len(c) < 3 {
				c = append(c, MkLit(rng.Intn(nVars), rng.Intn(2) == 0))
			}
			clauses[i] = c
		}
		var assumptions []Lit
		for v := 0; v < nVars; v++ {
			if rng.Intn(3) == 0 {
				assumptions = append(assumptions, MkLit(v, rng.Intn(2) == 0))
			}
		}
		s := newWithVars(nVars)
		okAll := true
		for _, c := range clauses {
			if !s.AddClause(c...) {
				okAll = false
			}
		}
		var got Status
		if okAll {
			got = s.Solve(assumptions...)
		} else {
			got = Unsat
		}
		want := bruteForce(nVars, clauses, assumptions)
		if (got == Sat) != want {
			t.Fatalf("iter %d: solver=%v bruteforce sat=%v (assumptions %v)",
				iter, got, want, assumptions)
		}
	}
}

// TestRepeatedSolveStable verifies repeated Solve calls with and without
// assumptions agree with each other.
func TestRepeatedSolveStable(t *testing.T) {
	s := pigeonhole(5, 5) // SAT
	for i := 0; i < 5; i++ {
		if got := s.Solve(); got != Sat {
			t.Fatalf("round %d: got %v, want sat", i, got)
		}
	}
}

// TestConflictBudget: MaxConflicts bounds conflicts, not restarts. The
// budget used to be compared only between restarts, so 1 and 10 stopped at
// 100 conflicts, 150 at 200 and 250 at 400.
func TestConflictBudget(t *testing.T) {
	var s *Solver
	for _, budget := range []int64{1, 10, 150, 250} {
		s = pigeonhole(9, 8)
		s.MaxConflicts = budget
		if got := s.Solve(); got != Unknown {
			t.Fatalf("budget %d: got %v, want unknown", budget, got)
		}
		if s.Stats.Conflicts != budget {
			t.Fatalf("budget %d: stopped after %d conflicts", budget, s.Stats.Conflicts)
		}
	}
	// An exhausted budget leaves the solver usable: remove it and finish.
	s.MaxConflicts = 0
	if got := s.Solve(); got != Unsat {
		t.Fatalf("unbudgeted: got %v, want unsat", got)
	}
}

func TestStatsAccumulate(t *testing.T) {
	s := pigeonhole(6, 5)
	if got := s.Solve(); got != Unsat {
		t.Fatalf("got %v", got)
	}
	if s.Stats.Conflicts == 0 || s.Stats.Decisions == 0 || s.Stats.Propagations == 0 {
		t.Fatalf("stats not collected: %+v", s.Stats)
	}
}

func TestLitHelpers(t *testing.T) {
	l := MkLit(5, false)
	if l.Var() != 5 || l.Sign() {
		t.Fatalf("MkLit(5,false) = %v", l)
	}
	n := l.Not()
	if n.Var() != 5 || !n.Sign() {
		t.Fatalf("Not: %v", n)
	}
	if n.Not() != l {
		t.Fatal("double negation")
	}
	if l.String() != "v5" || n.String() != "~v5" {
		t.Fatalf("String: %q %q", l.String(), n.String())
	}
}

func BenchmarkPigeonhole8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := pigeonhole(8, 7)
		if got := s.Solve(); got != Unsat {
			b.Fatalf("got %v", got)
		}
	}
}

func BenchmarkRandom3SAT50(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < b.N; i++ {
		nVars := 50
		s := newWithVars(nVars)
		for c := 0; c < 210; c++ {
			var lits []Lit
			for len(lits) < 3 {
				lits = append(lits, MkLit(rng.Intn(nVars), rng.Intn(2) == 0))
			}
			s.AddClause(lits...)
		}
		s.Solve()
	}
}

// TestAblationKnobsStillCorrect: disabling VSIDS / phase saving changes
// performance, never verdicts.
func TestAblationKnobsStillCorrect(t *testing.T) {
	for _, cfg := range []struct {
		name            string
		noVSIDS, noSave bool
	}{
		{"no-vsids", true, false},
		{"no-phase-saving", false, true},
		{"neither", true, true},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			s := pigeonhole(6, 5)
			s.noVSIDS = cfg.noVSIDS
			s.noPhaseSaving = cfg.noSave
			if got := s.Solve(); got != Unsat {
				t.Fatalf("PHP(6,5): got %v, want unsat", got)
			}
			s = pigeonhole(5, 5)
			s.noVSIDS = cfg.noVSIDS
			s.noPhaseSaving = cfg.noSave
			if got := s.Solve(); got != Sat {
				t.Fatalf("PHP(5,5): got %v, want sat", got)
			}
		})
	}
}

// BenchmarkAblationVSIDS quantifies the VSIDS design choice on a hard
// UNSAT instance.
func BenchmarkAblationVSIDS(b *testing.B) {
	for _, disable := range []bool{false, true} {
		name := "vsids"
		if disable {
			name = "lowest-index"
		}
		b.Run(name, func(b *testing.B) {
			var conflicts int64
			for i := 0; i < b.N; i++ {
				s := pigeonhole(8, 7)
				s.noVSIDS = disable
				if got := s.Solve(); got != Unsat {
					b.Fatalf("got %v", got)
				}
				conflicts = s.Stats.Conflicts
			}
			b.ReportMetric(float64(conflicts), "conflicts")
		})
	}
}
