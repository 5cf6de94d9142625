package sat

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"reflect"
	"testing"
)

// pair drives the arena solver and the reference solver through the same
// calls and requires the same observable state after each one.
type pair struct {
	t testing.TB
	s *Solver
	r *refSolver

	// Fingerprints of the search state at every Interrupt poll. Both
	// solvers poll at the same loop iterations, so equal sequences mean the
	// searches agreed all the way through, not just at the end.
	sPolls, rPolls []uint64
	// stopAt > 0 makes the stopAt-th poll of each Solve call interrupt it.
	stopAt int
}

func newPair(t testing.TB, nVars int) *pair {
	p := &pair{t: t, s: New(), r: newRef()}
	for i := 0; i < nVars; i++ {
		p.s.NewVar()
		p.r.NewVar()
	}
	p.s.Interrupt = func() bool {
		p.sPolls = append(p.sPolls, fingerprint(p.s.Stats, p.s.trail, len(p.s.learnts), func(i int) []Lit { return p.s.lits(p.s.learnts[i]) }))
		return len(p.sPolls) == p.stopAt
	}
	p.r.Interrupt = func() bool {
		p.rPolls = append(p.rPolls, fingerprint(p.r.Stats, p.r.trail, len(p.r.learnts), func(i int) []Lit { return p.r.learnts[i].lits }))
		return len(p.rPolls) == p.stopAt
	}
	return p
}

// canonical returns a learnt clause in comparable form: a binary clause's
// arena order is only defined while it is a reason or a conflict, so its
// two literals are compared as a set; longer clauses keep their order.
func canonical(lits []Lit) []Lit {
	if len(lits) == 2 && lits[0] > lits[1] {
		return []Lit{lits[1], lits[0]}
	}
	return lits
}

func fingerprint(st Stats, trail []Lit, nLearnts int, learnt func(int) []Lit) uint64 {
	h := fnv.New64a()
	fmt.Fprint(h, st, trail)
	for i := 0; i < nLearnts; i++ {
		fmt.Fprint(h, canonical(learnt(i)))
	}
	return h.Sum64()
}

func (p *pair) add(lits ...Lit) {
	p.t.Helper()
	if got, want := p.s.AddClause(lits...), p.r.AddClause(lits...); got != want {
		p.t.Fatalf("AddClause(%v) = %v, reference %v", lits, got, want)
	}
}

func (p *pair) addAll(clauses [][]Lit) {
	p.t.Helper()
	for _, c := range clauses {
		p.add(c...)
	}
}

// solve runs both solvers and compares everything a caller, or the next
// Solve call, could observe.
func (p *pair) solve(assumptions ...Lit) Status {
	p.t.Helper()
	p.sPolls, p.rPolls = p.sPolls[:0], p.rPolls[:0]
	got, want := p.s.Solve(assumptions...), p.r.Solve(assumptions...)
	if got != want {
		p.t.Fatalf("Solve(%v) = %v, reference %v", assumptions, got, want)
	}
	if p.s.Stats != p.r.Stats {
		p.t.Fatalf("Stats %+v, reference %+v", p.s.Stats, p.r.Stats)
	}
	if !reflect.DeepEqual(p.sPolls, p.rPolls) {
		p.t.Fatalf("search state diverged at an interrupt poll (%d polls, reference %d)", len(p.sPolls), len(p.rPolls))
	}
	if got == Sat && !reflect.DeepEqual(p.s.Model(), p.r.Model()) {
		p.t.Fatalf("model %v, reference %v", p.s.Model(), p.r.Model())
	}
	if p.s.ok != p.r.ok || p.s.NumClauses() != p.r.NumClauses() || p.s.qhead != p.r.qhead {
		p.t.Fatalf("ok/clauses/qhead %v/%d/%d, reference %v/%d/%d",
			p.s.ok, p.s.NumClauses(), p.s.qhead, p.r.ok, p.r.NumClauses(), p.r.qhead)
	}
	if !reflect.DeepEqual(p.s.trail, p.r.trail) {
		p.t.Fatalf("level-0 trail %v, reference %v", p.s.trail, p.r.trail)
	}
	// Bit-equal activities and phases mean the same variables were bumped
	// and unassigned in the same order.
	if !reflect.DeepEqual(p.s.activity, p.r.activity) || p.s.varInc != p.r.varInc || p.s.claInc != p.r.claInc {
		p.t.Fatal("variable activities differ from the reference")
	}
	if !reflect.DeepEqual(p.s.polarity, p.r.polarity) {
		p.t.Fatal("saved phases differ from the reference")
	}
	if len(p.s.learnts) != len(p.r.learnts) {
		p.t.Fatalf("%d learnt clauses, reference %d", len(p.s.learnts), len(p.r.learnts))
	}
	for i, c := range p.s.learnts {
		rc := p.r.learnts[i]
		if !reflect.DeepEqual(canonical(p.s.lits(c)), canonical(rc.lits)) || p.s.claAct[i] != rc.activity {
			p.t.Fatalf("learnt %d = %v (activity %g), reference %v (%g)", i, p.s.lits(c), p.s.claAct[i], rc.lits, rc.activity)
		}
	}
	p.checkInvariants()
	return got
}

// checkInvariants verifies the arena solver's own bookkeeping: every
// clause is watched by exactly its first two literals, binary watchers
// carry the other literal, learnts[i] owns activity slot i, every reason
// names a live clause that contains the implied literal, and live plus
// wasted words account for the whole arena.
func (p *pair) checkInvariants() {
	p.t.Helper()
	s := p.s
	watched := map[cref]int{}
	for l, ws := range s.watches {
		for _, w := range ws {
			watched[w.ref]++
			lits := s.lits(w.ref)
			if s.arena[w.ref+1] == deadAct {
				p.t.Fatalf("watches[%v] holds deleted clause %d", Lit(l), w.ref)
			}
			if lits[0] != Lit(l)^1 && lits[1] != Lit(l)^1 {
				p.t.Fatalf("watches[%v] holds clause %v, which does not watch it", Lit(l), lits)
			}
			switch {
			case len(lits) > 2 && w.other != litUndef:
				p.t.Fatalf("long clause %v has binary watcher %v", lits, w.other)
			case len(lits) == 2 && w.other != lits[0]^lits[1]^Lit(l)^1:
				p.t.Fatalf("binary clause %v watched on %v implies %v", lits, Lit(l), w.other)
			}
		}
	}
	live := 0
	for _, list := range [][]cref{s.clauses, s.learnts} {
		for _, c := range list {
			if watched[c] != 2 {
				p.t.Fatalf("clause %d %v has %d watchers", c, s.lits(c), watched[c])
			}
			live += hdr + len(s.lits(c))
		}
	}
	if len(watched) != len(s.clauses)+len(s.learnts) {
		p.t.Fatalf("%d watched clauses, %d stored", len(watched), len(s.clauses)+len(s.learnts))
	}
	if live+s.wasted != len(s.arena) {
		p.t.Fatalf("arena has %d words: %d live + %d wasted do not add up", len(s.arena), live, s.wasted)
	}
	for i, c := range s.learnts {
		if s.arena[c+1] != Lit(i) {
			p.t.Fatalf("learnts[%d] has activity slot %d", i, s.arena[c+1])
		}
	}
	for _, c := range s.clauses {
		if s.arena[c+1] != noAct {
			p.t.Fatalf("problem clause %d has activity slot %d", c, s.arena[c+1])
		}
	}
	for v, r := range s.reason {
		if r != crefUndef && (s.vals[2*v] == lUndef || s.arena[r+hdr].Var() != v) {
			p.t.Fatalf("variable %d has stale reason %d", v, r)
		}
	}
}

// random3SAT returns nClauses clauses of three distinct variables each.
func random3SAT(rng *rand.Rand, nVars, nClauses int) [][]Lit {
	clauses := make([][]Lit, nClauses)
	for i := range clauses {
		vs := rng.Perm(nVars)[:3]
		for _, v := range vs {
			clauses[i] = append(clauses[i], MkLit(v, rng.Intn(2) == 0))
		}
	}
	return clauses
}

func newPigeonPair(t testing.TB, pigeons, holes int) *pair {
	n, clauses := pigeonholeClauses(pigeons, holes)
	p := newPair(t, n)
	p.addAll(clauses)
	return p
}

// TestTrajectoryMatchesReference is the trajectory-identity contract: on
// every kind of call sequence the arena solver reaches the same status,
// model, Stats, activities and learnt clauses as the parent's solver, and
// passes through the same states on the way.
func TestTrajectoryMatchesReference(t *testing.T) {
	t.Run("random-3sat", func(t *testing.T) {
		rng := rand.New(rand.NewSource(42))
		statuses := map[Status]int{}
		for iter := 0; iter < 120; iter++ {
			nVars := 20 + rng.Intn(61)
			p := newPair(t, nVars)
			p.addAll(random3SAT(rng, nVars, int(4.26*float64(nVars))))
			statuses[p.solve()]++
		}
		if statuses[Sat] == 0 || statuses[Unsat] == 0 {
			t.Fatalf("one-sided instance mix: %v", statuses)
		}
	})

	t.Run("pigeonhole", func(t *testing.T) {
		for _, c := range []struct {
			pigeons, holes int
			want           Status
		}{{5, 5, Sat}, {7, 7, Sat}, {6, 5, Unsat}, {8, 7, Unsat}} {
			if got := newPigeonPair(t, c.pigeons, c.holes).solve(); got != c.want {
				t.Fatalf("PHP(%d,%d) = %v, want %v", c.pigeons, c.holes, got, c.want)
			}
		}
	})

	// Repeated Solve calls under changing assumptions on one solver pair,
	// with clauses added in between: learnt clauses, activities and phases
	// carry over, so every call starts from the previous call's end state.
	t.Run("assumptions-and-incremental", func(t *testing.T) {
		rng := rand.New(rand.NewSource(7))
		for iter := 0; iter < 40; iter++ {
			nVars := 30 + rng.Intn(31)
			p := newPair(t, nVars)
			p.addAll(random3SAT(rng, nVars, 4*nVars))
			for round := 0; round < 6; round++ {
				var assumptions []Lit
				for _, v := range rng.Perm(nVars)[:rng.Intn(6)] {
					assumptions = append(assumptions, MkLit(v, rng.Intn(2) == 0))
				}
				p.solve(assumptions...)
				p.addAll(random3SAT(rng, nVars, 3))
			}
			p.solve()
		}
	})

	// The reference compares its budget between restarts only, so budgets
	// on a restart boundary (100, 200, 400 cumulative conflicts) are the
	// ones both solvers honour alike; TestConflictBudget covers the rest.
	t.Run("budget", func(t *testing.T) {
		p := newPigeonPair(t, 9, 8)
		for _, budget := range []int64{100, 400, 200} {
			p.s.MaxConflicts, p.r.MaxConflicts = budget, budget
			if got := p.solve(); got != Unknown {
				t.Fatalf("budget %d: %v, want unknown", budget, got)
			}
		}
	})

	t.Run("interrupt-mid-search", func(t *testing.T) {
		p := newPigeonPair(t, 8, 7)
		p.stopAt = 3
		if got := p.solve(); got != Unknown {
			t.Fatalf("interrupted solve = %v, want unknown", got)
		}
		if p.s.Stats.Conflicts == 0 {
			t.Fatal("the interrupt fired before any search")
		}
		p.stopAt = 0
		if got := p.solve(); got != Unsat {
			t.Fatalf("resumed solve = %v, want unsat", got)
		}
	})

	// Long enough for several reduceDB rounds and at least one arena
	// compaction, after which the search must continue on relocated
	// references exactly as the reference continues on its pointers.
	t.Run("reducedb-and-compaction", func(t *testing.T) {
		p := newPigeonPair(t, 9, 8)
		var budget int64 // a restart boundary, as in the budget case
		for i := int64(0); budget < 6000; i++ {
			budget += 100 * luby(i)
		}
		p.s.MaxConflicts, p.r.MaxConflicts = budget, budget
		p.solve()
		if p.s.Stats.Removed == 0 {
			t.Fatal("reduceDB never removed a clause")
		}
		if cap(p.s.spare) == 0 {
			t.Fatal("the arena was never compacted")
		}
	})
}

// TestCompactRelocatesEverything compacts mid-search state directly: after
// deleting every other long learnt clause by hand the arena must shrink to
// exactly its live words with all references still valid.
func TestCompactRelocatesEverything(t *testing.T) {
	p := newPigeonPair(t, 8, 7)
	p.stopAt = 2
	p.solve()
	s := p.s
	before := append([]cref(nil), s.learnts...)
	var contents [][]Lit
	keep := s.learnts[:0]
	for i, c := range before {
		if i%2 == 0 && len(s.lits(c)) > 2 && !s.isReason(c) {
			s.detach(c)
			s.arena[c+1] = deadAct
			s.wasted += hdr + len(s.lits(c))
			continue
		}
		contents = append(contents, append([]Lit(nil), s.lits(c)...))
		s.claAct[len(keep)] = s.claAct[s.arena[c+1]]
		s.arena[c+1] = Lit(len(keep))
		keep = append(keep, c)
	}
	s.learnts = keep
	s.claAct = s.claAct[:len(keep)]
	if s.wasted == 0 {
		t.Fatal("nothing was deleted")
	}
	size := len(s.arena) - s.wasted
	s.compact()
	if len(s.arena) != size || s.wasted != 0 {
		t.Fatalf("compacted arena has %d words (%d wasted), want %d", len(s.arena), s.wasted, size)
	}
	for i, c := range s.learnts {
		if !reflect.DeepEqual(s.lits(c), contents[i]) {
			t.Fatalf("learnt %d = %v after compaction, was %v", i, s.lits(c), contents[i])
		}
	}
	p.checkInvariants()
	s.Interrupt = nil
	if got := s.Solve(); got != Unsat {
		t.Fatalf("solve after compaction = %v, want unsat", got)
	}
}

// cnfFromBytes decodes fuzz input: a variable count, assumptions, then
// clauses of one to five literals, duplicates and tautologies included.
func cnfFromBytes(data []byte) (nVars int, assumptions []Lit, clauses [][]Lit) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	nVars = 1 + next()%20
	lit := func() Lit { return Lit(next() % (2 * nVars)) }
	for n := next() % 4; n > 0; n-- {
		assumptions = append(assumptions, lit())
	}
	for len(data) > 0 {
		var c []Lit
		for n := 1 + next()%5; n > 0; n-- {
			c = append(c, lit())
		}
		clauses = append(clauses, c)
	}
	return nVars, assumptions, clauses
}

func satisfies(model []bool, c []Lit) bool {
	for _, l := range c {
		if model[l.Var()] != l.Sign() {
			return true
		}
	}
	return false
}

// FuzzSolverVsReference feeds arbitrary CNFs (with assumptions, then
// without) to both solvers, to brute force when the instance is small
// enough, and checks every model against every clause.
func FuzzSolverVsReference(f *testing.F) {
	f.Add([]byte{2, 0, 0, 0, 0, 1})                               // x ∧ ¬x
	f.Add([]byte{3, 1, 0, 1, 0, 2, 1, 1, 4, 1, 3, 5, 0, 2})       // assumption against a chain
	f.Add([]byte{1, 0, 1, 0, 1})                                  // tautology
	f.Add([]byte{4, 2, 1, 6, 2, 0, 2, 4, 2, 1, 3, 2, 5, 7, 0, 6}) // binary-heavy
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 4; i++ {
		seed := make([]byte, 120)
		rng.Read(seed)
		seed[0] = 11 // 12 variables
		for j := 2; j < len(seed); j += 4 {
			seed[j] = 2 // ternary clauses
		}
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		nVars, assumptions, clauses := cnfFromBytes(data)
		p := newPair(t, nVars)
		p.addAll(clauses)
		for _, as := range [][]Lit{assumptions, nil} {
			got := p.solve(as...)
			if nVars <= 14 {
				if want := bruteForce(nVars, clauses, as); (got == Sat) != want {
					t.Fatalf("Solve(%v) = %v, brute force sat=%v", as, got, want)
				}
			}
			if got != Sat {
				continue
			}
			for _, c := range clauses {
				if !satisfies(p.s.Model(), c) {
					t.Fatalf("model %v falsifies clause %v", p.s.Model(), c)
				}
			}
			for _, a := range as {
				if !p.s.ModelValue(a) {
					t.Fatalf("model %v falsifies assumption %v", p.s.Model(), a)
				}
			}
		}
	})
}
