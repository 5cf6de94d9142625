// Package sat implements a CDCL (conflict-driven clause learning) SAT
// solver in pure Go. It is the decision-procedure substrate for Druzhba's
// formal equivalence verifier (§7 of the paper proposes transforming the
// high-level specification and the pipeline description "into SMT formulas
// so that equivalence can be formally proven"; package bv bit-blasts those
// formulas down to CNF and this package decides them).
//
// The solver implements the standard modern toolkit: two-literal watched
// clause propagation, first-UIP conflict analysis with learned-clause
// minimization, VSIDS variable activity with phase saving, Luby restarts
// and activity-based learned-clause database reduction. Solving under
// assumptions is supported for incremental use.
//
// # Layout
//
// The search state holds no pointers, so the garbage collector has nothing
// to scan in it and assignments need no write barriers:
//
//   - Clauses live in one []Lit arena and are named by a cref, the index of
//     the clause's two-word header (size, then the learnt clause's slot in
//     claAct, or noAct for a problem clause) followed by its literals,
//     watched ones first. reason, clauses and learnts hold crefs.
//   - Assignments are indexed by literal (vals[l]; both polarities are
//     written on assign and unassign), so reading a literal's value is one
//     load.
//   - A watcher is the value {ref, other}. For a binary clause other is the
//     literal the clause implies once the watched one is false, so the
//     satisfied path never touches the arena (Tseitin gates make most of the
//     verifier's clauses binary or ternary); the arena order [implied, false]
//     is written only when the clause becomes a reason or a conflict, the
//     only times it is read.
//   - propagate compacts watches[p] in place: a literal that gains a watch is
//     never false, so nothing is appended to the list being walked.
//
// # Trajectory identity
//
// The layout is an implementation detail of a fixed search. The solver
// takes the same decisions, propagates in the same order, learns the same
// clauses (literal order included), restarts and deletes at the same points
// as the pointer-based solver it replaced, which is kept as the test-only
// oracle in reference_test.go; Stats, models and therefore every verifier
// report are byte-identical to it. A change to a heuristic, a constant or
// the order in which watchers or literals are visited breaks that contract
// and moves every golden that serializes Stats; it belongs in its own
// change, not in a layout change.
//
// # Arena compaction
//
// Deleting a learnt clause only marks its arena words dead. reduceDB
// compacts the arena (order-preserving, into a spare buffer that is kept
// for the next compaction, relocating watches, reason, clauses and learnts)
// once dead words outnumber live ones, so a long solve's footprint is
// bounded by twice its live clauses.
package sat

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Lit is a literal: variable index v (0-based) encoded as 2v for the
// positive literal and 2v+1 for the negated literal.
type Lit int32

// MkLit builds a literal from a variable index and a sign.
func MkLit(v int, neg bool) Lit {
	l := Lit(v << 1)
	if neg {
		l |= 1
	}
	return l
}

// Var returns the literal's variable index.
func (l Lit) Var() int { return int(l >> 1) }

// Sign reports whether the literal is negated.
func (l Lit) Sign() bool { return l&1 == 1 }

// Not returns the complementary literal.
func (l Lit) Not() Lit { return l ^ 1 }

// String renders the literal as v3 or ~v3.
func (l Lit) String() string {
	if l.Sign() {
		return fmt.Sprintf("~v%d", l.Var())
	}
	return fmt.Sprintf("v%d", l.Var())
}

// lbool is a three-valued assignment.
type lbool int8

const (
	lUndef lbool = iota
	lTrue
	lFalse
)

// Status is the result of a Solve call.
type Status int

const (
	// Unknown means the solver was interrupted (budget exhausted).
	Unknown Status = iota
	// Sat means a satisfying assignment was found; see Model.
	Sat
	// Unsat means the formula (under the given assumptions) is
	// unsatisfiable.
	Unsat
)

func (s Status) String() string {
	switch s {
	case Sat:
		return "sat"
	case Unsat:
		return "unsat"
	default:
		return "unknown"
	}
}

// cref names a clause: the arena index of its header. The header is
// arena[c] = number of literals and arena[c+1] = the clause's slot in
// claAct (noAct for a problem clause, deadAct once deleted); the literals
// follow at arena[c+hdr:], the two watched ones first.
type cref = int32

const (
	hdr = 2 // header words per clause

	crefUndef cref = -1

	noAct   Lit = -1 // header slot of a problem clause
	deadAct Lit = -2 // header slot of a deleted clause awaiting compaction

	litUndef Lit = -1
)

// watcher is one entry of a watch list. other is the second literal of a
// binary clause, litUndef for a longer clause.
type watcher struct {
	ref   cref
	other Lit
}

// Solver is a CDCL SAT solver; create one with New.
type Solver struct {
	arena  []Lit // every clause, header then literals
	spare  []Lit // the arena compaction copies into; swapped with arena
	wasted int   // arena words of deleted clauses

	clauses []cref // problem clauses
	learnts []cref // learned clauses; learnts[i] owns claAct[i]
	claAct  []float64
	actBuf  []float64 // reduceDB scratch; swapped with claAct

	watches [][]watcher // watches[lit] = clauses to visit when lit becomes true

	vals     []lbool // current value per literal
	level    []int32 // decision level per assigned variable
	reason   []cref  // implying clause per assigned variable, or crefUndef
	polarity []bool  // saved phase per variable

	trail    []Lit
	trailLim []int // trail index at each decision level
	qhead    int   // propagation queue head (index into trail)

	activity []float64
	varInc   float64
	order    varHeap

	claInc float64

	ok bool // false once a top-level conflict proves UNSAT

	// scratch buffers for analyze and AddClause
	seen      []bool
	toClear   []int
	learntBuf []Lit
	addBuf    []Lit

	// Stats counts solver work; useful for benchmarks and tuning.
	Stats Stats

	// MaxConflicts bounds total conflicts per Solve call; 0 means
	// unlimited. When exhausted Solve returns Unknown.
	MaxConflicts int64

	// Interrupt, when non-nil, is polled periodically during search; when
	// it returns true the current Solve call stops and returns Unknown.
	// This is how callers abandon a wedged proof on context cancellation
	// without leaking the solving goroutine. The solver stays usable (the
	// trail is unwound as usual), and a later Solve call simply resumes
	// from the learned clauses accumulated so far.
	Interrupt func() bool

	// Ablation switches, set only by the in-package benchmarks: branch on
	// the lowest unassigned variable instead of VSIDS order, and on the
	// positive literal instead of the saved phase.
	noVSIDS, noPhaseSaving bool

	model []bool
}

// Stats counts solver effort.
type Stats struct {
	Decisions    int64
	Propagations int64
	Conflicts    int64
	Restarts     int64
	Learned      int64
	Removed      int64
}

// New returns an empty solver.
func New() *Solver {
	s := &Solver{varInc: 1, claInc: 1, ok: true}
	s.order.act = &s.activity
	return s
}

// NumVars returns the number of variables created so far.
func (s *Solver) NumVars() int { return len(s.level) }

// NumClauses returns the number of problem clauses currently stored
// (tautologies and top-level-satisfied clauses are dropped on AddClause;
// learned clauses are not counted).
func (s *Solver) NumClauses() int { return len(s.clauses) }

// NewVar introduces a fresh variable and returns its index.
func (s *Solver) NewVar() int {
	v := len(s.level)
	s.vals = append(s.vals, lUndef, lUndef)
	s.level = append(s.level, 0)
	s.reason = append(s.reason, crefUndef)
	s.polarity = append(s.polarity, false)
	s.activity = append(s.activity, 0)
	s.seen = append(s.seen, false)
	s.watches = append(s.watches, nil, nil)
	s.order.push(v)
	return v
}

// lits returns clause c's literals, aliasing the arena.
func (s *Solver) lits(c cref) []Lit {
	return s.arena[c+hdr : c+hdr+cref(s.arena[c])]
}

// newClause appends a clause to the arena.
func (s *Solver) newClause(lits []Lit, act Lit) cref {
	if len(s.arena)+hdr+len(lits) > math.MaxInt32 {
		panic("sat: clause arena exceeds 2^31 words")
	}
	c := cref(len(s.arena))
	s.arena = append(s.arena, Lit(len(lits)), act)
	s.arena = append(s.arena, lits...)
	return c
}

// AddClause adds a clause. Returns false if the solver is already in an
// UNSAT state or the clause is trivially conflicting at the top level.
// Clauses may only be added at decision level 0 (i.e. between Solve calls).
func (s *Solver) AddClause(lits ...Lit) bool {
	if !s.ok {
		return false
	}
	if len(s.trailLim) != 0 {
		panic("sat: AddClause called during search")
	}
	// Sort and dedupe; detect tautologies and falsified literals.
	ls := append(s.addBuf[:0], lits...)
	s.addBuf = ls
	for i := 1; i < len(ls); i++ {
		l := ls[i]
		j := i
		for ; j > 0 && ls[j-1] > l; j-- {
			ls[j] = ls[j-1]
		}
		ls[j] = l
	}
	out := ls[:0]
	var prev Lit = -1
	for _, l := range ls {
		if l.Var() >= s.NumVars() {
			panic(fmt.Sprintf("sat: clause references unknown variable %d", l.Var()))
		}
		if l == prev {
			continue
		}
		if prev >= 0 && l == prev.Not() {
			return true // tautology: x ∨ ¬x
		}
		switch s.vals[l] {
		case lTrue:
			return true // already satisfied at top level
		case lFalse:
			continue // drop falsified literal
		}
		out = append(out, l)
		prev = l
	}
	switch len(out) {
	case 0:
		s.ok = false
		return false
	case 1:
		if !s.enqueue(out[0], crefUndef) {
			s.ok = false
			return false
		}
		if s.propagate() != crefUndef {
			s.ok = false
			return false
		}
		return true
	}
	c := s.newClause(out, noAct)
	s.clauses = append(s.clauses, c)
	s.watch(c)
	return true
}

// watch registers clause c under the negations of its first two literals:
// when a watched literal becomes false the clause is visited.
func (s *Solver) watch(c cref) {
	l0, l1 := s.arena[c+hdr], s.arena[c+hdr+1]
	w0, w1 := watcher{c, litUndef}, watcher{c, litUndef}
	if s.arena[c] == 2 {
		w0.other, w1.other = l1, l0
	}
	s.watches[l0^1] = append(s.watches[l0^1], w0)
	s.watches[l1^1] = append(s.watches[l1^1], w1)
}

// assign makes the unassigned literal l true at the current decision level.
func (s *Solver) assign(l Lit, from cref) {
	s.vals[l] = lTrue
	s.vals[l^1] = lFalse
	v := l >> 1
	s.level[v] = int32(len(s.trailLim))
	s.reason[v] = from
	s.trail = append(s.trail, l)
}

// enqueue assigns literal l with the given reason; returns false on
// conflict with the existing assignment.
func (s *Solver) enqueue(l Lit, from cref) bool {
	switch s.vals[l] {
	case lTrue:
		return true
	case lFalse:
		return false
	}
	s.assign(l, from)
	return true
}

// propagate performs unit propagation; returns the conflicting clause or
// crefUndef.
func (s *Solver) propagate() cref {
	// Nothing below creates a variable or a clause, so these three slice
	// headers are stable; the trail grows and is re-read through s.
	vals, arena, watches := s.vals, s.arena, s.watches
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead] // p is true
		s.qhead++
		s.Stats.Propagations++
		notP := p ^ 1
		ws := watches[p]
		confl := crefUndef
		i, j := 0, 0
	visit:
		for i < len(ws) {
			w := ws[i]
			i++
			ws[j] = w // kept unless the watch moves below
			j++
			var first Lit
			if w.other != litUndef {
				first = w.other
				if vals[first] == lTrue {
					continue
				}
				// Unit or conflicting: the clause is about to be read, so
				// give it the order every reader expects.
				arena[w.ref+hdr], arena[w.ref+hdr+1] = first, notP
			} else {
				lits := arena[w.ref+hdr : w.ref+hdr+cref(arena[w.ref])]
				// Ensure the false literal is lits[1].
				if lits[0] == notP {
					lits[0], lits[1] = lits[1], notP
				}
				first = lits[0]
				// If lits[0] is true the clause is satisfied.
				if vals[first] == lTrue {
					continue
				}
				// Look for a new literal to watch.
				for k := 2; k < len(lits); k++ {
					if l := lits[k]; vals[l] != lFalse {
						lits[1], lits[k] = l, notP
						watches[l^1] = append(watches[l^1], w)
						j--
						continue visit
					}
				}
			}
			// Clause is unit or conflicting.
			if vals[first] == lFalse {
				confl = w.ref
				s.qhead = len(s.trail)
				j += copy(ws[j:], ws[i:])
				break
			}
			s.assign(first, w.ref)
		}
		if j != len(ws) {
			watches[p] = ws[:j]
		}
		if confl != crefUndef {
			return confl
		}
	}
	return crefUndef
}

// decisionLevel returns the current decision level.
func (s *Solver) decisionLevel() int { return len(s.trailLim) }

// newDecisionLevel opens a new decision level.
func (s *Solver) newDecisionLevel() { s.trailLim = append(s.trailLim, len(s.trail)) }

// cancelUntil backtracks to the given decision level.
func (s *Solver) cancelUntil(lvl int) {
	if s.decisionLevel() <= lvl {
		return
	}
	for i := len(s.trail) - 1; i >= s.trailLim[lvl]; i-- {
		l := s.trail[i]
		v := l.Var()
		s.polarity[v] = !l.Sign()
		s.vals[l] = lUndef
		s.vals[l^1] = lUndef
		s.reason[v] = crefUndef
		s.order.pushIfAbsent(v)
	}
	s.trail = s.trail[:s.trailLim[lvl]]
	s.trailLim = s.trailLim[:lvl]
	s.qhead = len(s.trail)
}

// analyze performs first-UIP conflict analysis. It fills s.learntBuf with
// the learned clause (asserting literal first) and returns the backtrack
// level.
func (s *Solver) analyze(confl cref) int {
	s.learntBuf = s.learntBuf[:0]
	s.learntBuf = append(s.learntBuf, 0) // placeholder for the asserting literal
	pathC := 0
	var p Lit = -1
	idx := len(s.trail) - 1

	for {
		s.bumpClause(confl)
		for _, q := range s.lits(confl) {
			if p >= 0 && q == p {
				continue
			}
			v := q.Var()
			if s.seen[v] || s.level[v] == 0 {
				continue
			}
			s.seen[v] = true
			s.toClear = append(s.toClear, v)
			s.bumpVar(v)
			if int(s.level[v]) >= s.decisionLevel() {
				pathC++
			} else {
				s.learntBuf = append(s.learntBuf, q)
			}
		}
		// Select next literal on the trail that is marked.
		for !s.seen[s.trail[idx].Var()] {
			idx--
		}
		p = s.trail[idx]
		idx--
		v := p.Var()
		s.seen[v] = false
		confl = s.reason[v]
		pathC--
		if pathC == 0 {
			break
		}
	}
	s.learntBuf[0] = p.Not()

	// Minimize: drop literals implied by the rest of the clause (local
	// minimization: a literal whose reason's other literals are all marked
	// is redundant).
	out := s.learntBuf[:1]
	for i := 1; i < len(s.learntBuf); i++ {
		l := s.learntBuf[i]
		r := s.reason[l.Var()]
		if r == crefUndef {
			out = append(out, l)
			continue
		}
		redundant := true
		for _, q := range s.lits(r) {
			if q.Var() == l.Var() {
				continue
			}
			if !s.seen[q.Var()] && s.level[q.Var()] != 0 {
				redundant = false
				break
			}
		}
		if !redundant {
			out = append(out, l)
		}
	}
	s.learntBuf = out

	for _, v := range s.toClear {
		s.seen[v] = false
	}
	s.toClear = s.toClear[:0]

	// Backtrack level: second-highest level in the learned clause.
	if len(s.learntBuf) == 1 {
		return 0
	}
	maxI := 1
	for i := 2; i < len(s.learntBuf); i++ {
		if s.level[s.learntBuf[i].Var()] > s.level[s.learntBuf[maxI].Var()] {
			maxI = i
		}
	}
	s.learntBuf[1], s.learntBuf[maxI] = s.learntBuf[maxI], s.learntBuf[1]
	return int(s.level[s.learntBuf[1].Var()])
}

func (s *Solver) bumpVar(v int) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	s.order.update(v)
}

func (s *Solver) bumpClause(c cref) {
	a := s.arena[c+1]
	if a == noAct {
		return
	}
	s.claAct[a] += s.claInc
	if s.claAct[a] > 1e20 {
		for i := range s.claAct {
			s.claAct[i] *= 1e-20
		}
		s.claInc *= 1e-20
	}
}

const (
	varDecay = 1 / 0.95
	claDecay = 1 / 0.999
)

// reduceDB removes the less active half of the learned clauses (keeping
// binary clauses and clauses that are currently reasons), then compacts the
// arena if more of it is dead than alive.
func (s *Solver) reduceDB() {
	// sort.Slice, not a hand-written sort: the permutation it leaves among
	// equal activities decides which clauses survive.
	sort.Slice(s.learnts, func(i, j int) bool {
		return s.claAct[s.arena[s.learnts[i]+1]] > s.claAct[s.arena[s.learnts[j]+1]]
	})
	keep := s.learnts[:0]
	act := s.actBuf[:0]
	limit := len(s.learnts) / 2
	for i, c := range s.learnts {
		if s.arena[c] <= 2 || s.isReason(c) || i < limit {
			act = append(act, s.claAct[s.arena[c+1]])
			s.arena[c+1] = Lit(len(keep))
			keep = append(keep, c)
			continue
		}
		s.detach(c)
		s.arena[c+1] = deadAct
		s.wasted += hdr + int(s.arena[c])
		s.Stats.Removed++
	}
	s.learnts = keep
	s.claAct, s.actBuf = act, s.claAct
	if 2*s.wasted > len(s.arena) {
		s.compact()
	}
}

func (s *Solver) isReason(c cref) bool {
	l := s.arena[c+hdr]
	return s.vals[l] != lUndef && s.reason[l.Var()] == c
}

func (s *Solver) detach(c cref) {
	for _, w := range [2]Lit{s.arena[c+hdr] ^ 1, s.arena[c+hdr+1] ^ 1} {
		ws := s.watches[w]
		for i := range ws {
			if ws[i].ref == c {
				ws[i] = ws[len(ws)-1]
				s.watches[w] = ws[:len(ws)-1]
				break
			}
		}
	}
}

// compact copies the live clauses, in order, into the spare buffer and
// rewrites every cref. The old arena's activity slots serve as forwarding
// addresses while references are relocated.
func (s *Solver) compact() {
	old, to := s.arena, s.spare[:0]
	for c := 0; c < len(old); {
		n := hdr + int(old[c])
		if old[c+1] != deadAct {
			moved := Lit(len(to))
			to = append(to, old[c:c+n]...)
			old[c+1] = moved
		}
		c += n
	}
	for _, ws := range s.watches {
		for i := range ws {
			ws[i].ref = cref(old[ws[i].ref+1])
		}
	}
	for _, l := range s.trail {
		if r := s.reason[l.Var()]; r != crefUndef {
			s.reason[l.Var()] = cref(old[r+1])
		}
	}
	for i, c := range s.clauses {
		s.clauses[i] = cref(old[c+1])
	}
	for i, c := range s.learnts {
		s.learnts[i] = cref(old[c+1])
	}
	s.arena, s.spare = to, old[:0]
	s.wasted = 0
}

// luby computes the Luby restart sequence (1,1,2,1,1,2,4,...), the
// standard universal restart schedule.
func luby(x int64) int64 {
	size, seq := int64(1), 0
	for size < x+1 {
		seq++
		size = 2*size + 1
	}
	for size-1 != x {
		size = (size - 1) >> 1
		seq--
		x %= size
	}
	return 1 << uint(seq)
}

// Solve decides satisfiability under the given assumptions. On Sat, Model
// returns the satisfying assignment. On Unsat under non-empty assumptions,
// the conflict involves at least one assumption.
func (s *Solver) Solve(assumptions ...Lit) Status {
	if !s.ok {
		return Unsat
	}
	defer s.cancelUntil(0)

	restart := int64(0)
	var conflictsTotal int64
	maxLearnts := len(s.clauses)/3 + 100

	for {
		limit := 100 * luby(restart)
		if left := s.MaxConflicts - conflictsTotal; s.MaxConflicts > 0 && left < limit {
			limit = left // the budget bounds conflicts, not restarts
		}
		restart++
		s.Stats.Restarts++
		st, conflicts := s.search(assumptions, limit, maxLearnts)
		conflictsTotal += conflicts
		if st != Unknown {
			return st
		}
		if s.Interrupt != nil && s.Interrupt() {
			return Unknown
		}
		if s.MaxConflicts > 0 && conflictsTotal >= s.MaxConflicts {
			return Unknown
		}
		maxLearnts += maxLearnts / 10
		s.cancelUntil(0)
	}
}

// search runs CDCL until a result, a restart limit, a conflict budget, or
// an interrupt.
func (s *Solver) search(assumptions []Lit, conflictLimit int64, maxLearnts int) (Status, int64) {
	var conflicts, iters int64
	for {
		// Poll the interrupt hook on a stride so its cost (typically a
		// ctx.Err() call behind a mutex) stays off the hot path.
		iters++
		if s.Interrupt != nil && iters&1023 == 0 && s.Interrupt() {
			return Unknown, conflicts
		}
		confl := s.propagate()
		if confl != crefUndef {
			conflicts++
			s.Stats.Conflicts++
			if s.decisionLevel() == 0 {
				s.ok = false
				return Unsat, conflicts
			}
			// A conflict while only assumptions have been decided means the
			// formula is unsatisfiable under the assumptions.
			if s.decisionLevel() <= len(assumptions) {
				return Unsat, conflicts
			}
			// Backtracking may go below the assumption levels (e.g. learned
			// units assert at level 0); the decision loop re-extends the
			// assumptions afterwards.
			btLevel := s.analyze(confl)
			s.cancelUntil(btLevel)
			s.learnFromBuf()
			s.varInc *= varDecay
			s.claInc *= claDecay
			if conflicts >= conflictLimit {
				return Unknown, conflicts
			}
			if len(s.learnts) > maxLearnts+len(s.trail) {
				s.reduceDB()
			}
			continue
		}
		// Extend assumptions first.
		if s.decisionLevel() < len(assumptions) {
			a := assumptions[s.decisionLevel()]
			switch s.vals[a] {
			case lTrue:
				s.newDecisionLevel() // dummy level to keep indices aligned
				continue
			case lFalse:
				return Unsat, conflicts
			}
			s.Stats.Decisions++
			s.newDecisionLevel()
			s.assign(a, crefUndef)
			continue
		}
		// Pick a branching variable.
		v := s.pickBranchVar()
		if v < 0 {
			s.saveModel()
			return Sat, conflicts
		}
		s.Stats.Decisions++
		s.newDecisionLevel()
		phase := s.polarity[v]
		if s.noPhaseSaving {
			phase = true
		}
		s.assign(MkLit(v, !phase), crefUndef)
	}
}

// learnFromBuf installs the clause in s.learntBuf and asserts its first
// literal.
func (s *Solver) learnFromBuf() {
	s.Stats.Learned++
	if len(s.learntBuf) == 1 {
		s.enqueue(s.learntBuf[0], crefUndef)
		return
	}
	c := s.newClause(s.learntBuf, Lit(len(s.claAct)))
	s.claAct = append(s.claAct, s.claInc)
	s.learnts = append(s.learnts, c)
	s.watch(c)
	s.enqueue(s.learntBuf[0], c)
}

func (s *Solver) pickBranchVar() int {
	if s.noVSIDS {
		for v := 0; v < s.NumVars(); v++ {
			if s.vals[2*v] == lUndef {
				return v
			}
		}
		return -1
	}
	for {
		v, ok := s.order.pop()
		if !ok {
			return -1
		}
		if s.vals[2*v] == lUndef {
			return v
		}
	}
}

func (s *Solver) saveModel() {
	if cap(s.model) < s.NumVars() {
		s.model = make([]bool, s.NumVars())
	}
	s.model = s.model[:s.NumVars()]
	for v := range s.model {
		s.model[v] = s.vals[2*v] == lTrue // unassigned -> false
	}
}

// Model returns the last satisfying assignment found by Solve. The result
// aliases internal storage and is valid until the next Solve call.
func (s *Solver) Model() []bool { return s.model }

// ModelValue reports the value of a literal in the model.
func (s *Solver) ModelValue(l Lit) bool {
	v := s.model[l.Var()]
	if l.Sign() {
		return !v
	}
	return v
}

// ErrUnsat is returned by helpers that require a satisfiable instance.
var ErrUnsat = errors.New("sat: unsatisfiable")

// --- VSIDS order heap -------------------------------------------------------

// varHeap is a max-heap over variable activity.
type varHeap struct {
	heap []int // heap of variables
	pos  []int // pos[v] = index in heap, -1 if absent
	act  *[]float64
}

func (h *varHeap) less(i, j int) bool {
	return (*h.act)[h.heap[i]] > (*h.act)[h.heap[j]]
}

func (h *varHeap) swap(i, j int) {
	h.heap[i], h.heap[j] = h.heap[j], h.heap[i]
	h.pos[h.heap[i]] = i
	h.pos[h.heap[j]] = j
}

func (h *varHeap) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(i, p) {
			break
		}
		h.swap(i, p)
		i = p
	}
}

func (h *varHeap) down(i int) {
	n := len(h.heap)
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && h.less(l, m) {
			m = l
		}
		if r < n && h.less(r, m) {
			m = r
		}
		if m == i {
			return
		}
		h.swap(i, m)
		i = m
	}
}

func (h *varHeap) push(v int) {
	for len(h.pos) <= v {
		h.pos = append(h.pos, -1)
	}
	if h.pos[v] >= 0 {
		return
	}
	h.heap = append(h.heap, v)
	h.pos[v] = len(h.heap) - 1
	h.up(len(h.heap) - 1)
}

func (h *varHeap) pushIfAbsent(v int) { h.push(v) }

func (h *varHeap) pop() (int, bool) {
	if len(h.heap) == 0 {
		return 0, false
	}
	v := h.heap[0]
	last := len(h.heap) - 1
	h.swap(0, last)
	h.heap = h.heap[:last]
	h.pos[v] = -1
	if last > 0 {
		h.down(0)
	}
	return v, true
}

func (h *varHeap) update(v int) {
	if v < len(h.pos) && h.pos[v] >= 0 {
		h.up(h.pos[v])
	}
}
