package sat

// The parent commit's solver, kept verbatim (identifiers prefixed ref, the
// shared Lit/lbool/Status/Stats declarations not repeated) as the oracle the
// arena solver is pinned to: TestTrajectoryMatchesReference and
// FuzzSolverVsReference require the same status, model, Stats and learnt
// clauses from both. It deliberately keeps the parent's behaviours the
// production solver dropped: a fresh watch list per propagation, eager
// binary-clause swaps, and a conflict budget that is only compared between
// restarts (the differential tests therefore use budgets that fall on
// restart boundaries).

import (
	"fmt"
	"sort"
)

// refClause is a disjunction of literals. Watched literals are lits[0] and
// lits[1].
type refClause struct {
	lits     []Lit
	learnt   bool
	activity float64
}

// refSolver is a CDCL SAT solver. The zero value is ready to use.
type refSolver struct {
	clauses []*refClause // problem clauses
	learnts []*refClause // learned clauses

	watches [][]*refClause // watches[lit] = clauses watching lit

	assigns  []lbool // current assignment per variable
	level    []int32 // decision level per assigned variable
	reason   []*refClause
	polarity []bool // saved phase per variable

	trail    []Lit
	trailLim []int // trail index at each decision level
	qhead    int   // propagation queue head (index into trail)

	activity []float64
	varInc   float64
	order    refVarHeap

	claInc float64

	ok bool // false once a top-level conflict proves UNSAT

	// scratch buffers for analyze
	seen      []bool
	toClear   []int
	learntBuf []Lit

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

	// DisableVSIDS switches branching from activity order to lowest
	// variable index (ablation knob; see BenchmarkAblation*).
	DisableVSIDS bool

	// DisablePhaseSaving branches on the positive literal instead of the
	// saved phase (ablation knob).
	DisablePhaseSaving bool

	model []bool
}

// New returns an empty solver.
func newRef() *refSolver {
	s := &refSolver{varInc: 1, claInc: 1, ok: true}
	s.order.act = &s.activity
	return s
}

// NumVars returns the number of variables created so far.
func (s *refSolver) NumVars() int { return len(s.assigns) }

// NumClauses returns the number of problem clauses currently stored
// (tautologies and top-level-satisfied clauses are dropped on AddClause;
// learned clauses are not counted).
func (s *refSolver) NumClauses() int { return len(s.clauses) }

// NewVar introduces a fresh variable and returns its index.
func (s *refSolver) NewVar() int {
	v := len(s.assigns)
	s.assigns = append(s.assigns, lUndef)
	s.level = append(s.level, 0)
	s.reason = append(s.reason, nil)
	s.polarity = append(s.polarity, false)
	s.activity = append(s.activity, 0)
	s.seen = append(s.seen, false)
	s.watches = append(s.watches, nil, nil)
	s.order.push(v)
	return v
}

func (s *refSolver) value(l Lit) lbool {
	a := s.assigns[l.Var()]
	if a == lUndef {
		return lUndef
	}
	if l.Sign() {
		if a == lTrue {
			return lFalse
		}
		return lTrue
	}
	return a
}

// AddClause adds a clause. Returns false if the solver is already in an
// UNSAT state or the clause is trivially conflicting at the top level.
// Clauses may only be added at decision level 0 (i.e. between Solve calls).
func (s *refSolver) AddClause(lits ...Lit) bool {
	if !s.ok {
		return false
	}
	if len(s.trailLim) != 0 {
		panic("sat: AddClause called during search")
	}
	// Sort and dedupe; detect tautologies and falsified literals.
	ls := append([]Lit(nil), lits...)
	sort.Slice(ls, func(i, j int) bool { return ls[i] < ls[j] })
	out := ls[:0]
	var prev Lit = -1
	for _, l := range ls {
		if int(l.Var()) >= s.NumVars() {
			panic(fmt.Sprintf("sat: refClause references unknown variable %d", l.Var()))
		}
		if l == prev {
			continue
		}
		if prev >= 0 && l == prev.Not() {
			return true // tautology: x ∨ ¬x
		}
		switch s.value(l) {
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
		if !s.enqueue(out[0], nil) {
			s.ok = false
			return false
		}
		if s.propagate() != nil {
			s.ok = false
			return false
		}
		return true
	}
	c := &refClause{lits: append([]Lit(nil), out...)}
	s.clauses = append(s.clauses, c)
	s.watch(c)
	return true
}

func (s *refSolver) watch(c *refClause) {
	// Watch the negations: when a watched literal becomes false we visit
	// the clause.
	s.watches[c.lits[0].Not()] = append(s.watches[c.lits[0].Not()], c)
	s.watches[c.lits[1].Not()] = append(s.watches[c.lits[1].Not()], c)
}

// enqueue assigns literal l with the given reason; returns false on
// conflict with the existing assignment.
func (s *refSolver) enqueue(l Lit, from *refClause) bool {
	switch s.value(l) {
	case lTrue:
		return true
	case lFalse:
		return false
	}
	v := l.Var()
	s.assigns[v] = boolToLbool(!l.Sign())
	s.level[v] = int32(len(s.trailLim))
	s.reason[v] = from
	s.trail = append(s.trail, l)
	return true
}

// propagate performs unit propagation; returns the conflicting clause or
// nil.
func (s *refSolver) propagate() *refClause {
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead] // p is true
		s.qhead++
		s.Stats.Propagations++
		ws := s.watches[p]
		s.watches[p] = nil
		kept := ws[:0]
		for i := 0; i < len(ws); i++ {
			c := ws[i]
			// Ensure the false literal is lits[1].
			if c.lits[0].Not() == p {
				c.lits[0], c.lits[1] = c.lits[1], c.lits[0]
			}
			// If lits[0] is true the clause is satisfied.
			if s.value(c.lits[0]) == lTrue {
				kept = append(kept, c)
				continue
			}
			// Look for a new literal to watch.
			found := false
			for k := 2; k < len(c.lits); k++ {
				if s.value(c.lits[k]) != lFalse {
					c.lits[1], c.lits[k] = c.lits[k], c.lits[1]
					s.watches[c.lits[1].Not()] = append(s.watches[c.lits[1].Not()], c)
					found = true
					break
				}
			}
			if found {
				continue
			}
			// Clause is unit or conflicting.
			kept = append(kept, c)
			if !s.enqueue(c.lits[0], c) {
				// Conflict: restore remaining watches and report.
				kept = append(kept, ws[i+1:]...)
				s.watches[p] = append(s.watches[p], kept...)
				s.qhead = len(s.trail)
				return c
			}
		}
		s.watches[p] = append(s.watches[p], kept...)
	}
	return nil
}

// decisionLevel returns the current decision level.
func (s *refSolver) decisionLevel() int { return len(s.trailLim) }

// newDecisionLevel opens a new decision level.
func (s *refSolver) newDecisionLevel() { s.trailLim = append(s.trailLim, len(s.trail)) }

// cancelUntil backtracks to the given decision level.
func (s *refSolver) cancelUntil(lvl int) {
	if s.decisionLevel() <= lvl {
		return
	}
	for i := len(s.trail) - 1; i >= s.trailLim[lvl]; i-- {
		v := s.trail[i].Var()
		s.polarity[v] = s.assigns[v] == lTrue
		s.assigns[v] = lUndef
		s.reason[v] = nil
		s.order.pushIfAbsent(v)
	}
	s.trail = s.trail[:s.trailLim[lvl]]
	s.trailLim = s.trailLim[:lvl]
	s.qhead = len(s.trail)
}

// analyze performs first-UIP conflict analysis. It fills s.learntBuf with
// the learned clause (asserting literal first) and returns the backtrack
// level.
func (s *refSolver) analyze(confl *refClause) int {
	s.learntBuf = s.learntBuf[:0]
	s.learntBuf = append(s.learntBuf, 0) // placeholder for the asserting literal
	pathC := 0
	var p Lit = -1
	idx := len(s.trail) - 1

	for {
		s.bumpClause(confl)
		for j := 0; j < len(confl.lits); j++ {
			q := confl.lits[j]
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
		if r == nil {
			out = append(out, l)
			continue
		}
		redundant := true
		for _, q := range r.lits {
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

func (s *refSolver) bumpVar(v int) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	s.order.update(v)
}

func (s *refSolver) bumpClause(c *refClause) {
	if !c.learnt {
		return
	}
	c.activity += s.claInc
	if c.activity > 1e20 {
		for _, lc := range s.learnts {
			lc.activity *= 1e-20
		}
		s.claInc *= 1e-20
	}
}

const (
	refVarDecay = 1 / 0.95
	refClaDecay = 1 / 0.999
)

// reduceDB removes the less active half of the learned clauses (keeping
// binary clauses and clauses that are currently reasons).
func (s *refSolver) reduceDB() {
	sort.Slice(s.learnts, func(i, j int) bool {
		return s.learnts[i].activity > s.learnts[j].activity
	})
	keep := s.learnts[:0]
	limit := len(s.learnts) / 2
	for i, c := range s.learnts {
		if len(c.lits) <= 2 || s.isReason(c) || i < limit {
			keep = append(keep, c)
			continue
		}
		s.detach(c)
		s.Stats.Removed++
	}
	s.learnts = keep
}

func (s *refSolver) isReason(c *refClause) bool {
	v := c.lits[0].Var()
	return s.assigns[v] != lUndef && s.reason[v] == c
}

func (s *refSolver) detach(c *refClause) {
	for _, w := range []Lit{c.lits[0].Not(), c.lits[1].Not()} {
		ws := s.watches[w]
		for i, cc := range ws {
			if cc == c {
				ws[i] = ws[len(ws)-1]
				s.watches[w] = ws[:len(ws)-1]
				break
			}
		}
	}
}

// luby computes the Luby restart sequence (1,1,2,1,1,2,4,...), the
// standard universal restart schedule.
func refLuby(x int64) int64 {
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
func (s *refSolver) Solve(assumptions ...Lit) Status {
	if !s.ok {
		return Unsat
	}
	defer s.cancelUntil(0)

	restart := int64(0)
	conflictBudget := s.MaxConflicts
	var conflictsTotal int64
	maxLearnts := len(s.clauses)/3 + 100

	for {
		limit := 100 * refLuby(restart)
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
		if conflictBudget > 0 && conflictsTotal >= conflictBudget {
			return Unknown
		}
		maxLearnts += maxLearnts / 10
		s.cancelUntil(0)
	}
}

// search runs CDCL until a result, a restart limit, a conflict budget, or
// an interrupt.
func (s *refSolver) search(assumptions []Lit, conflictLimit int64, maxLearnts int) (Status, int64) {
	var conflicts, iters int64
	for {
		// Poll the interrupt hook on a stride so its cost (typically a
		// ctx.Err() call behind a mutex) stays off the hot path.
		iters++
		if s.Interrupt != nil && iters&1023 == 0 && s.Interrupt() {
			return Unknown, conflicts
		}
		confl := s.propagate()
		if confl != nil {
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
			s.varInc *= refVarDecay
			s.claInc *= refClaDecay
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
			switch s.value(a) {
			case lTrue:
				s.newDecisionLevel() // dummy level to keep indices aligned
				continue
			case lFalse:
				return Unsat, conflicts
			}
			s.Stats.Decisions++
			s.newDecisionLevel()
			s.enqueue(a, nil)
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
		if s.DisablePhaseSaving {
			phase = true
		}
		s.enqueue(MkLit(v, !phase), nil)
	}
}

// learnFromBuf installs the clause in s.learntBuf and asserts its first
// literal.
func (s *refSolver) learnFromBuf() {
	s.Stats.Learned++
	if len(s.learntBuf) == 1 {
		s.enqueue(s.learntBuf[0], nil)
		return
	}
	c := &refClause{lits: append([]Lit(nil), s.learntBuf...), learnt: true, activity: s.claInc}
	s.learnts = append(s.learnts, c)
	s.watch(c)
	s.enqueue(c.lits[0], c)
}

func (s *refSolver) pickBranchVar() int {
	if s.DisableVSIDS {
		for v := 0; v < s.NumVars(); v++ {
			if s.assigns[v] == lUndef {
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
		if s.assigns[v] == lUndef {
			return v
		}
	}
}

func (s *refSolver) saveModel() {
	if cap(s.model) < s.NumVars() {
		s.model = make([]bool, s.NumVars())
	}
	s.model = s.model[:s.NumVars()]
	for v := 0; v < s.NumVars(); v++ {
		s.model[v] = s.assigns[v] == lTrue // unassigned -> false
	}
}

// Model returns the last satisfying assignment found by Solve. The result
// aliases internal storage and is valid until the next Solve call.
func (s *refSolver) Model() []bool { return s.model }

// ModelValue reports the value of a literal in the model.
func (s *refSolver) ModelValue(l Lit) bool {
	v := s.model[l.Var()]
	if l.Sign() {
		return !v
	}
	return v
}

// --- VSIDS order heap -------------------------------------------------------

// refVarHeap is a max-heap over variable activity.
type refVarHeap struct {
	heap []int // heap of variables
	pos  []int // pos[v] = index in heap, -1 if absent
	act  *[]float64
}

func (h *refVarHeap) less(i, j int) bool {
	return (*h.act)[h.heap[i]] > (*h.act)[h.heap[j]]
}

func (h *refVarHeap) swap(i, j int) {
	h.heap[i], h.heap[j] = h.heap[j], h.heap[i]
	h.pos[h.heap[i]] = i
	h.pos[h.heap[j]] = j
}

func (h *refVarHeap) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(i, p) {
			break
		}
		h.swap(i, p)
		i = p
	}
}

func (h *refVarHeap) down(i int) {
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

func (h *refVarHeap) push(v int) {
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

func (h *refVarHeap) pushIfAbsent(v int) { h.push(v) }

func (h *refVarHeap) pop() (int, bool) {
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

func (h *refVarHeap) update(v int) {
	if v < len(h.pos) && h.pos[v] >= 0 {
		h.up(h.pos[v])
	}
}

func boolToLbool(b bool) lbool {
	if b {
		return lTrue
	}
	return lFalse
}
