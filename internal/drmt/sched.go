// Package drmt models the dRMT (disaggregated RMT) architecture of §4 of
// the paper: a set of match+action processors running the packet program to
// completion, with centralized table memory reached through a crossbar, a
// scheduler that assigns each table's match and action operations to cycles,
// and a round-robin traffic generator. (TrafficGen is phv.TrafficGen, the
// generator both machine models share, with one column per program field at
// the field's declared width; a max beyond a field's width is clamped to it.)
//
// The paper formulates scheduling as an ILP (NP-hard) and ships the DAG to
// the dRMT scheduler of Chole et al.; offline, this package substitutes a
// greedy list scheduler plus an exact branch-and-bound for small DAGs. Both
// honour the dRMT constraints: match-to-action latency, inter-table
// dependency latencies, and per-cycle match/action capacity under a
// fixed-throughput repeating schedule.
package drmt

import (
	"fmt"
	"sort"

	"druzhba/internal/dag"
)

// HWConfig carries the hardware parameters handed to the scheduler
// ("additional information about the hardware constraints ... such as the
// number of ticks per action unit and the number of ticks per match").
type HWConfig struct {
	Processors     int // number of match+action processors (P)
	DeltaMatch     int // cycles from match issue to result (Δ_M)
	DeltaAction    int // cycles from action issue to result (Δ_A)
	MatchCapacity  int // match issues per processor per cycle (M)
	ActionCapacity int // action issues per processor per cycle (A)
}

// Defaults fills zero fields with the dRMT paper's canonical parameters.
func (h HWConfig) Defaults() HWConfig {
	if h.Processors <= 0 {
		h.Processors = 4
	}
	if h.DeltaMatch <= 0 {
		h.DeltaMatch = 18
	}
	if h.DeltaAction <= 0 {
		h.DeltaAction = 2
	}
	if h.MatchCapacity <= 0 {
		h.MatchCapacity = 8
	}
	if h.ActionCapacity <= 0 {
		h.ActionCapacity = 32
	}
	return h
}

// TableCost is the per-table resource demand: how many match units a lookup
// consumes and how many action units its widest action consumes.
type TableCost struct {
	Matches int
	Actions int
}

// Schedule fixes the cycle (relative to packet arrival at a processor) at
// which each table's match and action issue. Because a processor receives a
// new packet every Processors cycles, the schedule repeats with that period
// and capacity is checked modulo it.
type Schedule struct {
	MatchStart  map[string]int
	ActionStart map[string]int
	Makespan    int // cycles from packet arrival to completion
}

// Validate checks the schedule against dependency and capacity constraints.
func (s *Schedule) Validate(g *dag.Graph, costs map[string]TableCost, hw HWConfig) error {
	hw = hw.Defaults()
	period := hw.Processors
	matchUse := make([]int, period)
	actionUse := make([]int, period)
	for _, n := range g.Nodes() {
		ms, ok := s.MatchStart[n]
		if !ok {
			return fmt.Errorf("drmt: table %q has no match slot", n)
		}
		as, ok := s.ActionStart[n]
		if !ok {
			return fmt.Errorf("drmt: table %q has no action slot", n)
		}
		if as < ms+hw.DeltaMatch {
			return fmt.Errorf("drmt: table %q action at %d before match result (match %d + Δ_M %d)", n, as, ms, hw.DeltaMatch)
		}
		c := costs[n]
		matchUse[ms%period] += max(c.Matches, 1)
		actionUse[as%period] += max(c.Actions, 1)
	}
	for i := 0; i < period; i++ {
		if matchUse[i] > hw.MatchCapacity {
			return fmt.Errorf("drmt: cycle %d (mod %d) issues %d matches, capacity %d", i, period, matchUse[i], hw.MatchCapacity)
		}
		if actionUse[i] > hw.ActionCapacity {
			return fmt.Errorf("drmt: cycle %d (mod %d) issues %d actions, capacity %d", i, period, actionUse[i], hw.ActionCapacity)
		}
	}
	for _, e := range g.Edges() {
		switch e.Kind {
		case dag.MatchDep:
			if s.MatchStart[e.To] < s.ActionStart[e.From]+hw.DeltaAction {
				return fmt.Errorf("drmt: match dep %s->%s violated", e.From, e.To)
			}
		case dag.ActionDep:
			if s.ActionStart[e.To] < s.ActionStart[e.From]+hw.DeltaAction {
				return fmt.Errorf("drmt: action dep %s->%s violated", e.From, e.To)
			}
		case dag.ControlDep:
			if s.MatchStart[e.To] < s.MatchStart[e.From] {
				return fmt.Errorf("drmt: control dep %s->%s violated", e.From, e.To)
			}
		}
	}
	return nil
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// ListSchedule builds a feasible schedule greedily in topological order,
// placing each table's match and action at the earliest cycle that honours
// dependency latencies and per-cycle capacity.
func ListSchedule(g *dag.Graph, costs map[string]TableCost, hw HWConfig) (*Schedule, error) {
	hw = hw.Defaults()
	order, err := g.TopoSort()
	if err != nil {
		return nil, err
	}
	period := hw.Processors
	matchUse := make(map[int]int)
	actionUse := make(map[int]int)
	s := &Schedule{MatchStart: map[string]int{}, ActionStart: map[string]int{}}

	// reserve finds the earliest cycle >= start whose residue class modulo
	// the period still has capacity. Because usage repeats with the period,
	// scanning one full period suffices: if no residue fits, the demand can
	// never be placed at this throughput.
	reserve := func(use map[int]int, start, units, capacity int) (int, error) {
		for t := start; t < start+period; t++ {
			if use[t%period]+units <= capacity {
				use[t%period] += units
				return t, nil
			}
		}
		return 0, fmt.Errorf("drmt: no cycle has %d unit(s) of capacity left (capacity %d, period %d): the program does not fit at line rate", units, capacity, period)
	}

	for _, n := range order {
		c := costs[n]
		mUnits, aUnits := max(c.Matches, 1), max(c.Actions, 1)
		earliestM := 0
		for _, e := range g.In(n) {
			switch e.Kind {
			case dag.MatchDep:
				earliestM = max(earliestM, s.ActionStart[e.From]+hw.DeltaAction)
			case dag.ControlDep:
				earliestM = max(earliestM, s.MatchStart[e.From])
			}
		}
		ms, err := reserve(matchUse, earliestM, mUnits, hw.MatchCapacity)
		if err != nil {
			return nil, fmt.Errorf("table %q match: %w", n, err)
		}
		earliestA := ms + hw.DeltaMatch
		for _, e := range g.In(n) {
			if e.Kind == dag.ActionDep {
				earliestA = max(earliestA, s.ActionStart[e.From]+hw.DeltaAction)
			}
		}
		as, err := reserve(actionUse, earliestA, aUnits, hw.ActionCapacity)
		if err != nil {
			return nil, fmt.Errorf("table %q action: %w", n, err)
		}
		s.MatchStart[n] = ms
		s.ActionStart[n] = as
		if end := as + hw.DeltaAction; end > s.Makespan {
			s.Makespan = end
		}
	}
	return s, nil
}

// OptimalSchedule finds a makespan-minimal schedule by branch and bound,
// seeded with the greedy schedule as the incumbent. It is exponential in
// the number of tables; callers should restrict it to small DAGs (<= ~8
// tables, the sizes the examples use).
func OptimalSchedule(g *dag.Graph, costs map[string]TableCost, hw HWConfig) (*Schedule, error) {
	hw = hw.Defaults()
	greedy, err := ListSchedule(g, costs, hw)
	if err != nil {
		return nil, err
	}
	order, err := g.TopoSort()
	if err != nil {
		return nil, err
	}
	if len(order) > 10 {
		return greedy, nil // fall back: B&B would blow up
	}
	period := hw.Processors
	best := greedy
	bestSpan := greedy.Makespan

	type state struct {
		matchUse  map[int]int
		actionUse map[int]int
	}
	st := state{matchUse: map[int]int{}, actionUse: map[int]int{}}
	cur := &Schedule{MatchStart: map[string]int{}, ActionStart: map[string]int{}}

	var dfs func(i, span int)
	dfs = func(i, span int) {
		if span >= bestSpan {
			return
		}
		if i == len(order) {
			clone := &Schedule{
				MatchStart:  map[string]int{},
				ActionStart: map[string]int{},
				Makespan:    span,
			}
			//dvet:nondeterministic-ok map-to-map copy, order-free
			for k, v := range cur.MatchStart {
				clone.MatchStart[k] = v
			}
			//dvet:nondeterministic-ok map-to-map copy, order-free
			for k, v := range cur.ActionStart {
				clone.ActionStart[k] = v
			}
			best = clone
			bestSpan = span
			return
		}
		n := order[i]
		c := costs[n]
		mUnits, aUnits := max(c.Matches, 1), max(c.Actions, 1)
		earliestM := 0
		for _, e := range g.In(n) {
			switch e.Kind {
			case dag.MatchDep:
				earliestM = max(earliestM, cur.ActionStart[e.From]+hw.DeltaAction)
			case dag.ControlDep:
				earliestM = max(earliestM, cur.MatchStart[e.From])
			}
		}
		// Try match starts within one period of the earliest feasible slot;
		// beyond that the capacity pattern repeats and only delays.
		for dm := 0; dm < period; dm++ {
			ms := earliestM + dm
			if st.matchUse[ms%period]+mUnits > hw.MatchCapacity {
				continue
			}
			earliestA := ms + hw.DeltaMatch
			for _, e := range g.In(n) {
				if e.Kind == dag.ActionDep {
					earliestA = max(earliestA, cur.ActionStart[e.From]+hw.DeltaAction)
				}
			}
			for da := 0; da < period; da++ {
				as := earliestA + da
				if st.actionUse[as%period]+aUnits > hw.ActionCapacity {
					continue
				}
				st.matchUse[ms%period] += mUnits
				st.actionUse[as%period] += aUnits
				cur.MatchStart[n] = ms
				cur.ActionStart[n] = as
				dfs(i+1, max(span, as+hw.DeltaAction))
				st.matchUse[ms%period] -= mUnits
				st.actionUse[as%period] -= aUnits
				delete(cur.MatchStart, n)
				delete(cur.ActionStart, n)
			}
		}
	}
	dfs(0, 0)
	return best, nil
}

// DefaultCosts assigns every table in the graph one match unit and one
// action unit.
func DefaultCosts(g *dag.Graph) map[string]TableCost {
	costs := make(map[string]TableCost, g.Len())
	for _, n := range g.Nodes() {
		costs[n] = TableCost{Matches: 1, Actions: 1}
	}
	return costs
}

// FormatSchedule renders a schedule table sorted by match start.
func FormatSchedule(s *Schedule) string {
	type row struct {
		name   string
		ms, as int
	}
	var rows []row
	//dvet:nondeterministic-ok rows are fully sorted below before rendering
	for n, ms := range s.MatchStart {
		rows = append(rows, row{n, ms, s.ActionStart[n]})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].ms != rows[j].ms {
			return rows[i].ms < rows[j].ms
		}
		return rows[i].name < rows[j].name
	})
	out := fmt.Sprintf("%-20s %8s %8s\n", "table", "match@", "action@")
	for _, r := range rows {
		out += fmt.Sprintf("%-20s %8d %8d\n", r.name, r.ms, r.as)
	}
	out += fmt.Sprintf("makespan: %d cycles\n", s.Makespan)
	return out
}
