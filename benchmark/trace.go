package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The harness's own span recorder. This PR adds no instrumentation inside
// the program: every span is opened by a wrapper the harness places at a
// layer boundary (a campaign.Target, a campaign.ShardCache, an
// http.Handler), so the ledger shows exactly what can be seen from outside.
//
// Most spans hang directly off their rep's root span. Where layer calls
// nest — a lease handler probing its cache tiers, a shard-store handler
// reaching the store — the wrappers ask for nesting: the parent is then the
// span open on the same goroutine, found through a per-goroutine stack,
// which recovers the chain lease → tier without threading a context through
// interfaces that have none. Reading the goroutine id costs ~2.4µs, so
// only those wrappers pay it.

// span is one timed call into a layer. Times are nanoseconds since the
// recorder's epoch.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // -1 for a rep's root span
	Name     string `json:"name"`   // "<layer>.<operation>"
	Workload string `json:"workload"`
	Rep      int    `json:"rep"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`

	// Wait marks a span that only waits for other spans' work (the rep
	// root, a streaming HTTP handler): wall time is charged to it only
	// while no working span is open.
	Wait bool `json:"wait,omitempty"`

	gid uint64 // goroutine whose stack holds the span (nested spans only)
}

func (s *span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory; nothing is written until the run ends.
// A nil *recorder is the untraced pass: every method is a no-op.
type recorder struct {
	mu       sync.Mutex
	epoch    time.Time
	spans    []span
	stacks   map[uint64][]int // open span ids per goroutine
	workload string
	rep      int
	root     int // current rep's root span, -1 outside a rep
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), stacks: map[uint64][]int{}, root: -1}
}

// goid parses the current goroutine's id out of its stack header
// ("goroutine 123 [running]:"). Go offers no API for it; nested spans of
// the traced pass pay for the stack walk, the untraced pass never calls it.
func goid() uint64 {
	var buf [32]byte
	n := runtime.Stack(buf[:], false)
	fields := bytes.Fields(buf[:n])
	if len(fields) < 2 {
		return 0
	}
	id, _ := strconv.ParseUint(string(fields[1]), 10, 64)
	return id
}

// beginRep opens the root span of one repetition; endRep closes it.
func (r *recorder) beginRep(workload string, rep int, name string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.workload, r.rep = workload, rep
	r.spans = append(r.spans, span{ID: len(r.spans), Parent: -1, Name: name, Workload: workload, Rep: rep, Start: int64(time.Since(r.epoch)), Wait: true})
	r.root = len(r.spans) - 1
}

func (r *recorder) endRep() {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.root >= 0 {
		r.spans[r.root].End = int64(time.Since(r.epoch))
	}
	r.root = -1
	r.stacks = map[uint64][]int{}
}

// begin opens a span under the rep's root and returns its id (-1 when
// untraced or outside a rep).
func (r *recorder) begin(name string) int { return r.open(name, false, false) }

// beginNested opens a span under whatever span is open on the calling
// goroutine (the root when none is), and keeps it on that goroutine's stack
// until end.
func (r *recorder) beginNested(name string, wait bool) int { return r.open(name, wait, true) }

func (r *recorder) open(name string, wait, nest bool) int {
	if r == nil {
		return -1
	}
	var g uint64
	if nest {
		g = goid()
	}
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.root < 0 {
		return -1
	}
	parent := r.root
	if st := r.stacks[g]; len(st) > 0 {
		parent = st[len(st)-1]
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Workload: r.workload, Rep: r.rep, Start: now, Wait: wait, gid: g})
	if nest {
		r.stacks[g] = append(r.stacks[g], id)
	}
	return id
}

// end closes a span; a nested span must be closed on the goroutine that
// opened it, innermost first.
func (r *recorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	defer r.mu.Unlock()
	if id >= len(r.spans) || r.spans[id].End != 0 {
		return
	}
	r.spans[id].End = now
	if g := r.spans[id].gid; g != 0 {
		if st := r.stacks[g]; len(st) > 0 && st[len(st)-1] == id {
			r.stacks[g] = st[:len(st)-1]
		}
	}
}

// add records an already-finished span the harness inferred from two
// boundary calls (shard execution = cache miss → cache put on one key),
// nested under the calling goroutine's open span when nest is set.
func (r *recorder) add(name string, start, end time.Time, nest bool) {
	if r == nil {
		return
	}
	var g uint64
	if nest {
		g = goid()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.root < 0 {
		return
	}
	parent := r.root
	if st := r.stacks[g]; len(st) > 0 {
		parent = st[len(st)-1]
	}
	r.spans = append(r.spans, span{ID: len(r.spans), Parent: parent, Name: name, Workload: r.workload, Rep: r.rep,
		Start: int64(start.Sub(r.epoch)), End: int64(end.Sub(r.epoch))})
}

// snapshot returns the finished spans recorded so far.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]span, 0, len(r.spans))
	for _, s := range r.spans {
		if s.End > 0 {
			out = append(out, s)
		}
	}
	return out
}

// writeNDJSON writes one span per line.
func writeNDJSON(w io.Writer, spans []span) error {
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			return err
		}
	}
	return nil
}

// selfTimes returns, per span id, the span's duration minus the part of
// its interval that its direct children cover. Children may overlap each
// other (parallel workers under one root), so the covered part is the
// union of their intervals clipped to the parent.
func selfTimes(spans []span) map[int]int64 {
	children := map[int][][2]int64{}
	byID := map[int]*span{}
	for i := range spans {
		byID[spans[i].ID] = &spans[i]
	}
	for i := range spans {
		s := &spans[i]
		p, ok := byID[s.Parent]
		if !ok {
			continue
		}
		lo, hi := max(s.Start, p.Start), min(s.End, p.End)
		if hi > lo {
			children[p.ID] = append(children[p.ID], [2]int64{lo, hi})
		}
	}
	self := make(map[int]int64, len(spans))
	for i := range spans {
		s := &spans[i]
		iv := children[s.ID]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		covered, curLo, curHi := int64(0), int64(0), int64(-1)
		for _, c := range iv {
			if curHi < curLo || c[0] > curHi {
				if curHi > curLo {
					covered += curHi - curLo
				}
				curLo, curHi = c[0], c[1]
			} else if c[1] > curHi {
				curHi = c[1]
			}
		}
		if curHi > curLo {
			covered += curHi - curLo
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// ledgerRow is one component of the per-layer cost ledger.
type ledgerRow struct {
	Name   string
	Calls  int
	BusyNS int64 // sum of span durations (lane time: may exceed wall under parallelism)
	SelfNS int64 // sum of self times
	WallNS int64 // share of the reps' wall clock attributed to this component
}

// ledger is the traced pass's accounting of where the reps' wall went.
type ledger struct {
	Rows          []ledgerRow // descending by WallNS
	SpanNS        int64       // sum of the root spans: the wall being explained
	UnattributedN int64       // wall during which no non-root span was open
}

// buildLedger attributes the wall time of every rep root in spans. At each
// instant the wall is split equally between the working spans that are open
// and have no open child (the innermost call on each lane); when only
// waiting spans are open it goes to the innermost of those, and when only
// the root is open it is unattributed. The shares therefore sum to the root
// spans exactly — the remainder is printed, never hidden.
func buildLedger(spans []span) ledger {
	self := selfTimes(spans)
	rows := map[string]*ledgerRow{}
	row := func(name string) *ledgerRow {
		if rows[name] == nil {
			rows[name] = &ledgerRow{Name: name}
		}
		return rows[name]
	}
	var lg ledger
	byRep := map[[2]string][]*span{}
	for i := range spans {
		s := &spans[i]
		if s.Parent >= 0 {
			r := row(s.Name)
			r.Calls++
			r.BusyNS += s.dur()
			r.SelfNS += self[s.ID]
		}
		k := [2]string{s.Workload, strconv.Itoa(s.Rep)}
		byRep[k] = append(byRep[k], s)
	}
	for _, rep := range byRep {
		var root *span
		for _, s := range rep {
			if s.Parent < 0 {
				root = s
			}
		}
		if root == nil {
			continue
		}
		lg.SpanNS += root.dur()
		attributeRep(root, rep, row, &lg)
	}
	for _, r := range rows {
		lg.Rows = append(lg.Rows, *r)
	}
	sort.Slice(lg.Rows, func(a, b int) bool {
		if lg.Rows[a].WallNS != lg.Rows[b].WallNS {
			return lg.Rows[a].WallNS > lg.Rows[b].WallNS
		}
		return lg.Rows[a].Name < lg.Rows[b].Name
	})
	return lg
}

// attributeRep sweeps one rep's spans in time order.
func attributeRep(root *span, rep []*span, row func(string) *ledgerRow, lg *ledger) {
	type event struct {
		t    int64
		open bool
		s    *span
	}
	var evs []event
	byID := map[int]*span{}
	for _, s := range rep {
		byID[s.ID] = s
		if s == root {
			continue
		}
		lo, hi := max(s.Start, root.Start), min(s.End, root.End)
		if hi <= lo {
			continue
		}
		evs = append(evs, event{lo, true, s}, event{hi, false, s})
	}
	sort.Slice(evs, func(a, b int) bool {
		if evs[a].t != evs[b].t {
			return evs[a].t < evs[b].t
		}
		return !evs[a].open && evs[b].open // close before open at the same instant
	})
	open := map[int]*span{}
	openKids := map[int]int{} // open direct children per open span
	var waitStack []*span
	charge := func(dt int64) {
		if dt <= 0 {
			return
		}
		var leaves []*span
		for id, s := range open {
			if !s.Wait && openKids[id] == 0 {
				leaves = append(leaves, s)
			}
		}
		switch {
		case len(leaves) > 0:
			share := dt / int64(len(leaves))
			for _, s := range leaves {
				row(s.Name).WallNS += share
			}
			lg.UnattributedN += dt - share*int64(len(leaves)) // integer-division remainder
		case len(waitStack) > 0:
			row(waitStack[len(waitStack)-1].Name).WallNS += dt
		default:
			lg.UnattributedN += dt
		}
	}
	prev := root.Start
	for _, e := range evs {
		charge(e.t - prev)
		prev = e.t
		if e.open {
			open[e.s.ID] = e.s
			if _, ok := byID[e.s.Parent]; ok {
				openKids[e.s.Parent]++
			}
			if e.s.Wait {
				waitStack = append(waitStack, e.s)
			}
		} else {
			delete(open, e.s.ID)
			if _, ok := byID[e.s.Parent]; ok {
				openKids[e.s.Parent]--
			}
			if e.s.Wait {
				for i := len(waitStack) - 1; i >= 0; i-- {
					if waitStack[i] == e.s {
						waitStack = append(waitStack[:i], waitStack[i+1:]...)
						break
					}
				}
			}
		}
	}
	charge(root.End - prev)
}

// write renders the ledger as a per-component stats table.
func (lg *ledger) write(w io.Writer, title string) {
	fmt.Fprintf(w, "%s\n", title)
	fmt.Fprintf(w, "  %-30s %8s %12s %12s %12s %7s\n", "component", "calls", "busy_ms", "self_ms", "wall_ms", "wall%")
	fmt.Fprintf(w, "  %s\n", strings.Repeat("-", 86))
	pct := func(ns int64) float64 {
		if lg.SpanNS == 0 {
			return 0
		}
		return 100 * float64(ns) / float64(lg.SpanNS)
	}
	var attributed int64
	for _, r := range lg.Rows {
		attributed += r.WallNS
		fmt.Fprintf(w, "  %-30s %8d %12.3f %12.3f %12.3f %6.1f%%\n", r.Name, r.Calls,
			float64(r.BusyNS)/1e6, float64(r.SelfNS)/1e6, float64(r.WallNS)/1e6, pct(r.WallNS))
	}
	fmt.Fprintf(w, "  %s\n", strings.Repeat("-", 86))
	fmt.Fprintf(w, "  %-30s %8s %12s %12s %12.3f %6.1f%%\n", "attributed", "", "", "", float64(attributed)/1e6, pct(attributed))
	fmt.Fprintf(w, "  %-30s %8s %12s %12s %12.3f %6.1f%%\n", "unattributed", "", "", "", float64(lg.UnattributedN)/1e6, pct(lg.UnattributedN))
	fmt.Fprintf(w, "  %-30s %8s %12s %12s %12.3f %6.1f%%\n", "workload span", "", "", "", float64(lg.SpanNS)/1e6, 100.0)
}
