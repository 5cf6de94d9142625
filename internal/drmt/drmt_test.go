package drmt

import (
	"reflect"
	"strings"
	"testing"

	"druzhba/internal/dag"
	"druzhba/internal/p4"
)

const routerSrc = `
header_type ipv4_t {
    fields {
        srcAddr : 32;
        dstAddr : 32;
        ttl : 8;
        tos : 8;
    }
}
header ipv4_t ipv4;

register r_count {
    width : 32;
    instance_count : 4;
}

action set_tos(v) {
    modify_field(ipv4.tos, v);
}

action decrement_ttl() {
    add_to_field(ipv4.ttl, -1);
}

action count_dst() {
    register_add(r_count, ipv4.dstAddr, 1);
}

action deny() {
    drop();
}

table classify {
    reads { ipv4.srcAddr : ternary; }
    actions { set_tos; deny; }
    default_action : set_tos(0);
}

table route {
    reads { ipv4.dstAddr : exact; }
    actions { decrement_ttl; deny; }
    default_action : decrement_ttl();
}

table audit {
    reads { ipv4.tos : exact; }
    actions { count_dst; }
    default_action : count_dst();
}

control ingress {
    apply(classify);
    apply(route);
    apply(audit);
}
`

func routerProg(t *testing.T) *p4.Program {
	t.Helper()
	return p4.MustParse(routerSrc)
}

// --- schedule tests ----------------------------------------------------------

func TestListScheduleRespectsConstraints(t *testing.T) {
	prog := routerProg(t)
	g, err := p4.BuildDAG(prog)
	if err != nil {
		t.Fatal(err)
	}
	hw := HWConfig{}.Defaults()
	s, err := ListSchedule(g, DefaultCosts(g), hw)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(g, DefaultCosts(g), hw); err != nil {
		t.Errorf("greedy schedule invalid: %v", err)
	}
	if s.Makespan <= hw.DeltaMatch {
		t.Errorf("makespan %d suspiciously small", s.Makespan)
	}
}

func TestListScheduleMatchDepLatency(t *testing.T) {
	g := dag.New()
	g.AddNode("a")
	g.AddNode("b")
	if err := g.AddEdge("a", "b", dag.MatchDep); err != nil {
		t.Fatal(err)
	}
	hw := HWConfig{Processors: 2, DeltaMatch: 10, DeltaAction: 3, MatchCapacity: 8, ActionCapacity: 8}
	s, err := ListSchedule(g, DefaultCosts(g), hw)
	if err != nil {
		t.Fatal(err)
	}
	// b's match must wait for a's action result: 0 + 10 (match) + 3 (action).
	if got, want := s.MatchStart["b"], s.ActionStart["a"]+3; got < want {
		t.Errorf("match(b) = %d, want >= %d", got, want)
	}
	if s.Makespan != s.ActionStart["b"]+3 {
		t.Errorf("makespan = %d, want action(b)+Δ_A = %d", s.Makespan, s.ActionStart["b"]+3)
	}
}

func TestScheduleCapacitySpreading(t *testing.T) {
	// 4 independent tables, match capacity 2, period 2: exactly two match
	// issues per residue class — the schedule must spread them evenly.
	g := dag.New()
	names := []string{"t0", "t1", "t2", "t3"}
	for _, n := range names {
		g.AddNode(n)
	}
	hw := HWConfig{Processors: 2, DeltaMatch: 5, DeltaAction: 1, MatchCapacity: 2, ActionCapacity: 8}
	s, err := ListSchedule(g, DefaultCosts(g), hw)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(g, DefaultCosts(g), hw); err != nil {
		t.Fatalf("schedule invalid: %v\n%s", err, FormatSchedule(s))
	}
	use := map[int]int{}
	for _, n := range names {
		use[s.MatchStart[n]%2]++
	}
	if use[0] != 2 || use[1] != 2 {
		t.Errorf("match issues per residue = %v, want {0:2 1:2}", use)
	}
}

func TestScheduleOverCapacityFails(t *testing.T) {
	// 5 independent tables, match capacity 1, period 2: only 2 issues fit,
	// so the program cannot run at line rate and scheduling must fail.
	g := dag.New()
	for _, n := range []string{"t0", "t1", "t2", "t3", "t4"} {
		g.AddNode(n)
	}
	hw := HWConfig{Processors: 2, DeltaMatch: 5, DeltaAction: 1, MatchCapacity: 1, ActionCapacity: 8}
	_, err := ListSchedule(g, DefaultCosts(g), hw)
	if err == nil {
		t.Fatal("ListSchedule accepted an over-capacity program")
	}
	if !strings.Contains(err.Error(), "does not fit at line rate") {
		t.Errorf("error = %q", err)
	}
}

func TestOptimalNotWorseThanGreedy(t *testing.T) {
	prog := routerProg(t)
	g, err := p4.BuildDAG(prog)
	if err != nil {
		t.Fatal(err)
	}
	hw := HWConfig{Processors: 4, DeltaMatch: 6, DeltaAction: 2, MatchCapacity: 2, ActionCapacity: 2}
	greedy, err := ListSchedule(g, DefaultCosts(g), hw)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := OptimalSchedule(g, DefaultCosts(g), hw)
	if err != nil {
		t.Fatal(err)
	}
	if opt.Makespan > greedy.Makespan {
		t.Errorf("optimal makespan %d > greedy %d", opt.Makespan, greedy.Makespan)
	}
	if err := opt.Validate(g, DefaultCosts(g), hw); err != nil {
		t.Errorf("optimal schedule invalid: %v", err)
	}
}

func TestFormatSchedule(t *testing.T) {
	s := &Schedule{
		MatchStart:  map[string]int{"a": 0, "b": 3},
		ActionStart: map[string]int{"a": 10, "b": 13},
		Makespan:    15,
	}
	out := FormatSchedule(s)
	if !strings.Contains(out, "makespan: 15") {
		t.Errorf("FormatSchedule output: %s", out)
	}
	if strings.Index(out, "a") > strings.Index(out, "b") {
		t.Error("rows not sorted by match start")
	}
}

// --- entries tests -----------------------------------------------------------

const routerEntries = `
# srcAddr in 10.x (high byte 10): tos 7
classify ipv4.srcAddr ternary 0x0A000000/0xFF000000 set_tos(7)
route ipv4.dstAddr exact 42 deny()
route ipv4.dstAddr exact 7 decrement_ttl()
audit ipv4.tos exact 7 count_dst()
`

func TestParseEntries(t *testing.T) {
	prog := routerProg(t)
	set, err := ParseEntriesString(routerEntries, prog)
	if err != nil {
		t.Fatal(err)
	}
	if set.Len() != 4 {
		t.Errorf("entry count = %d, want 4", set.Len())
	}
	if got := set.ForTable("route"); len(got) != 2 || got[0].Key != 42 {
		t.Errorf("route entries = %+v", got)
	}
	e := set.ForTable("classify")[0]
	if !e.Matches(0x0A010203) {
		t.Error("ternary entry should match 10.1.2.3")
	}
	if e.Matches(0x0B010203) {
		t.Error("ternary entry should not match 11.1.2.3")
	}
}

func TestParseEntriesValidation(t *testing.T) {
	prog := routerProg(t)
	cases := []struct{ name, line, wantSub string }{
		{"unknown table", "ghost ipv4.tos exact 1 count_dst()", "unknown table"},
		{"wrong field", "route ipv4.tos exact 1 deny()", "does not match on"},
		{"wrong kind", "route ipv4.dstAddr ternary 1/1 deny()", "entry uses ternary"},
		{"unlisted action", "route ipv4.dstAddr exact 1 count_dst()", "does not list action"},
		{"bad arity", "classify ipv4.srcAddr ternary 1/1 set_tos()", "takes 1 argument"},
		{"bad columns", "route ipv4.dstAddr exact 1", "5 columns"},
		{"bad kind", "route ipv4.dstAddr lpm 1 deny()", "unknown match kind"},
		{"bad ternary", "classify ipv4.srcAddr ternary 1 deny()", "key/mask"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseEntriesString(tc.line, prog)
			if err == nil {
				t.Fatalf("accepted %q", tc.line)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Errorf("error = %q, want %q", err, tc.wantSub)
			}
		})
	}
}

// TestParseEntriesRefusesKeysOutsideTheField: an exact key, a ternary key or
// a ternary mask that no value of the matched field can equal is refused
// with its line — such an entry never matches, so a typo would fuzz clean
// while doing nothing. Keys at the field's edges parse.
func TestParseEntriesRefusesKeysOutsideTheField(t *testing.T) {
	bm, err := LookupBenchmark("counter")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := bm.Program()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ text, want string }{
		{"classify h.key exact 300 bump(10)", `line 1: key 300 lies outside the 8-bit field "h.key"`},
		{"\nclassify h.key exact -1 bump(10)", `line 2: key -1 lies outside the 8-bit field "h.key"`},
		{"classify h.key exact 0x100 toss()", `key 256 lies outside`},
	} {
		if _, err := ParseEntriesString(tc.text, prog); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%q: err %v, want %q", tc.text, err, tc.want)
		}
	}
	if set, err := ParseEntriesString("classify h.key exact 0 toss()\nclassify h.key exact 255 bump(1)", prog); err != nil || set.Len() != 2 {
		t.Errorf("keys 0 and 255 of an 8-bit field: %v", err)
	}

	l2l3, err := p4.Parse(l2l3Src)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ text, want string }{
		{"acl ipv4.srcAddr ternary 0x100000000/0xFFFF0000 act_drop()", `key 4294967296 lies outside the 32-bit field "ipv4.srcAddr"`},
		{"acl ipv4.srcAddr ternary 0x0A420000/0x1FFFF0000 act_drop()", `mask 8589869056 lies outside`},
		{"acl ipv4.srcAddr ternary 1/-1 act_drop()", `mask -1 lies outside`},
	} {
		if _, err := ParseEntriesString(tc.text, l2l3); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%q: err %v, want %q", tc.text, err, tc.want)
		}
	}
}

// FuzzParseEntries holds the entries text drmtasm and drmtsim read, a trust
// boundary, to: an error, or an entry set both machines are built on — the
// differential fuzzer accepts it — and over which the assembled ISA program
// agrees with the table-level machine for 64 packets, on the l2l3 and the
// counter program.
func FuzzParseEntries(f *testing.F) {
	for _, bm := range Benchmarks() {
		f.Add(bm.entries)
	}
	f.Add(l2l3Entries)
	f.Add("classify h.key exact 300 bump(10)\n")
	f.Add("acl ipv4.srcAddr ternary 0x0A420000/0xFFFF0000 act_drop() # c\n\ndmac eth.dstMac exact 0xaabbcc l2_forward(-3)\n")
	f.Add("classify h.key exact 5 bump(1,2)\nroute x y z w\n")
	var programs []*Benchmark
	for _, name := range []string{"l2l3", "counter"} {
		bm, err := LookupBenchmark(name)
		if err != nil {
			f.Fatal(err)
		}
		programs = append(programs, bm)
	}
	f.Fuzz(func(t *testing.T, text string) {
		for _, bm := range programs {
			prog, err := bm.Program()
			if err != nil {
				t.Fatal(err)
			}
			entries, err := ParseEntriesString(text, prog)
			if err != nil {
				continue
			}
			fz, err := NewDiffFuzzer(prog, nil, entries, bm.HW)
			if err != nil {
				t.Fatalf("%s: ParseEntries accepted entries the machines refuse: %v", bm.Name, err)
			}
			rep, err := fz.FuzzSeeded(1, 64, bm.MaxInput)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Passed() {
				t.Fatalf("%s: the ISA program and the table-level machine disagree on parsed entries: %v, %v", bm.Name, rep.Err, rep.Diffs)
			}
		}
	})
}

// FuzzAssemble holds the whole input drmtasm and drmtsim read — P4 source
// and entries text — to: an error at some step of p4.Parse, Assemble,
// Verify, NewDiffFuzzer and a 50-packet run, or a run in which the assembled
// ISA program and the table-level machine never disagree. A source may ask
// for any number of register cells; p4.Check bounds them, so no input makes
// the machines allocate what it asks for. Seeds are the four benchmarks.
func FuzzAssemble(f *testing.F) {
	for _, bm := range Benchmarks() {
		f.Add(bm.src, bm.entries)
	}
	f.Fuzz(func(t *testing.T, src, text string) {
		prog, err := p4.Parse(src)
		if err != nil {
			return
		}
		isa, err := Assemble(prog)
		if err != nil || isa.Verify() != nil {
			return
		}
		entries, err := ParseEntriesString(text, prog)
		if err != nil {
			return
		}
		fz, err := NewDiffFuzzer(prog, isa, entries, HWConfig{})
		if err != nil {
			return
		}
		rep, err := fz.FuzzSeeded(1, 50, 0)
		if err == nil && len(rep.Diffs) > 0 {
			t.Fatalf("the assembled ISA program and the table-level machine disagree: %v\nsource:\n%s\nentries:\n%s", rep.Diffs, src, text)
		}
	})
}

// --- machine tests -----------------------------------------------------------

func newRouterMachine(t *testing.T) *Machine {
	t.Helper()
	prog := routerProg(t)
	set, err := ParseEntriesString(routerEntries, prog)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMachine(prog, set, HWConfig{Processors: 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// field reads a named field of a slot-vector packet.
func field(l *SlotLayout, pkt []int64, name string) int64 {
	i, ok := l.fieldIdx[name]
	if !ok {
		panic("no field " + name)
	}
	return pkt[i]
}

// routerPacket is a slot-vector packet of the router program.
func routerPacket(m *Machine, src, dst, ttl, tos int64) []int64 {
	return (&refPacket{Fields: map[string]int64{
		"ipv4.srcAddr": src, "ipv4.dstAddr": dst, "ipv4.ttl": ttl, "ipv4.tos": tos,
	}}).slots(m.Layout())
}

func TestMachineBasicForwarding(t *testing.T) {
	m := newRouterMachine(t)
	pkt := routerPacket(m, 0x0A000001, 7, 64, 0)
	if m.ProcessSlots(pkt) {
		t.Fatal("packet dropped unexpectedly")
	}
	if tos := field(m.Layout(), pkt, "ipv4.tos"); tos != 7 {
		t.Errorf("tos = %d, want 7 (classify hit)", tos)
	}
	if ttl := field(m.Layout(), pkt, "ipv4.ttl"); ttl != 63 {
		t.Errorf("ttl = %d, want 63", ttl)
	}
	// audit counted dst 7 in register cell 7 % 4 = 3.
	cells, ok := m.Register("r_count")
	if !ok {
		t.Fatal("register missing")
	}
	if cells[3] != 1 {
		t.Errorf("r_count = %v, want cell 3 == 1", cells)
	}
}

func TestMachineDrop(t *testing.T) {
	m := newRouterMachine(t)
	if !m.ProcessSlots(routerPacket(m, 0, 42, 64, 0)) {
		t.Fatal("packet to dst 42 not dropped")
	}
	// Dropped packets stop processing: audit must not have counted.
	cells, _ := m.Register("r_count")
	for i, v := range cells {
		if v != 0 {
			t.Errorf("r_count[%d] = %d after drop, want 0", i, v)
		}
	}
}

func TestMachineDefaultActions(t *testing.T) {
	m := newRouterMachine(t)
	// srcAddr misses classify -> default set_tos(0); dst misses route ->
	// default decrement_ttl.
	pkt := routerPacket(m, 0x0B000001, 100, 10, 9)
	m.ProcessSlots(pkt)
	if tos := field(m.Layout(), pkt, "ipv4.tos"); tos != 0 {
		t.Errorf("tos = %d, want 0 (classify default)", tos)
	}
	if ttl := field(m.Layout(), pkt, "ipv4.ttl"); ttl != 9 {
		t.Errorf("ttl = %d, want 9", ttl)
	}
}

func TestMachineFieldWidthWrap(t *testing.T) {
	m := newRouterMachine(t)
	// ttl is 8 bits: decrement from 0 wraps to 255.
	pkt := routerPacket(m, 0, 100, 0, 0)
	m.ProcessSlots(pkt)
	if ttl := field(m.Layout(), pkt, "ipv4.ttl"); ttl != 255 {
		t.Errorf("ttl = %d, want 255 (8-bit wrap)", ttl)
	}
}

func TestMachineRoundRobinAndTiming(t *testing.T) {
	m := newRouterMachine(t)
	stats, err := m.RunStream(1, 40, 1000)
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range stats.PerProcessor {
		if n != 10 {
			t.Errorf("processor %d handled %d packets, want 10", i, n)
		}
	}
	if stats.Makespan != m.Schedule().Makespan {
		t.Errorf("per-packet latency %d, want the schedule's %d", stats.Makespan, m.Schedule().Makespan)
	}
	if stats.TotalCycles != 39+stats.Makespan {
		t.Errorf("total cycles = %d, want %d", stats.TotalCycles, 39+stats.Makespan)
	}
	if stats.Throughput <= 0 {
		t.Error("throughput not computed")
	}
	// Every packet visits all three tables unless dropped early.
	if stats.MemoryAccesses["classify"] != 40 {
		t.Errorf("classify accesses = %d, want 40", stats.MemoryAccesses["classify"])
	}
}

func TestMachineResetState(t *testing.T) {
	m := newRouterMachine(t)
	m.ProcessSlots(routerPacket(m, 0, 7, 64, 0))
	m.ResetState()
	cells, _ := m.Register("r_count")
	for _, v := range cells {
		if v != 0 {
			t.Error("ResetState left register non-zero")
		}
	}
}

func TestTrafficGenDeterministic(t *testing.T) {
	prog := routerProg(t)
	g1, err := NewTrafficGen(5, prog, 0)
	if err != nil {
		t.Fatal(err)
	}
	g2, _ := NewTrafficGen(5, prog, 0)
	p1, p2 := refPackets(g1, 1)[0], refPackets(g2, 1)[0]
	if !reflect.DeepEqual(p1, p2) {
		t.Fatalf("same seed diverges: %v, %v", p1, p2)
	}
	// ttl is 8 bits: generated values must respect field width.
	for _, p := range refPackets(g1, 100) {
		if v := p.Fields["ipv4.ttl"]; v < 0 || v > 255 {
			t.Fatalf("ttl = %d outside 8-bit range", v)
		}
	}
}

func TestFormatStats(t *testing.T) {
	m := newRouterMachine(t)
	stats, err := m.RunStream(2, 8, 100)
	if err != nil {
		t.Fatal(err)
	}
	out := FormatStats(stats)
	for _, want := range []string{"packets: 8", "throughput", "crossbar accesses[route]"} {
		if !strings.Contains(out, want) {
			t.Errorf("FormatStats missing %q:\n%s", want, out)
		}
	}
}
