package drmt

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"druzhba/internal/dag"
	"druzhba/internal/p4"
)

// loadL2L3 parses the testdata L2/L3 switch program and its entries.
func loadL2L3(t testing.TB) (*p4.Program, *EntrySet) {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("testdata", "l2l3.p4"))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := p4.Parse(string(src))
	if err != nil {
		t.Fatal(err)
	}
	entriesText, err := os.ReadFile(filepath.Join("testdata", "l2l3.entries"))
	if err != nil {
		t.Fatal(err)
	}
	entries, err := ParseEntries(strings.NewReader(string(entriesText)), prog)
	if err != nil {
		t.Fatal(err)
	}
	return prog, entries
}

func TestL2L3DAGShape(t *testing.T) {
	prog, _ := loadL2L3(t)
	g, err := p4.BuildDAG(prog)
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 5 {
		t.Fatalf("DAG has %d tables, want 5", g.Len())
	}
	// dmac writes meta.egressPort which ipv4_route also writes and
	// egress_count matches: dmac -> egress_count must be a match dep.
	found := false
	for _, e := range g.Out("dmac") {
		if e.To == "egress_count" && e.Kind == dag.MatchDep {
			found = true
		}
	}
	if !found {
		t.Errorf("dmac -> egress_count match dependency missing:\n%s", g)
	}
	// smac only touches the learning register: no data edge to dmac, so a
	// control edge preserves the apply order.
	for _, e := range g.Out("smac") {
		if e.To == "dmac" && e.Kind != dag.ControlDep {
			t.Errorf("smac -> dmac = %v, want control dependency", e.Kind)
		}
	}
}

func TestL2L3EndToEnd(t *testing.T) {
	prog, entries := loadL2L3(t)
	m, err := NewMachine(prog, entries, HWConfig{Processors: 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	l := m.Layout()
	mkPkt := func(dstMac, srcIP, dstIP int64) []int64 {
		return (&refPacket{Fields: map[string]int64{
			"eth.dstMac": dstMac, "eth.srcMac": 0x42, "eth.etherType": 0x800,
			"ipv4.srcAddr": srcIP, "ipv4.dstAddr": dstIP, "ipv4.ttl": 64, "ipv4.proto": 6,
			"meta.egressPort": 0, "meta.l2Hit": 0,
		}}).slots(l)
	}
	// Packet 0: known MAC -> L2 forward to port 3, then routing to 10/8
	// overrides to port 1 (apply order), ACL permits.
	p0 := mkPkt(0xaabbcc, 0x01020304, 0x0A010101)
	// Packet 1: unknown MAC, dst 127.0.0.1 -> dropped by routing.
	p1 := mkPkt(0x999999, 0x01020304, 0x7F000001)
	// Packet 2: source in 10.66/16 -> dropped by ACL.
	p2 := mkPkt(0x112233, 0x0A420001, 0xC0A80101)
	if m.ProcessSlots(p0) {
		t.Error("packet 0 dropped")
	}
	if field(l, p0, "meta.l2Hit") != 1 {
		t.Error("packet 0 missed dmac")
	}
	if port := field(l, p0, "meta.egressPort"); port != 1 {
		t.Errorf("packet 0 egress port = %d, want 1 (routing overrides L2)", port)
	}
	if ttl := field(l, p0, "ipv4.ttl"); ttl != 63 {
		t.Errorf("packet 0 ttl = %d, want 63", ttl)
	}
	if d1, d2 := m.ProcessSlots(p1), m.ProcessSlots(p2); !d1 || !d2 {
		t.Errorf("drops: p1=%v p2=%v, want both dropped", d1, d2)
	}
	// The learning register counted all three source MACs (0x42 % 64 = 2).
	cells, _ := m.Register("r_learned")
	if cells[2] != 3 {
		t.Errorf("r_learned[2] = %d, want 3", cells[2])
	}
	// Only surviving packets reach the egress counter.
	bytes, _ := m.Register("r_portbytes")
	if bytes[1] != 1 {
		t.Errorf("r_portbytes[1] = %d, want 1", bytes[1])
	}
}

func TestL2L3Scheduling(t *testing.T) {
	prog, _ := loadL2L3(t)
	g, err := p4.BuildDAG(prog)
	if err != nil {
		t.Fatal(err)
	}
	hw := HWConfig{Processors: 4, DeltaMatch: 18, DeltaAction: 2, MatchCapacity: 8, ActionCapacity: 32}
	costs := DefaultCosts(g)
	greedy, err := ListSchedule(g, costs, hw)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := OptimalSchedule(g, costs, hw)
	if err != nil {
		t.Fatal(err)
	}
	if opt.Makespan > greedy.Makespan {
		t.Errorf("optimal %d > greedy %d", opt.Makespan, greedy.Makespan)
	}
	// The match-dependency chain dmac -> egress_count forces at least two
	// full match+action rounds.
	if min := 2 * (hw.DeltaMatch + hw.DeltaAction); opt.Makespan < min {
		t.Errorf("makespan %d below dependency lower bound %d", opt.Makespan, min)
	}
	m, err := NewMachine(prog, NewEntrySet(), hw, opt)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := m.CycleAccurate(200)
	if err != nil {
		t.Fatal(err)
	}
	if cs.MaxMatchIssues > hw.MatchCapacity {
		t.Errorf("cycle replay exceeds match capacity: %d", cs.MaxMatchIssues)
	}
}
