package sim_test

import (
	"testing"

	"druzhba/internal/core"
	"druzhba/internal/sim"
	"druzhba/internal/spec"
)

// TestOracleDispatches pins the instructions each Table-1 oracle dispatches
// (flat.Program.Counting) over 20 480 packets of seed-1 traffic at compiled:
// the work of the fused loop's one Run per packet. A count may fall — pin the
// new one — but never rise, and the sum stays at most 0.80 of the 106.55 a
// packet the oracles dispatched while flat.Optimize kept every named register
// and every copy (136.05 before flat.Optimize).
func TestOracleDispatches(t *testing.T) {
	const packets = 20480
	pinned := map[string]int64{ // a packet: before flat.Optimize, before value numbering and final copies, now
		"blue-decrease":     61440,  // 5, 5, 3.00
		"blue-increase":     61352,  // 8.50, 4.49, 3.00
		"sampling":          126976, // 8.20, 6.20, 6.20
		"marple-new-flow":   102401, // 6.00, 5.00, 5.00
		"marple-tcp-nmo":    102414, // 9.00, 5.00, 5.00
		"snap-heavy-hitter": 163642, // 10.99, 8.99, 7.99
		"stateful-firewall": 225380, // 17.00, 14.51, 11.00
		"flowlets":          191402, // 16.35, 11.35, 9.35
		"learn-filter":      245760, // 21.00, 21.00, 12.00
		"rcp":               164088, // 16.01, 13.01, 8.01
		"conga":             40976,  // 7.00, 3.00, 2.00
		"spam-detection":    163816, // 11.00, 9.00, 8.00
	}
	var sum int64
	for _, bm := range spec.All() {
		r, err := bm.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		p, err := core.Build(r.Spec, r.Code, core.Compiled)
		if err != nil {
			t.Fatal(err)
		}
		got := sim.NewFuzzer(p).Dispatched(r.NewSpec(), sim.NewTrafficGen(1, p.PHVLen(), p.Bits(), bm.MaxInput), packets)
		switch want := pinned[bm.Name]; {
		case got > want:
			t.Errorf("%s: %d instructions dispatched (%.2f a packet), more than the %d pinned", bm.Name, got, float64(got)/packets, want)
		case got < want:
			t.Logf("%s: %d instructions dispatched, fewer than the %d pinned: pin it", bm.Name, got, want)
		}
		sum += got
	}
	if perPacket := float64(sum) / packets; perPacket > 0.80*106.55 {
		t.Errorf("the 12 oracles dispatch %.2f instructions a packet, more than 0.80 of 106.55", perPacket)
	}
}
