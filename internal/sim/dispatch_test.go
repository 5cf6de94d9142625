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
// new one — but never rise, and the sum stays at most 0.85 of what the
// oracles dispatched before flat.Optimize, 136.05 a packet.
func TestOracleDispatches(t *testing.T) {
	const packets = 20480
	pinned := map[string]int64{
		"blue-decrease":     102400, // 5 a packet before flat.Optimize
		"blue-increase":     92050,  // 8.50
		"sampling":          126976, // 8.20
		"marple-new-flow":   102401, // 6.00
		"marple-tcp-nmo":    102414, // 9.00
		"snap-heavy-hitter": 184122, // 10.99
		"stateful-firewall": 297110, // 17.00
		"flowlets":          232362, // 16.35
		"learn-filter":      430080, // 21.00
		"rcp":               266488, // 16.01
		"conga":             61456,  // 7.00
		"spam-detection":    184296, // 11.00
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
	if perPacket := float64(sum) / packets; perPacket > 0.85*136.05 {
		t.Errorf("the 12 oracles dispatch %.2f instructions a packet, more than 0.85 of 136.05", perPacket)
	}
}
