package drmt

import (
	"slices"
	"testing"

	"druzhba/internal/p4"
)

// boundaryProg declares fields of several widths, including the widest
// the mini-P4 parser accepts.
const boundaryProg = `
header_type t_t {
    fields {
        tiny : 1;
        mid : 8;
        wide : 62;
    }
}
header t_t f;

action nop() { }

table pass {
    reads { f.mid : exact; }
    actions { nop; }
    default_action : nop();
}

control ingress {
    apply(pass);
}
`

// TestDRMTTrafficGenBoundaryMode: boundary mode draws only per-field
// boundary values — zero, one and each field's maximal drawable value.
func TestDRMTTrafficGenBoundaryMode(t *testing.T) {
	prog, err := p4.Parse(boundaryProg)
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewTrafficGenMode(5, prog, 0, TrafficBoundary)
	if err != nil {
		t.Fatal(err)
	}
	limits := map[string]int64{}
	for _, f := range prog.FieldNames() {
		bits, err := prog.FieldBits(f)
		if err != nil {
			t.Fatal(err)
		}
		limits[f] = int64(1) << uint(bits)
	}
	seenMax := map[string]bool{}
	for _, p := range refPackets(g, 300) {
		for f, v := range p.Fields {
			limit := limits[f]
			if v != 0 && v != 1 && v != limit-1 {
				t.Fatalf("field %s drew %d (limit %d)", f, v, limit)
			}
			if v == limit-1 {
				seenMax[f] = true
			}
		}
	}
	for f := range limits {
		if limits[f] > 1 && !seenMax[f] {
			t.Fatalf("field %s never drew its maximum", f)
		}
	}
}

// TestDRMTTrafficGenBoundaryMaxInput: a MaxInput bound caps the boundary
// set like it caps the uniform range.
func TestDRMTTrafficGenBoundaryMaxInput(t *testing.T) {
	prog, err := p4.Parse(boundaryProg)
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewTrafficGenMode(3, prog, 16, TrafficBoundary)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range refPackets(g, 200) {
		for f, v := range p.Fields {
			if v != 0 && v != 1 && v != 15 {
				if f == "f.tiny" && v <= 1 {
					continue
				}
				t.Fatalf("bounded boundary mode drew %s=%d", f, v)
			}
		}
	}
	if _, err := NewTrafficGenMode(1, prog, 0, "chaotic"); err == nil {
		t.Fatal("unknown mode accepted")
	}
}

// TestDRMTTrafficGenRestart: a generator restarted on its program's plan
// continues exactly as one freshly built with that seed — same values
// from Fill, packet IDs restarting at 0 — in both modes, bounded
// and unbounded, wherever the previous stream was left.
func TestDRMTTrafficGenRestart(t *testing.T) {
	prog, err := p4.Parse(boundaryProg)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []TrafficMode{TrafficUniform, TrafficBoundary} {
		for _, max := range []int64{0, 100} {
			reused, err := NewTrafficGenMode(1, prog, max, mode)
			if err != nil {
				t.Fatal(err)
			}
			plan, err := newTraffic(prog, prog.FieldNames(), max, mode)
			if err != nil {
				t.Fatal(err)
			}
			buf, want := make([]int64, reused.NumFields()), make([]int64, reused.NumFields())
			for _, seed := range []int64{42, -7, 42, 0} {
				for i := int64(0); i < 1+(seed&3)*5; i++ {
					reused.Fill(buf)
				}
				reused.gen.Start(plan, seed)
				fresh, _ := NewTrafficGenMode(seed, prog, max, mode)
				for i := 0; i < 40; i++ {
					id, wantID := reused.Fill(buf), fresh.Fill(want)
					if id != wantID || !slices.Equal(buf, want) {
						t.Fatalf("%s max=%d seed %d: Fill %d = id %d %v, fresh generator id %d %v", mode, max, seed, i, id, buf, wantID, want)
					}
				}
			}
		}
	}
}
