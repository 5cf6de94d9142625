package tenancy

import (
	"math/rand"
	"strings"
	"testing"

	"druzhba/internal/atoms"
	"druzhba/internal/core"
	"druzhba/internal/domino"
	"druzhba/internal/machinecode"
	"druzhba/internal/sim"
	"druzhba/internal/spec"
	"druzhba/internal/verify"
)

// twoTenantPartition builds the canonical test partition: a 2x2 physical
// pipeline with if_else_raw atoms, split into two 2x1 slices.
func twoTenantPartition(t *testing.T) *Partition {
	t.Helper()
	p := &Partition{
		Physical: core.Spec{
			Depth: 2, Width: 2, PHVLen: 2,
			StatelessALU: atoms.MustLoad("stateless_full"),
			StatefulALU:  atoms.MustLoad("if_else_raw"),
		},
		Tenants: []Tenant{
			{Name: "alice", SlotLo: 0, SlotHi: 1, Containers: []int{0}},
			{Name: "bob", SlotLo: 1, SlotHi: 2, Containers: []int{1}},
		},
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	return p
}

// samplingVirtual returns the Table 1 sampling fixture, which is exactly a
// tenant's virtual 2x1 program.
func samplingVirtual(t *testing.T) (*machinecode.Program, *domino.Program, domino.FieldMap) {
	t.Helper()
	bm, err := spec.Lookup("sampling")
	if err != nil {
		t.Fatal(err)
	}
	code, err := bm.MachineCode()
	if err != nil {
		t.Fatal(err)
	}
	prog, err := bm.DominoProgram()
	if err != nil {
		t.Fatal(err)
	}
	return code, prog, bm.Fields
}

func TestValidateRejectsOverlaps(t *testing.T) {
	base := core.Spec{
		Depth: 2, Width: 2, PHVLen: 2,
		StatelessALU: atoms.MustLoad("stateless_full"),
		StatefulALU:  atoms.MustLoad("if_else_raw"),
	}
	cases := []struct {
		name    string
		tenants []Tenant
		wantErr string
	}{
		{"overlapping slots", []Tenant{
			{Name: "a", SlotLo: 0, SlotHi: 2, Containers: []int{0}},
			{Name: "b", SlotLo: 1, SlotHi: 2, Containers: []int{1}},
		}, "slot"},
		{"overlapping containers", []Tenant{
			{Name: "a", SlotLo: 0, SlotHi: 1, Containers: []int{0}},
			{Name: "b", SlotLo: 1, SlotHi: 2, Containers: []int{0}},
		}, "container 0"},
		{"container out of range", []Tenant{
			{Name: "a", SlotLo: 0, SlotHi: 1, Containers: []int{5}},
		}, "out of range"},
		{"slot range out of width", []Tenant{
			{Name: "a", SlotLo: 0, SlotHi: 3, Containers: []int{0}},
		}, "slot range"},
		{"empty slot range", []Tenant{
			{Name: "a", SlotLo: 1, SlotHi: 1, Containers: []int{0}},
		}, "slot range"},
		{"duplicate names", []Tenant{
			{Name: "a", SlotLo: 0, SlotHi: 1, Containers: []int{0}},
			{Name: "a", SlotLo: 1, SlotHi: 2, Containers: []int{1}},
		}, "duplicate"},
		{"missing name", []Tenant{
			{SlotLo: 0, SlotHi: 1, Containers: []int{0}},
		}, "no name"},
		{"stage offset out of range", []Tenant{
			{Name: "a", SlotLo: 0, SlotHi: 1, Containers: []int{0}, StageOffset: 5},
		}, "stage offset"},
		{"depth beyond pipeline", []Tenant{
			{Name: "a", SlotLo: 0, SlotHi: 1, Containers: []int{0}, StageOffset: 1, Depth: 2},
		}, "exceed"},
		{"no containers", []Tenant{
			{Name: "a", SlotLo: 0, SlotHi: 1},
		}, "no containers"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := &Partition{Physical: base, Tenants: tc.tenants}
			err := p.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("want error containing %q, got %v", tc.wantErr, err)
			}
		})
	}
}

func TestVirtualSpecDimensions(t *testing.T) {
	p := twoTenantPartition(t)
	vs, err := p.VirtualSpec("bob")
	if err != nil {
		t.Fatal(err)
	}
	if vs.Depth != 2 || vs.Width != 1 || vs.PHVLen != 1 {
		t.Fatalf("bob's virtual spec = %dx%d phv %d, want 2x1 phv 1", vs.Depth, vs.Width, vs.PHVLen)
	}
	if _, err := p.VirtualSpec("carol"); err == nil {
		t.Fatal("unknown tenant should error")
	}
}

func TestRelocateMapsNamesAndSelections(t *testing.T) {
	p := twoTenantPartition(t)
	code, _, _ := samplingVirtual(t)

	reloc, err := p.Relocate("bob", code)
	if err != nil {
		t.Fatal(err)
	}
	// Bob's virtual stateful ALU slot 0 lands in physical slot 1.
	if _, ok := reloc.Get(machinecode.ALUHoleName(0, true, 1, "rel_op_0")); !ok {
		t.Fatal("relocated code is missing bob's stage-0 stateful ALU holes")
	}
	if _, ok := reloc.Get(machinecode.ALUHoleName(0, true, 0, "rel_op_0")); ok {
		t.Fatal("relocated code must not touch alice's slot 0")
	}
	// Bob's operand muxes select his physical container 1.
	v, ok := reloc.Get(machinecode.OperandMuxName(0, true, 1, 0))
	if !ok || v != 1 {
		t.Fatalf("bob's operand mux = %d,%v; want 1", v, ok)
	}
	// The sampling fixture's stage-0 output mux selects the stateful ALU
	// (virtual selection 2 on a 2x1 pipeline); on the 2-wide physical
	// pipeline bob's stateful slot 1 is selection 2+1+1 = 4.
	sel, ok := reloc.Get(machinecode.OutputMuxName(0, 1))
	if !ok {
		t.Fatal("missing relocated output mux")
	}
	if sel != 4 {
		t.Fatalf("relocated output mux selection = %d, want 4", sel)
	}
}

func TestRelocateRejectsInvalidVirtualCode(t *testing.T) {
	p := twoTenantPartition(t)
	code, _, _ := samplingVirtual(t)
	code.Delete(machinecode.OutputMuxName(0, 0))
	if _, err := p.Relocate("bob", code); err == nil {
		t.Fatal("incomplete virtual code should be rejected")
	}
}

// TestMergedTenantsBothCorrect merges two sampling tenants and fuzzes each
// tenant's slice of the shared pipeline against its own specification.
func TestMergedTenantsBothCorrect(t *testing.T) {
	p := twoTenantPartition(t)
	code, prog, fields := samplingVirtual(t)
	merged, err := p.Merge(map[string]*machinecode.Program{
		"alice": code,
		"bob":   code.Clone(),
	})
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := core.Build(p.Physical, merged, core.SCCInlining)
	if err != nil {
		t.Fatal(err)
	}
	for _, tenant := range []string{"alice", "bob"} {
		pf, err := p.PhysicalFieldMap(tenant, fields)
		if err != nil {
			t.Fatal(err)
		}
		dspec, err := domino.NewPHVSpec(prog, pf, pipe.Bits())
		if err != nil {
			t.Fatal(err)
		}
		containers, err := domino.WrittenContainers(prog, pf)
		if err != nil {
			t.Fatal(err)
		}
		pipe.ResetState()
		gen := sim.NewTrafficGen(7, pipe.PHVLen(), pipe.Bits(), 0)
		rep, err := sim.NewFuzzer(pipe).FuzzGen(dspec, gen, 2000, sim.FuzzOptions{Containers: containers}, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Passed() {
			t.Fatalf("%s: %v", tenant, rep)
		}
	}
}

// TestMergedSliceProvesFormally upgrades the per-tenant fuzz result to a
// proof: alice's slice of the merged pipeline is formally equivalent to
// the sampling specification.
func TestMergedSliceProvesFormally(t *testing.T) {
	p := twoTenantPartition(t)
	code, prog, fields := samplingVirtual(t)
	merged, err := p.Merge(map[string]*machinecode.Program{
		"alice": code,
		"bob":   code.Clone(),
	})
	if err != nil {
		t.Fatal(err)
	}
	pf, err := p.PhysicalFieldMap("alice", fields)
	if err != nil {
		t.Fatal(err)
	}
	res, err := verify.Equivalence(p.Physical, merged, prog, pf, verify.Options{Bits: 5, Steps: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Equivalent {
		t.Fatalf("alice's slice should prove: %v", res)
	}
}

// randomVirtualCode fills every pair of the tenant's virtual spec with a
// random in-domain value.
func randomVirtualCode(t *testing.T, vs core.Spec, rng *rand.Rand) *machinecode.Program {
	t.Helper()
	req, err := vs.RequiredPairs()
	if err != nil {
		t.Fatal(err)
	}
	code := machinecode.New()
	for _, h := range req {
		if h.Domain > 0 {
			code.Set(h.Name, rng.Int63n(int64(h.Domain)))
		} else {
			code.Set(h.Name, rng.Int63n(16))
		}
	}
	return code
}

// TestIsolationProperty is the security property of the partition: no
// matter what machine code bob runs, alice's output trace is bit-for-bit
// unchanged. Twenty random bob programs are compared against an inert-bob
// baseline on the same input trace.
func TestIsolationProperty(t *testing.T) {
	p := twoTenantPartition(t)
	aliceCode, _, _ := samplingVirtual(t)
	vsBob, err := p.VirtualSpec("bob")
	if err != nil {
		t.Fatal(err)
	}

	baselineMerged, err := p.Merge(map[string]*machinecode.Program{"alice": aliceCode})
	if err != nil {
		t.Fatal(err)
	}
	baselinePipe, err := core.Build(p.Physical, baselineMerged, core.SCCInlining)
	if err != nil {
		t.Fatal(err)
	}
	gen := sim.NewTrafficGen(99, 2, baselinePipe.Bits(), 0)
	input := gen.Trace(500)
	baselinePipe.ResetState()
	baseRes, err := sim.Run(baselinePipe, input)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(5))
	for iter := 0; iter < 20; iter++ {
		bobCode := randomVirtualCode(t, vsBob, rng)
		merged, err := p.Merge(map[string]*machinecode.Program{
			"alice": aliceCode,
			"bob":   bobCode,
		})
		if err != nil {
			t.Fatal(err)
		}
		if viol := p.CheckIsolation(merged); len(viol) != 0 {
			t.Fatalf("iter %d: merged code violates isolation: %v", iter, viol[0])
		}
		pipe, err := core.Build(p.Physical, merged, core.SCCInlining)
		if err != nil {
			t.Fatal(err)
		}
		pipe.ResetState()
		res, err := sim.Run(pipe, input)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < input.Len(); i++ {
			if res.Output.At(i).Get(0) != baseRes.Output.At(i).Get(0) {
				t.Fatalf("iter %d: bob's code changed alice's container at PHV %d: %d != %d",
					iter, i, res.Output.At(i).Get(0), baseRes.Output.At(i).Get(0))
			}
		}
	}
}

func TestCheckIsolationFlagsCrossTenantRead(t *testing.T) {
	p := twoTenantPartition(t)
	code, _, _ := samplingVirtual(t)
	merged, err := p.Merge(map[string]*machinecode.Program{"alice": code, "bob": code.Clone()})
	if err != nil {
		t.Fatal(err)
	}
	// Point one of bob's operand muxes at alice's container 0.
	merged.Set(machinecode.OperandMuxName(0, true, 1, 0), 0)
	viol := p.CheckIsolation(merged)
	if len(viol) == 0 {
		t.Fatal("cross-tenant read not flagged")
	}
	if viol[0].Tenant != "bob" || !strings.Contains(viol[0].Msg, "reads container 0") {
		t.Fatalf("unexpected violation: %v", viol[0])
	}
}

func TestCheckIsolationFlagsCrossTenantWrite(t *testing.T) {
	p := twoTenantPartition(t)
	code, _, _ := samplingVirtual(t)
	merged, err := p.Merge(map[string]*machinecode.Program{"alice": code, "bob": code.Clone()})
	if err != nil {
		t.Fatal(err)
	}
	// Alice's container written from bob's stateful ALU (slot 1 -> physical
	// stateful selection 2+1+1 = 4).
	merged.Set(machinecode.OutputMuxName(0, 0), 4)
	viol := p.CheckIsolation(merged)
	if len(viol) == 0 {
		t.Fatal("cross-tenant write not flagged")
	}
	if viol[0].Tenant != "alice" || !strings.Contains(viol[0].Msg, "across the partition") {
		t.Fatalf("unexpected violation: %v", viol[0])
	}
}

func TestCheckIsolationFlagsUnallocatedWrite(t *testing.T) {
	p := &Partition{
		Physical: core.Spec{
			Depth: 1, Width: 2, PHVLen: 3,
			StatelessALU: atoms.MustLoad("stateless_full"),
		},
		Tenants: []Tenant{
			{Name: "a", SlotLo: 0, SlotHi: 1, Containers: []int{0}},
		},
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	merged, err := p.Merge(map[string]*machinecode.Program{})
	if err != nil {
		t.Fatal(err)
	}
	// Container 2 is unallocated; writing it from any ALU is flagged.
	merged.Set(machinecode.OutputMuxName(0, 2), 1)
	viol := p.CheckIsolation(merged)
	if len(viol) == 0 || !strings.Contains(viol[0].Msg, "unallocated") {
		t.Fatalf("unallocated write not flagged: %v", viol)
	}
}

func TestCheckIsolationMissingPairs(t *testing.T) {
	p := twoTenantPartition(t)
	code, _, _ := samplingVirtual(t)
	merged, err := p.Merge(map[string]*machinecode.Program{"alice": code})
	if err != nil {
		t.Fatal(err)
	}
	merged.Delete(machinecode.OutputMuxName(0, 0))
	viol := p.CheckIsolation(merged)
	found := false
	for _, v := range viol {
		if strings.Contains(v.Msg, "missing") {
			found = true
		}
	}
	if !found {
		t.Fatalf("missing pair not flagged: %v", viol)
	}
}

func TestStageOffsetTenant(t *testing.T) {
	// A tenant occupying only stage 1 of a 3-stage pipeline.
	p := &Partition{
		Physical: core.Spec{
			Depth: 3, Width: 1, PHVLen: 1,
			StatelessALU: atoms.MustLoad("stateless_full"),
		},
		Tenants: []Tenant{
			{Name: "a", SlotLo: 0, SlotHi: 1, Containers: []int{0}, StageOffset: 1, Depth: 1},
		},
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	vs, err := p.VirtualSpec("a")
	if err != nil {
		t.Fatal(err)
	}
	if vs.Depth != 1 {
		t.Fatalf("virtual depth = %d, want 1", vs.Depth)
	}
	// Virtual code: stateless ALU doubles the container (a+a), output mux
	// selects it.
	req, err := vs.RequiredPairs()
	if err != nil {
		t.Fatal(err)
	}
	code := machinecode.New()
	for _, h := range req {
		code.Set(h.Name, 0)
	}
	code.Set(machinecode.OutputMuxName(0, 0), 1)
	merged, err := p.Merge(map[string]*machinecode.Program{"a": code})
	if err != nil {
		t.Fatal(err)
	}
	// The configuration must land in physical stage 1.
	if v, ok := merged.Get(machinecode.OutputMuxName(1, 0)); !ok || v != 1 {
		t.Fatalf("stage-1 output mux = %d,%v; want 1", v, ok)
	}
	// Stages 0 and 2 pass through.
	for _, s := range []int{0, 2} {
		if v, _ := merged.Get(machinecode.OutputMuxName(s, 0)); v != 0 {
			t.Fatalf("stage-%d output mux = %d, want passthrough", s, v)
		}
	}
	// End to end: the pipeline computes a+a once.
	pipe, err := core.Build(p.Physical, merged, core.SCCInlining)
	if err != nil {
		t.Fatal(err)
	}
	dspec, err := domino.NewPHVSpec(
		mustParse(t, `transaction { pkt.a = pkt.a + pkt.a; }`),
		domino.FieldMap{"a": 0}, pipe.Bits())
	if err != nil {
		t.Fatal(err)
	}
	gen := sim.NewTrafficGen(3, pipe.PHVLen(), pipe.Bits(), 0)
	rep, err := sim.NewFuzzer(pipe).FuzzGen(dspec, gen, 1000, sim.FuzzOptions{Containers: []int{0}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Passed() {
		t.Fatalf("offset tenant: %v", rep)
	}
}

func TestPhysicalFieldMapBounds(t *testing.T) {
	p := twoTenantPartition(t)
	if _, err := p.PhysicalFieldMap("alice", domino.FieldMap{"x": 3}); err == nil {
		t.Fatal("out-of-range virtual container should error")
	}
	pf, err := p.PhysicalFieldMap("bob", domino.FieldMap{"x": 0})
	if err != nil {
		t.Fatal(err)
	}
	if pf["x"] != 1 {
		t.Fatalf("bob's field maps to %d, want 1", pf["x"])
	}
	if cs, _ := p.Containers("bob"); len(cs) != 1 || cs[0] != 1 {
		t.Fatalf("bob's containers = %v", cs)
	}
}

func mustParse(t *testing.T, src string) *domino.Program {
	t.Helper()
	prog, err := domino.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}
