// Package tenancy adds hardware multitenancy support to the Druzhba
// machine model — the final future-work direction of §7 of the paper
// ("adding hardware support for multitenancy", citing "Multitenancy for
// fast and programmable networks in the cloud", HotCloud 2020).
//
// The model is space partitioning: every tenant owns a disjoint set of
// PHV containers and a disjoint range of ALU slots in every pipeline
// stage. A tenant writes machine code against its own *virtual* pipeline
// (stage 0..depth-1, slot 0..width-1, container 0..n-1) exactly as if it
// owned the hardware; the tenancy layer relocates the virtual names and
// remaps mux selections onto the physical pipeline and merges the tenants'
// programs into one physical machine code program.
//
// Isolation is enforced twice: by construction (Relocate can only produce
// references to the tenant's own containers and slots) and by inspection
// (CheckIsolation structurally audits any physical machine code program —
// however it was produced — against the partition, flagging every
// cross-tenant read and write).
package tenancy

import (
	"fmt"
	"sort"

	"druzhba/internal/aludsl"
	"druzhba/internal/core"
	"druzhba/internal/domino"
	"druzhba/internal/machinecode"
)

// Tenant is one slice of the physical pipeline.
type Tenant struct {
	// Name identifies the tenant in machine code merges and error
	// messages.
	Name string

	// SlotLo and SlotHi bound the tenant's ALU slots: in every stage the
	// tenant owns the stateless and stateful ALUs with slot indices in
	// [SlotLo, SlotHi).
	SlotLo, SlotHi int

	// Containers lists the physical PHV containers the tenant owns, in
	// virtual order: virtual container i is physical Containers[i].
	Containers []int

	// StageOffset is the physical stage hosting the tenant's virtual
	// stage 0.
	StageOffset int

	// Depth is the tenant's virtual pipeline depth. 0 means the full
	// physical depth (with StageOffset 0).
	Depth int
}

// width returns the tenant's virtual pipeline width.
func (t *Tenant) width() int { return t.SlotHi - t.SlotLo }

// depth returns the tenant's virtual depth given the physical depth.
func (t *Tenant) depth(physical int) int {
	if t.Depth == 0 {
		return physical - t.StageOffset
	}
	return t.Depth
}

// Partition assigns slices of one physical pipeline to tenants.
type Partition struct {
	// Physical is the shared hardware. PHVLen must cover every tenant's
	// containers.
	Physical core.Spec

	// Tenants are the slices; they must not overlap.
	Tenants []Tenant
}

// Validate checks slice bounds and pairwise disjointness.
func (p *Partition) Validate() error {
	phys, err := p.Physical.Normalize()
	if err != nil {
		return fmt.Errorf("tenancy: physical spec: %w", err)
	}
	phvLen := phys.PHVLen
	seenName := map[string]bool{}
	slotOwner := map[int]string{}
	contOwner := map[int]string{}
	for i := range p.Tenants {
		t := &p.Tenants[i]
		if t.Name == "" {
			return fmt.Errorf("tenancy: tenant %d has no name", i)
		}
		if seenName[t.Name] {
			return fmt.Errorf("tenancy: duplicate tenant name %q", t.Name)
		}
		seenName[t.Name] = true
		if t.SlotLo < 0 || t.SlotHi > p.Physical.Width || t.SlotLo >= t.SlotHi {
			return fmt.Errorf("tenancy: %s: slot range [%d,%d) invalid for width %d",
				t.Name, t.SlotLo, t.SlotHi, p.Physical.Width)
		}
		if t.StageOffset < 0 || t.StageOffset >= p.Physical.Depth {
			return fmt.Errorf("tenancy: %s: stage offset %d out of range [0,%d)",
				t.Name, t.StageOffset, p.Physical.Depth)
		}
		if d := t.depth(p.Physical.Depth); d < 1 || t.StageOffset+d > p.Physical.Depth {
			return fmt.Errorf("tenancy: %s: stages [%d,%d) exceed physical depth %d",
				t.Name, t.StageOffset, t.StageOffset+d, p.Physical.Depth)
		}
		if len(t.Containers) == 0 {
			return fmt.Errorf("tenancy: %s: no containers", t.Name)
		}
		for _, c := range t.Containers {
			if c < 0 || c >= phvLen {
				return fmt.Errorf("tenancy: %s: container %d out of range [0,%d)", t.Name, c, phvLen)
			}
			if owner, taken := contOwner[c]; taken {
				return fmt.Errorf("tenancy: container %d owned by both %s and %s", c, owner, t.Name)
			}
			contOwner[c] = t.Name
		}
		for s := t.SlotLo; s < t.SlotHi; s++ {
			if owner, taken := slotOwner[s]; taken {
				return fmt.Errorf("tenancy: ALU slot %d owned by both %s and %s", s, owner, t.Name)
			}
			slotOwner[s] = t.Name
		}
	}
	return nil
}

// tenant looks a tenant up by name.
func (p *Partition) tenant(name string) (*Tenant, error) {
	for i := range p.Tenants {
		if p.Tenants[i].Name == name {
			return &p.Tenants[i], nil
		}
	}
	return nil, fmt.Errorf("tenancy: unknown tenant %q", name)
}

// VirtualSpec returns the hardware spec a tenant programs against: its own
// depth and width, its containers renumbered 0..n-1, the shared ALU
// descriptions and datapath width.
func (p *Partition) VirtualSpec(name string) (core.Spec, error) {
	t, err := p.tenant(name)
	if err != nil {
		return core.Spec{}, err
	}
	return core.Spec{
		Depth:        t.depth(p.Physical.Depth),
		Width:        t.width(),
		PHVLen:       len(t.Containers),
		Bits:         p.Physical.Bits,
		StatefulALU:  p.Physical.StatefulALU,
		StatelessALU: p.Physical.StatelessALU,
	}, nil
}

// Relocate translates a tenant's virtual machine code program onto the
// physical pipeline: names move to the tenant's physical stages and slots,
// operand mux selections map to physical containers, and output mux
// selections map to physical ALU indices. The virtual code must be
// complete and in range for the tenant's virtual spec.
func (p *Partition) Relocate(name string, virtual *machinecode.Program) (*machinecode.Program, error) {
	t, err := p.tenant(name)
	if err != nil {
		return nil, err
	}
	vspec, err := p.VirtualSpec(name)
	if err != nil {
		return nil, err
	}
	if errs := (&vspec).Validate(virtual); len(errs) > 0 {
		return nil, fmt.Errorf("tenancy: %s: virtual machine code invalid: %v", name, errs[0])
	}
	out := machinecode.New()
	vw := vspec.Width
	pw := p.Physical.Width
	relocALU := func(vs int, stateful bool, vslot int, prog *aludsl.Program) {
		ps, pslot := vs+t.StageOffset, vslot+t.SlotLo
		for op := 0; op < prog.NumOperands(); op++ {
			v, _ := virtual.Get(machinecode.OperandMuxName(vs, stateful, vslot, op))
			out.Set(machinecode.OperandMuxName(ps, stateful, pslot, op), int64(t.Containers[v]))
		}
		for _, h := range prog.Holes {
			v, _ := virtual.Get(machinecode.ALUHoleName(vs, stateful, vslot, h.Name))
			out.Set(machinecode.ALUHoleName(ps, stateful, pslot, h.Name), v)
		}
	}
	for vs := 0; vs < vspec.Depth; vs++ {
		for vslot := 0; vslot < vw; vslot++ {
			relocALU(vs, false, vslot, vspec.StatelessALU)
			if vspec.StatefulALU != nil {
				relocALU(vs, true, vslot, vspec.StatefulALU)
			}
		}
		for vc := 0; vc < vspec.PHVLen; vc++ {
			sel, _ := virtual.Get(machinecode.OutputMuxName(vs, vc))
			var psel int64
			switch {
			case sel == 0:
				psel = 0
			case sel >= 1 && int(sel) <= vw:
				// Virtual stateless slot sel-1 -> physical slot
				// t.SlotLo+sel-1 -> physical selection index +1.
				psel = int64(t.SlotLo) + sel
			default:
				// Virtual stateful slot sel-vw-1 (validation guarantees
				// sel <= 2*vw when a stateful ALU exists).
				psel = int64(pw) + int64(t.SlotLo) + (sel - int64(vw))
			}
			out.Set(machinecode.OutputMuxName(vs+t.StageOffset, t.Containers[vc]), psel)
		}
	}
	return out, nil
}

// Merge relocates every tenant's virtual machine code and combines them
// into one physical program. Physical primitives no tenant configured get
// inert defaults: output muxes pass through, ALU holes are 0, and operand
// muxes of tenant-owned ALUs select the tenant's first container (so even
// inert ALUs never read across the partition).
func (p *Partition) Merge(codes map[string]*machinecode.Program) (*machinecode.Program, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	for name := range codes {
		if _, err := p.tenant(name); err != nil {
			return nil, err
		}
	}
	phys, err := p.Physical.Normalize()
	if err != nil {
		return nil, err
	}
	req, err := phys.RequiredPairs()
	if err != nil {
		return nil, err
	}
	merged := machinecode.New()
	for _, h := range req {
		merged.Set(h.Name, 0)
	}
	// Inert operand muxes of owned slots point at the owner's first
	// container.
	relocDefaults := func(t *Tenant, prog *aludsl.Program, stateful bool) {
		for s := 0; s < phys.Depth; s++ {
			for slot := t.SlotLo; slot < t.SlotHi; slot++ {
				for op := 0; op < prog.NumOperands(); op++ {
					merged.Set(machinecode.OperandMuxName(s, stateful, slot, op), int64(t.Containers[0]))
				}
			}
		}
	}
	for i := range p.Tenants {
		t := &p.Tenants[i]
		relocDefaults(t, phys.StatelessALU, false)
		if phys.StatefulALU != nil {
			relocDefaults(t, phys.StatefulALU, true)
		}
	}
	// Sort tenant names for deterministic merge order (slices are
	// disjoint, so order does not change the result; determinism keeps
	// output stable).
	names := make([]string, 0, len(codes))
	for name := range codes {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		reloc, err := p.Relocate(name, codes[name])
		if err != nil {
			return nil, err
		}
		merged.Merge(reloc)
	}
	return merged, nil
}

// Violation is one isolation breach found by CheckIsolation.
type Violation struct {
	Tenant string // owner of the primitive at fault ("" = unallocated)
	Pair   string // machine code pair name
	Msg    string
}

func (v Violation) String() string {
	who := v.Tenant
	if who == "" {
		who = "unallocated"
	}
	return fmt.Sprintf("%s: %s: %s", who, v.Pair, v.Msg)
}

// CheckIsolation audits a physical machine code program against the
// partition. It reports a violation for every ALU operand mux that reads a
// container outside its owner's slice, every output mux that writes a
// tenant's container from an ALU the tenant does not own, and every
// unallocated container that does not pass through. Machine code that
// passes CheckIsolation cannot move information between tenants.
func (p *Partition) CheckIsolation(code *machinecode.Program) []Violation {
	phys, err := p.Physical.Normalize()
	if err != nil {
		return []Violation{{Msg: err.Error()}}
	}
	var out []Violation
	phvLen := phys.PHVLen

	slotOwner := map[int]*Tenant{}
	contOwner := map[int]*Tenant{}
	for i := range p.Tenants {
		t := &p.Tenants[i]
		for s := t.SlotLo; s < t.SlotHi; s++ {
			slotOwner[s] = t
		}
		for _, c := range t.Containers {
			contOwner[c] = t
		}
	}
	ownsContainer := func(t *Tenant, c int) bool {
		for _, tc := range t.Containers {
			if tc == c {
				return true
			}
		}
		return false
	}

	checkALU := func(stage, slot int, stateful bool, prog *aludsl.Program) {
		t := slotOwner[slot]
		if t == nil {
			return // unallocated ALU: its output is unreachable from tenant containers
		}
		for op := 0; op < prog.NumOperands(); op++ {
			name := machinecode.OperandMuxName(stage, stateful, slot, op)
			v, ok := code.Get(name)
			if !ok {
				out = append(out, Violation{Tenant: t.Name, Pair: name, Msg: "missing pair"})
				continue
			}
			if v < 0 || int(v) >= phvLen {
				out = append(out, Violation{Tenant: t.Name, Pair: name,
					Msg: fmt.Sprintf("selects container %d, out of range", v)})
				continue
			}
			if !ownsContainer(t, int(v)) {
				out = append(out, Violation{Tenant: t.Name, Pair: name,
					Msg: fmt.Sprintf("reads container %d across the partition", v)})
			}
		}
	}

	for stage := 0; stage < phys.Depth; stage++ {
		for slot := 0; slot < phys.Width; slot++ {
			checkALU(stage, slot, false, phys.StatelessALU)
			if phys.StatefulALU != nil {
				checkALU(stage, slot, true, phys.StatefulALU)
			}
		}
		for c := 0; c < phvLen; c++ {
			name := machinecode.OutputMuxName(stage, c)
			sel, ok := code.Get(name)
			t := contOwner[c]
			if !ok {
				tn := ""
				if t != nil {
					tn = t.Name
				}
				out = append(out, Violation{Tenant: tn, Pair: name, Msg: "missing pair"})
				continue
			}
			if sel == 0 {
				continue // pass-through is always safe
			}
			if t == nil {
				out = append(out, Violation{Pair: name,
					Msg: fmt.Sprintf("unallocated container written (selection %d)", sel)})
				continue
			}
			// Resolve the selected ALU slot.
			var slot int
			switch {
			case sel >= 1 && int(sel) <= phys.Width:
				slot = int(sel) - 1
			case int(sel) >= phys.Width+1 && int(sel) <= 2*phys.Width && phys.StatefulALU != nil:
				slot = int(sel) - phys.Width - 1
			default:
				out = append(out, Violation{Tenant: t.Name, Pair: name,
					Msg: fmt.Sprintf("selection %d out of range", sel)})
				continue
			}
			if owner := slotOwner[slot]; owner != t {
				out = append(out, Violation{Tenant: t.Name, Pair: name,
					Msg: fmt.Sprintf("written from ALU slot %d across the partition", slot)})
			}
		}
	}
	return out
}

// PhysicalFieldMap translates a tenant's virtual Domino field binding
// (virtual container indices) to physical container indices, for fuzzing
// or verifying the tenant's slice of a merged pipeline.
func (p *Partition) PhysicalFieldMap(name string, virtual domino.FieldMap) (domino.FieldMap, error) {
	t, err := p.tenant(name)
	if err != nil {
		return nil, err
	}
	out := make(domino.FieldMap, len(virtual))
	for f, vc := range virtual {
		if vc < 0 || vc >= len(t.Containers) {
			return nil, fmt.Errorf("tenancy: %s: field %q bound to virtual container %d, tenant has %d",
				name, f, vc, len(t.Containers))
		}
		out[f] = t.Containers[vc]
	}
	return out, nil
}

// Containers returns the physical containers a tenant owns (copy).
func (p *Partition) Containers(name string) ([]int, error) {
	t, err := p.tenant(name)
	if err != nil {
		return nil, err
	}
	return append([]int(nil), t.Containers...), nil
}
