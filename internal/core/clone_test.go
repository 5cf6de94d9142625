package core

import (
	"sync"
	"testing"

	"druzhba/internal/atoms"
	"druzhba/internal/machinecode"
	"druzhba/internal/phv"
)

// statefulTestSpec builds a 2x1 pipeline around an accumulating stateful
// atom so that processing PHVs observably mutates ALU state.
func statefulTestSpec(t *testing.T) (Spec, *machinecode.Program) {
	t.Helper()
	s := Spec{
		Depth:        2,
		Width:        1,
		StatelessALU: atoms.MustLoad("stateless_full"),
		StatefulALU:  atoms.MustLoad("raw"),
	}
	n, err := s.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	req, err := n.RequiredPairs()
	if err != nil {
		t.Fatal(err)
	}
	code := machinecode.New()
	for _, h := range req {
		code.Set(h.Name, 0)
	}
	// Route container 0 through the stateful ALU in both stages so its
	// state accumulates input values.
	code.Set(machinecode.OutputMuxName(0, 0), int64(1+n.Width))
	code.Set(machinecode.OutputMuxName(1, 0), int64(1+n.Width))
	return n, code
}

func processPHVs(t *testing.T, p *Pipeline, vals ...phv.Value) {
	t.Helper()
	for _, v := range vals {
		in := phv.New(p.PHVLen())
		in.Set(0, v)
		if _, err := p.Process(in); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCloneSharesNoState(t *testing.T) {
	spec, code := statefulTestSpec(t)
	for _, level := range AllLevels() {
		t.Run(level.String(), func(t *testing.T) {
			orig, err := Build(spec, code, level)
			if err != nil {
				t.Fatal(err)
			}
			clone := orig.Clone()

			// Mutate the original; the clone must stay pristine.
			processPHVs(t, orig, 7, 11, 13)
			if snap := clone.StateSnapshot(); !allZero(snap) {
				t.Fatalf("clone state mutated by original: %v", snap)
			}

			// And the other way around.
			fresh, err := Build(spec, code, level)
			if err != nil {
				t.Fatal(err)
			}
			c2 := fresh.Clone()
			processPHVs(t, c2, 3, 5)
			if snap := fresh.StateSnapshot(); !allZero(snap) {
				t.Fatalf("original state mutated by clone: %v", snap)
			}
		})
	}
}

func allZero(s phv.StateSnapshot) bool {
	for _, st := range s {
		for _, alu := range st {
			for _, v := range alu {
				if v != 0 {
					return false
				}
			}
		}
	}
	return true
}

// TestCloneCopiesCurrentState pins the documented semantics: a clone starts
// from the receiver's state, not from zero.
func TestCloneCopiesCurrentState(t *testing.T) {
	spec, code := statefulTestSpec(t)
	orig, err := Build(spec, code, SCCInlining)
	if err != nil {
		t.Fatal(err)
	}
	processPHVs(t, orig, 9)
	clone := orig.Clone()
	if got, want := clone.StateSnapshot(), orig.StateSnapshot(); !got.Equal(want) {
		t.Fatalf("clone state = %v, want copy of original %v", got, want)
	}
	// Diverge after the copy.
	processPHVs(t, orig, 1)
	if clone.StateSnapshot().Equal(orig.StateSnapshot()) {
		t.Fatal("clone still tracks original after divergence")
	}
}

// TestClonesRunConcurrently drives many clones in parallel; under -race this
// proves clones share no mutable execution state (operand buffers, output
// latches, state vectors).
func TestClonesRunConcurrently(t *testing.T) {
	spec, code := statefulTestSpec(t)
	for _, level := range AllLevels() {
		t.Run(level.String(), func(t *testing.T) {
			master, err := Build(spec, code, level)
			if err != nil {
				t.Fatal(err)
			}
			// Sequential reference.
			ref, err := Build(spec, code, level)
			if err != nil {
				t.Fatal(err)
			}
			processPHVs(t, ref, 1, 2, 3, 4, 5, 6, 7, 8)
			want := ref.StateSnapshot()

			var wg sync.WaitGroup
			snaps := make([]phv.StateSnapshot, 8)
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					c := master.Clone()
					for _, v := range []phv.Value{1, 2, 3, 4, 5, 6, 7, 8} {
						in := phv.New(c.PHVLen())
						in.Set(0, v)
						if _, err := c.Process(in); err != nil {
							t.Error(err)
							return
						}
					}
					snaps[g] = c.StateSnapshot()
				}(g)
			}
			wg.Wait()
			for g, snap := range snaps {
				if !snap.Equal(want) {
					t.Fatalf("clone %d state = %v, want %v", g, snap, want)
				}
			}
			if !allZero(master.StateSnapshot()) {
				t.Fatal("master pipeline state mutated by clones")
			}
		})
	}
}

// TestResetStateZeroesState: at every level ResetState zeroes the state
// processing left, and the pipeline then runs as a fresh build does.
func TestResetStateZeroesState(t *testing.T) {
	spec, code := statefulTestSpec(t)
	for _, level := range AllLevels() {
		t.Run(level.String(), func(t *testing.T) {
			p, err := Build(spec, code, level)
			if err != nil {
				t.Fatal(err)
			}
			processPHVs(t, p, 42, 43)
			if allZero(p.StateSnapshot()) {
				t.Fatal("test premise broken: processing did not mutate state")
			}
			p.ResetState()
			if !allZero(p.StateSnapshot()) {
				t.Fatalf("ResetState left state: %v", p.StateSnapshot())
			}
			fresh, err := Build(spec, code, level)
			if err != nil {
				t.Fatal(err)
			}
			processPHVs(t, p, 5)
			processPHVs(t, fresh, 5)
			if got, want := p.StateSnapshot(), fresh.StateSnapshot(); !got.Equal(want) {
				t.Fatalf("after ResetState: state %v, a fresh build's %v", got, want)
			}
		})
	}
}
