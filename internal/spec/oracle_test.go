package spec

import (
	"strings"
	"sync"
	"testing"

	"druzhba/internal/core"
	"druzhba/internal/sim"
)

// perturbations changes one literal of each Table-1 program into a program
// that is no longer the one its machine-code fixture implements.
var perturbations = map[string][2]string{
	"blue-decrease":     {"pkt.idle * 2", "pkt.idle * 3"},
	"blue-increase":     {"pm + 2", "pm + 3"},
	"sampling":          {"count == 9", "count == 8"},
	"marple-new-flow":   {"count == 1", "count == 2"},
	"marple-tcp-nmo":    {"pkt.nmo = 1", "pkt.nmo = 2"},
	"snap-heavy-hitter": {"count >= 99", "count >= 98"},
	"stateful-firewall": {"pkt.dir % 2", "pkt.dir % 3"},
	"flowlets":          {"pkt.arr - 50", "pkt.arr - 60"},
	"learn-filter":      {"% 101", "% 102"},
	"rcp":               {"pkt.rtt <= 500", "pkt.rtt <= 400"},
	"conga":             {"state bestutil = 0;", "state bestutil = 4294967295;"},
	"spam-detection":    {"score >= 1000", "score >= 500"},
}

// TestPerturbedSpecIsCaught guards against a blind oracle: a specification
// evaluator that stopped looking (skipped statements, stale state, outputs
// never written) would agree with every pipeline. Each Table-1 program with
// one literal changed must disagree with its own fixture within 4096 PHVs.
func TestPerturbedSpecIsCaught(t *testing.T) {
	for _, bm := range All() {
		change, ok := perturbations[bm.Name]
		if !ok {
			t.Errorf("%s: no perturbation", bm.Name)
			continue
		}
		if strings.Count(bm.DominoSrc, change[0]) != 1 {
			t.Errorf("%s: %q does not occur exactly once in the program", bm.Name, change[0])
			continue
		}
		wrong := &Benchmark{
			Name: bm.Name, Depth: bm.Depth, Width: bm.Width, Atom: bm.Atom,
			DominoSrc: strings.Replace(bm.DominoSrc, change[0], change[1], 1),
			Fields:    bm.Fields, MaxInput: bm.MaxInput, build: bm.build,
		}
		rep, err := wrong.Verify(core.Compiled, 1, 4096)
		if err != nil {
			t.Errorf("%s: %v", bm.Name, err)
			continue
		}
		if rep.Err != nil || rep.Passed() {
			t.Errorf("%s: %q -> %q went unnoticed over %d PHVs (err %v)", bm.Name, change[0], change[1], rep.Checked, rep.Err)
		}
	}
}

// TestSimSpecInstancesShareNothingMutable: the benchmark parses and binds
// once; the instances it hands to concurrent runners advance independently
// (run under -race).
func TestSimSpecInstancesShareNothingMutable(t *testing.T) {
	bm, err := Lookup("sampling")
	if err != nil {
		t.Fatal(err)
	}
	p1, _ := bm.DominoProgram()
	p2, _ := bm.DominoProgram()
	if p1 == nil || p1 != p2 {
		t.Fatalf("DominoProgram parsed twice: %p %p", p1, p2)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(packets int) {
			defer wg.Done()
			sp, err := bm.SimSpec()
			if err != nil {
				t.Error(err)
				return
			}
			vals := make([]int64, 1)
			for i := 0; i < packets; i++ {
				if err := sp.(sim.StreamSpec).ProcessStream(vals); err != nil {
					t.Error(err)
					return
				}
			}
			// sampling marks every 10th packet, counted per instance.
			want := int64(0)
			if packets%10 == 0 {
				want = 1
			}
			if vals[0] != want {
				t.Errorf("after %d packets sample = %d, want %d", packets, vals[0], want)
			}
		}(10 + g)
	}
	wg.Wait()
}
