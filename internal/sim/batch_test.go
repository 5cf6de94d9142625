package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"druzhba/internal/atoms"
	"druzhba/internal/core"
	"druzhba/internal/domino"
	"druzhba/internal/machinecode"
	"druzhba/internal/phv"
)

// batchReportsEqual fails unless the two BatchReports are byte-identical in
// every exported field (error compared by rendered message, mismatches by
// value and by rendering).
func batchReportsEqual(t *testing.T, label string, fused, ticks *BatchReport) {
	t.Helper()
	if fused.SpecName != ticks.SpecName {
		t.Fatalf("%s: spec %q vs %q", label, fused.SpecName, ticks.SpecName)
	}
	if fused.Checked != ticks.Checked || fused.Ticks != ticks.Ticks {
		t.Fatalf("%s: fused (checked=%d ticks=%d) != ticks (checked=%d ticks=%d)",
			label, fused.Checked, fused.Ticks, ticks.Checked, ticks.Ticks)
	}
	if (fused.Err == nil) != (ticks.Err == nil) {
		t.Fatalf("%s: Err %v vs %v", label, fused.Err, ticks.Err)
	}
	if fused.Err != nil && fused.Err.Error() != ticks.Err.Error() {
		t.Fatalf("%s: Err %q vs %q", label, fused.Err, ticks.Err)
	}
	if len(fused.Mismatches) != len(ticks.Mismatches) {
		t.Fatalf("%s: %d vs %d mismatches", label, len(fused.Mismatches), len(ticks.Mismatches))
	}
	for i := range fused.Mismatches {
		a, b := fused.Mismatches[i], ticks.Mismatches[i]
		if a.Index != b.Index || !a.Input.Equal(b.Input) || !a.Got.Equal(b.Got) || !a.Want.Equal(b.Want) || a.String() != b.String() {
			t.Fatalf("%s: mismatch %d differs: %s vs %s", label, i, &a, &b)
		}
	}
}

// miscompiled builds one random machine-code program twice: at Unoptimized,
// wrapped as the specification, and at level with the pair-th required pair
// moved to the next value of its domain (immediates: +1) — an injected
// miscompile. ok is false when that pair's domain has a single value.
func miscompiled(t *testing.T, seed int64, pair int, level core.OptLevel) (p *core.Pipeline, spec Spec, ok bool) {
	t.Helper()
	ok = true
	ref := randomizedPipeline(t, 3, 2, "pair", rand.New(rand.NewSource(seed)), core.Unoptimized)
	p = buildPipeline(t, 3, 2, "pair", func(s *core.Spec, code *machinecode.Program) {
		req := randomizeCode(s, code, rand.New(rand.NewSource(seed)))
		h := req[pair%len(req)]
		if h.Domain == 1 {
			ok = false
			return
		}
		v, _ := code.Get(h.Name)
		v++
		if h.Domain > 0 {
			v %= int64(h.Domain)
		}
		code.Set(h.Name, v)
	}, level)
	return p, &pipeSpec{p: ref}, ok
}

// Domino counterparts of passThroughSpec and brokenSpec: specifications the
// fused loop links after the cone.
const (
	passThroughDomino = "transaction { pkt.a = pkt.a; }"
	brokenDomino      = "transaction { if (pkt.a % 2 == 0) { pkt.a = pkt.a + 1; } }"
)

// dominoSpec binds src's fields, in first-use order, to containers 0, 1, … at
// p's width and returns a maker of fresh instances.
func dominoSpec(t *testing.T, p *core.Pipeline, src string) func() Spec {
	t.Helper()
	prog, err := domino.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	fields := domino.FieldMap{}
	for i, name := range prog.Fields() {
		fields[name] = i
	}
	b, err := domino.Bind(prog, fields, p.Bits())
	if err != nil {
		t.Fatal(err)
	}
	return func() Spec { return b.NewSpec() }
}

// TestBatchedFuzzMatchesStreamingSweep is the core byte-identity sweep: a
// fuzzer from NewFuzzer against the tick loop on the same prechecked
// pipeline, over a clean spec, a diverging spec and an injected miscompile —
// each specification a SpecFunc, which NewFuzzer's fuzzer runs on the tick
// loop of a clone, and the first two also as a Domino binding, which it runs
// on the fused loop — with and without a counterexample cap, at every
// prechecked level. The fuzzer is reused across the cells, as a campaign
// worker reuses its own. Every cell's BatchReport must equal the tick loop's
// field for field, mismatch for mismatch.
func TestBatchedFuzzMatchesStreamingSweep(t *testing.T) {
	const n = 300
	for _, level := range []core.OptLevel{core.SCCPropagation, core.SCCInlining, core.Compiled} {
		identity := buildPipeline(t, 3, 2, "pred_raw", nil, level)
		if !identity.Prechecked() {
			t.Fatalf("%s pipeline is not prechecked; the fused loop would never run", level)
		}
		wrong, wrongSpec, ok := miscompiled(t, 45, 14, level) // a handful of the 300 PHVs diverge
		if !ok {
			t.Fatal("the injected miscompile perturbed nothing")
		}
		for _, tc := range []struct {
			name      string
			pipe      *core.Pipeline
			spec      func() Spec
			diverging bool
		}{
			{"clean", identity, passThroughSpec, false},
			{"diverging", identity, brokenSpec, true},
			{"miscompiled", wrong, func() Spec { return wrongSpec }, true},
			{"clean domino", identity, dominoSpec(t, identity, passThroughDomino), false},
			{"diverging domino", identity, dominoSpec(t, identity, brokenDomino), true},
		} {
			ticks, fused := tickFuzzer(tc.pipe), NewFuzzer(tc.pipe)
			for _, maxMM := range []int{0, 3} {
				want, err := ticks.FuzzGen(tc.spec(), NewTrafficGen(9, 2, phv.Default32, 1000), n, FuzzOptions{}, maxMM)
				if err != nil {
					t.Fatal(err)
				}
				if tc.diverging && len(want.Mismatches) == 0 {
					t.Fatalf("%s/%s: the tick loop found no mismatches to cross-check", level, tc.name)
				}
				got, err := fused.FuzzGen(tc.spec(), NewTrafficGen(9, 2, phv.Default32, 1000), n, FuzzOptions{}, maxMM)
				if err != nil {
					t.Fatal(err)
				}
				batchReportsEqual(t, fmt.Sprintf("%s/%s/max=%d", level, tc.name, maxMM), got, want)
			}
		}
	}
}

// TestOutOfWidthCorpusIsRefused: a value a corpus entry gives a container
// outside the datapath, -1 or 2^bits, is refused by the plan with an error
// that names the entry, the container and the value, since the fuzzer's
// programs are optimized on the promise that every container fits. At the
// edge, 2^bits-1, the plan replays the trace, and the report is the same at
// Unoptimized (the tick loop) and at Compiled (the fused loop). A long entry
// is truncated to the PHV before the check, as before the replay.
func TestOutOfWidthCorpusIsRefused(t *testing.T) {
	const n = 60
	narrow := func(s *core.Spec, _ *machinecode.Program) { s.Bits = phv.MustWidth(8) }
	for _, at := range []int{0, 2, 37} {
		trace := func(v phv.Value) [][]phv.Value {
			rows := make([][]phv.Value, n)
			gen := NewTrafficGen(5, 2, phv.MustWidth(8), 0)
			for i := range rows {
				rows[i] = make([]phv.Value, 2)
				gen.Fill(rows[i])
			}
			rows[at][1] = v
			return rows
		}
		for _, bad := range []phv.Value{-1, 1 << 8} {
			_, err := NewTraffic(2, phv.MustWidth(8), 0, TrafficUniform, trace(bad))
			want := fmt.Sprintf("sim: corpus entry %d container 1 holds %d, outside the 8-bit datapath", at, bad)
			if err == nil || err.Error() != want {
				t.Fatalf("%d in entry %d: err = %v, want %q", bad, at, err, want)
			}
		}
		var reports []*BatchReport
		for _, level := range []core.OptLevel{core.Unoptimized, core.Compiled} {
			p := buildPipeline(t, 3, 2, "pred_raw", narrow, level)
			plan, err := NewTraffic(p.PHVLen(), p.Bits(), 0, TrafficUniform, trace(255))
			if err != nil {
				t.Fatal(err)
			}
			var gen TrafficGen
			gen.Start(plan, 0)
			rep, err := NewFuzzer(p).FuzzGen(brokenSpec(), &gen, n, FuzzOptions{}, 0)
			if err != nil {
				t.Fatal(err)
			}
			reports = append(reports, rep)
		}
		batchReportsEqual(t, fmt.Sprintf("255 in entry %d", at), reports[1], reports[0])
	}
	if _, err := NewTraffic(2, phv.MustWidth(8), 0, TrafficUniform, [][]phv.Value{{1, 2, 1 << 8}}); err != nil {
		t.Errorf("a long entry was checked past the PHV: %v", err)
	}
}

// failingSpec is a spec that gives up on packet at, behaving as the wrapped
// spec (diverging or not) on the packets before it.
type failingSpec struct {
	Spec
	at, calls int
}

func specErrAt(inner Spec, i int) Spec { return &failingSpec{Spec: inner, at: i} }

func (s *failingSpec) Reset() {
	s.Spec.Reset()
	s.calls = 0
}

func (s *failingSpec) Process(in *phv.PHV) (*phv.PHV, error) {
	if s.calls == s.at {
		return nil, errors.New("spec gave up")
	}
	s.calls++
	return s.Spec.Process(in)
}

// TestBatchedSpecErrorMatchesStreaming: a specification failure is harness
// misuse — a non-nil error and no report — on both loops, with identical
// messages; except when the counterexample cap was reached strictly before
// the failing packet's admission, in which case the capped report wins on
// both loops. The failing SpecFunc runs on the tick loop of NewFuzzer's
// fuzzer; a Domino binding whose transaction traps on that packet runs on
// the fused loop.
func TestBatchedSpecErrorMatchesStreaming(t *testing.T) {
	const n = 300
	p := buildPipeline(t, 3, 2, "pred_raw", nil, core.Compiled)
	run := func(f *Fuzzer, spec Spec, maxMM int) (*BatchReport, error) {
		return f.FuzzGen(spec, NewTrafficGen(9, 2, phv.Default32, 1000), n, FuzzOptions{}, maxMM)
	}
	// trapAt fails at packet i: the local t is assigned on packets 0..i-1.
	trapAt := func(i int, body string) func() Spec {
		return dominoSpec(t, p, fmt.Sprintf("state c = 0;\ntransaction { c = c + 1; if (c < %d) { int t = %s; } pkt.a = t; }", i+1, body))
	}
	for _, tc := range []struct {
		name          string
		clean, capped func() Spec
	}{
		{"specfunc", func() Spec { return specErrAt(passThroughSpec(), 100) }, func() Spec { return specErrAt(brokenSpec(), 200) }},
		{"domino", trapAt(100, "pkt.a"), trapAt(200, "pkt.a + 1")},
	} {
		// Clean prefix, spec failure at packet 100: harness error on both loops.
		want, werr := run(tickFuzzer(p), tc.clean(), 0)
		if werr == nil || want != nil {
			t.Fatalf("%s: tick loop spec failure: report=%v err=%v, want nil report and an error", tc.name, want, werr)
		}
		got, gerr := run(NewFuzzer(p), tc.clean(), 0)
		if gerr == nil || got != nil {
			t.Fatalf("%s: spec failure: report=%v err=%v, want nil report and an error", tc.name, got, gerr)
		}
		if gerr.Error() != werr.Error() {
			t.Fatalf("%s: err %q, tick loop err %q", tc.name, gerr, werr)
		}

		// Diverging spec capped at 1 mismatch long before the failure at
		// packet 200: the cap wins and both loops return the identical
		// capped report.
		wantCap, werr := run(tickFuzzer(p), tc.capped(), 1)
		if werr != nil {
			t.Fatalf("%s: capped tick loop run errored: %v", tc.name, werr)
		}
		if len(wantCap.Mismatches) != 1 || wantCap.Err != nil {
			t.Fatalf("%s: capped tick loop run: %+v, want exactly the capped mismatch", tc.name, wantCap)
		}
		f := NewFuzzer(p)
		gotCap, gerr := run(f, tc.capped(), 1)
		if gerr != nil {
			t.Fatal(gerr)
		}
		batchReportsEqual(t, tc.name+" cap-wins", gotCap, wantCap)
		if f.Linked() != (tc.name == "domino") {
			t.Errorf("%s: linked %v", tc.name, f.Linked())
		}
	}
}

// TestKernelSelection pins the choice a fuzzer makes per run, which no
// caller can override. At every prechecked level a Domino binding that fits
// the pipeline runs on the fused loop, over the cone core.Build made, and
// allocates nothing of the tick loop; a SpecFunc, a binding of another width
// and a binding with a field past the PHV each run on the tick loop, over a
// clone made on first use, and leave the pipeline unexecuted. The
// Unoptimized level runs the tick loop whatever the specification — there
// machine code is resolved at run time, and a missing pair (BuildUnchecked)
// is a finding with the tick loop's text and tick.
func TestKernelSelection(t *testing.T) {
	const pastPHV = `sim: spec "domino", PHV 0: domino: field "b" bound to container 2, PHV has 2`
	for _, level := range core.AllLevels() {
		p := buildPipeline(t, 2, 2, "pred_raw", nil, level)
		fitting := dominoSpec(t, p, brokenDomino)
		prog := domino.MustParse(brokenDomino)
		narrow, err := domino.NewPHVSpec(prog, domino.FieldMap{"a": 0}, phv.MustWidth(8))
		if err != nil {
			t.Fatal(err)
		}
		past, err := domino.NewPHVSpec(domino.MustParse("transaction { pkt.b = pkt.a + 1; }"), domino.FieldMap{"a": 0, "b": 2}, p.Bits())
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			name  string
			spec  Spec
			fused bool
			err   string
		}{
			{"fitting binding", fitting(), level != core.Unoptimized, ""},
			{"specfunc", brokenSpec(), false, ""},
			{"narrow binding", narrow, false, ""},
			{"binding past the PHV", past, false, pastPHV},
		} {
			label := fmt.Sprintf("%s/%s", level, tc.name)
			f := NewFuzzer(p)
			if f.onFused() != (level != core.Unoptimized) || f.Pipeline() != p || (f.onFused() && f.fused != p.Cone()) {
				t.Errorf("%s: the fuzzer does not hold the pipeline's own cone", label)
			}
			rep, err := f.FuzzGen(tc.spec, NewTrafficGen(3, 2, phv.Default32, 1000), 200, FuzzOptions{}, 0)
			if tc.err != "" {
				if err == nil || err.Error() != tc.err {
					t.Errorf("%s: report %v, error %v; want the error %s", label, rep, err, tc.err)
				}
			} else if err != nil {
				t.Fatalf("%s: %v", label, err)
			} else if rep.Checked != 200 || rep.Ticks != 201 || len(rep.Mismatches) == 0 {
				t.Errorf("%s: checked=%d ticks=%d mismatches=%d, want 200 PHVs over 201 ticks and a diverging run", label, rep.Checked, rep.Ticks, len(rep.Mismatches))
			}
			if f.Linked() != tc.fused || f.onTicks() == tc.fused {
				t.Errorf("%s: linked %v, tick loop laid out %v; want the fused loop %v", label, f.Linked(), f.onTicks(), tc.fused)
			}
			if tc.fused && (f.inputs != nil || f.want != nil) {
				t.Errorf("%s: a fused run allocated the tick loop's rings", label)
			}
			if f.onTicks() && f.stream.p == p {
				t.Errorf("%s: the tick loop executes the fuzzer's argument", label)
			}
			if !tc.fused && f.frame != nil {
				t.Errorf("%s: a tick-loop run laid out a frame of the fused loop", label)
			}
			if !allZeroState(p) {
				t.Fatalf("%s: NewFuzzer's argument was executed", label)
			}
		}
	}

	s := core.Spec{Depth: 2, Width: 1, StatelessALU: atoms.MustLoad("stateless_full"), StatefulALU: atoms.MustLoad("raw")}
	req, err := s.RequiredPairs()
	if err != nil {
		t.Fatal(err)
	}
	code := machinecode.New()
	for _, h := range req {
		code.Set(h.Name, 0)
	}
	code.Delete(machinecode.ALUHoleName(1, false, 0, "const_0"))
	p, err := core.BuildUnchecked(s, code)
	if err != nil {
		t.Fatal(err)
	}
	f := NewFuzzer(p)
	if f.onFused() {
		t.Fatal("a BuildUnchecked pipeline has a cone to link after")
	}
	if _, err := NewBatch(p, 8); err == nil {
		t.Fatal("NewBatch accepted an unoptimized pipeline")
	}
	rep, err := f.FuzzGen(passThroughSpec(), NewTrafficGen(4, 1, phv.Default32, 0), 10, FuzzOptions{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Packet 0 reaches the broken stage 1 on the second tick; nothing ever
	// completes.
	const wantErr = "sim: tick 1: "
	if rep.Err == nil || !strings.HasPrefix(rep.Err.Error(), wantErr) || !strings.Contains(rep.Err.Error(), "missing machine code pair") {
		t.Fatalf("Err = %v, want %q… missing machine code pair", rep.Err, wantErr)
	}
	if rep.Checked != 0 || rep.Ticks != 1 {
		t.Errorf("checked=%d ticks=%d, want 0 PHVs and the abort at tick 1", rep.Checked, rep.Ticks)
	}
}

// TestBatchMatchesStream differentially tests the fused full-grid engine
// against the tick loop over randomized stateful pipelines: same packets in
// vectors of varying size (with partial tails), same outputs packet for
// packet, same final stateful-ALU state.
func TestBatchMatchesStream(t *testing.T) {
	for trial := 0; trial < 3; trial++ {
		rng := rand.New(rand.NewSource(int64(70*trial + 7)))
		pStream := randomizedPipeline(t, 3, 2, "pair", rng, core.Compiled)
		rng = rand.New(rand.NewSource(int64(70*trial + 7)))
		pBatch := randomizedPipeline(t, 3, 2, "pair", rng, core.Compiled)

		const n = 50
		input := NewTrafficGen(int64(trial), 2, phv.Default32, 1<<16).Trace(n)

		stream := NewStream(pStream)
		want := phv.NewTrace()
		for fed := 0; fed < n || stream.InFlight() > 0; {
			var in []phv.Value
			if fed < n {
				in = input.At(fed).Raw()
				fed++
			}
			out, err := stream.Tick(in)
			if err != nil {
				t.Fatal(err)
			}
			if out != nil {
				want.Append(phv.FromValues(out))
			}
		}

		b, err := NewBatch(pBatch, 8)
		if err != nil {
			t.Fatal(err)
		}
		got := phv.NewTrace()
		for at := 0; at < n; at += 8 {
			m := 8
			if n-at < m {
				m = n - at // 50 = 6*8+2: the last chunk is a partial tail
			}
			for k := 0; k < m; k++ {
				b.Load(k, input.At(at+k).Raw())
			}
			if err := b.Run(m); err != nil {
				t.Fatal(err)
			}
			for k := 0; k < m; k++ {
				got.Append(phv.FromValues(b.Out(k)))
			}
		}
		if d := want.Diff(got); d != "" {
			t.Fatalf("trial %d: batch diverges from stream: %s", trial, d)
		}
		if !pBatch.StateSnapshot().Equal(pStream.StateSnapshot()) {
			t.Fatalf("trial %d: final stateful-ALU states diverge", trial)
		}
	}
}

// TestBatchAliasingAudit pins the row-ownership contract: Load copies its
// argument, so a caller mutating (or reusing) its row after Load cannot
// corrupt the batch; and output rows are overwritten in place across runs —
// never reallocated — so a slice held from run 1 observes run 2's packets
// instead of silently retaining stale ones.
func TestBatchAliasingAudit(t *testing.T) {
	p := buildPipeline(t, 2, 2, "", nil, core.Compiled) // identity pipeline
	b, err := NewBatch(p, 4)
	if err != nil || b.Cap() != 4 {
		t.Fatalf("NewBatch(p, 4): capacity %d, err %v", b.Cap(), err)
	}
	row := []phv.Value{10, 20}
	b.Load(0, row)
	row[0], row[1] = 99, 99 // caller reuses its buffer; the batch must not see it
	b.Load(1, []phv.Value{30, 40})
	if err := b.Run(2); err != nil {
		t.Fatal(err)
	}
	if out := b.Out(0); out[0] != 10 || out[1] != 20 {
		t.Fatalf("Load aliased the caller's row: packet 0 came out %v, want [10 20]", out)
	}
	if out := b.Out(1); out[0] != 30 || out[1] != 40 {
		t.Fatalf("identity outputs wrong: packet 1 came out %v", out)
	}

	// Rows are reused in place across Run: the held slice sees run 2.
	held := b.Out(0)
	b.Load(0, []phv.Value{77, 78})
	if err := b.Run(1); err != nil {
		t.Fatal(err)
	}
	if &held[0] != &b.Out(0)[0] || held[0] != 77 {
		t.Fatal("output rows were reallocated between runs")
	}

	// Capacity misuse is an error, not a partial run.
	if err := b.Run(5); err == nil {
		t.Fatal("Run beyond capacity succeeded")
	}
	if err := b.Run(0); err == nil {
		t.Fatal("empty Run succeeded")
	}
	if _, err := NewBatch(p, 0); err == nil {
		t.Fatal("NewBatch accepted capacity 0")
	}
}

// TestLoopAndCounterStopTogether plants a Domino specification that traps on
// the fused path — a local read unless the packet's pkt.a is nonzero, which
// seed-1 traffic below 16 first breaks at packet 4 — and checks that the
// packet loop and the oracle's counting run stop at that packet, and that the
// finding reads as it always has.
func TestLoopAndCounterStopTogether(t *testing.T) {
	const (
		n    = 200
		stop = 4
		want = `sim: spec "domino", PHV 4: domino: local "t" read before assignment`
	)
	p := buildPipeline(t, 3, 2, "pred_raw", nil, core.Compiled)
	prog, err := domino.Parse("transaction { if (pkt.a != 0) { int t = 1; } pkt.b = t; }")
	if err != nil {
		t.Fatal(err)
	}
	b, err := domino.Bind(prog, domino.FieldMap{"a": 0, "b": 1}, p.Bits())
	if err != nil {
		t.Fatal(err)
	}
	gen := func() *TrafficGen { return NewTrafficGen(1, p.PHVLen(), p.Bits(), 16) }
	f := NewFuzzer(p)
	if rep, err := f.FuzzGen(b.NewSpec(), gen(), n, FuzzOptions{}, 0); err == nil || err.Error() != want {
		t.Fatalf("fuzz: report %v, error %v; want the error %s", rep, err, want)
	}
	if !f.Linked() || f.oracle.Trap() < 0 {
		t.Fatal("the trapping specification was not linked as one that traps")
	}
	if _, packets := f.oracle.Count(gen(), n); packets != stop+1 {
		t.Errorf("the counting run ran %d packets, the loop stopped at packet %d", packets, stop)
	}
	if all, upTo := f.Dispatched(b.NewSpec(), gen(), n), f.Dispatched(b.NewSpec(), gen(), stop+1); all != upTo {
		t.Errorf("%d instructions dispatched over %d packets, %d up to the trap", all, n, upTo)
	}
}
