// Package casestudy reproduces the paper's §5.2 case study: a battery of
// small Domino packet transactions is compiled to Druzhba machine code with
// the synthesis-based compiler (package synth), and every result is tested
// by fuzzing against its specification. The paper reports over 120 correct
// Chipmunk programs and 8 failures — 2 from machine code files missing the
// output-mux pairs, and the rest from machine code that "only satisfied a
// limited range of values" because synthesis ran at a low bit width; this
// harness reproduces all three populations.
package casestudy

import (
	"fmt"
	"runtime"
	"strings"
	"sync"

	"druzhba/internal/atoms"
	"druzhba/internal/core"
	"druzhba/internal/domino"
	"druzhba/internal/machinecode"
	"druzhba/internal/phv"
	"druzhba/internal/sim"
	"druzhba/internal/synth"
)

// Case is one program in the battery.
type Case struct {
	Name   string
	Atom   string // stateful atom ("" = stateless-only 1x1 pipeline)
	Domino string
	Fields domino.FieldMap

	// ExpectLimited marks programs whose specification cannot be expressed
	// with the sketch's immediates: synthesis at low bit width will accept
	// machine code that is wrong for large values (§5.2's second failure
	// class).
	ExpectLimited bool

	// VerifyBits overrides the synthesis verification bit width for this
	// case (0 = Options.VerifyBits). The limited-range cases use 2 bits,
	// emulating the case study's synthesis runs that "failed to find
	// machine code to satisfy 10-bit inputs in the allotted time" and fell
	// back to a narrow input range.
	VerifyBits int

	// code holds the synthesized machine code after a run (used by the
	// missing-pair failure injection).
	code *machinecode.Program
}

// Spec returns the 1x1 pipeline configuration for the case.
func (c *Case) Spec() (core.Spec, error) {
	s := core.Spec{Depth: 1, Width: 1, StatelessALU: atoms.MustLoad("stateless_full")}
	if c.Atom != "" {
		stateful, err := atoms.Load(c.Atom)
		if err != nil {
			return s, err
		}
		s.StatefulALU = stateful
	}
	return s, nil
}

// Battery generates the full program battery: families of packet
// transactions over every atom class, plus the limited-range specs.
func Battery() []*Case {
	var cases []*Case
	add := func(name, atom, src string, limited bool) {
		cases = append(cases, &Case{
			Name:          name,
			Atom:          atom,
			Domino:        src,
			Fields:        domino.FieldMap{"v": 0},
			ExpectLimited: limited,
		})
	}
	stateless := func(name, body string) {
		add(name, "", "transaction {\n    "+body+"\n}\n", false)
	}

	// Stateless arithmetic families over the full ALU.
	for k := 0; k < 8; k++ {
		stateless(fmt.Sprintf("add-%d", k), fmt.Sprintf("pkt.v = pkt.v + %d;", k))
		stateless(fmt.Sprintf("sub-%d", k), fmt.Sprintf("pkt.v = pkt.v - %d;", k))
		stateless(fmt.Sprintf("const-%d", k), fmt.Sprintf("pkt.v = %d;", k))
		stateless(fmt.Sprintf("mul-%d", k), fmt.Sprintf("pkt.v = pkt.v * %d;", k))
	}
	for k := 1; k < 8; k++ {
		stateless(fmt.Sprintf("div-%d", k), fmt.Sprintf("pkt.v = pkt.v / %d;", k))
		stateless(fmt.Sprintf("mod-%d", k), fmt.Sprintf("pkt.v = pkt.v %% %d;", k))
	}
	// Relational families.
	for k := 0; k < 4; k++ {
		for _, rel := range []struct{ name, op string }{
			{"eq", "=="}, {"neq", "!="}, {"lt", "<"}, {"gt", ">"}, {"le", "<="}, {"ge", ">="},
		} {
			stateless(fmt.Sprintf("%s-%d", rel.name, k),
				fmt.Sprintf("if (pkt.v %s %d) {\n        pkt.v = 1;\n    } else {\n        pkt.v = 0;\n    }", rel.op, k))
		}
	}
	// Logical families.
	for k := 0; k < 4; k++ {
		stateless(fmt.Sprintf("and-%d", k), fmt.Sprintf("if (pkt.v && %d) { pkt.v = 1; } else { pkt.v = 0; }", k))
		stateless(fmt.Sprintf("or-%d", k), fmt.Sprintf("if (pkt.v || %d) { pkt.v = 1; } else { pkt.v = 0; }", k))
	}
	// Reverse subtraction: the first ALU operand comes from the immediate.
	for k := 0; k < 6; k++ {
		stateless(fmt.Sprintf("rsub-%d", k), fmt.Sprintf("pkt.v = %d - pkt.v;", k))
	}
	stateless("identity", "pkt.v = pkt.v;")
	stateless("square", "pkt.v = pkt.v * pkt.v;")
	stateless("double", "pkt.v = pkt.v + pkt.v;")

	// raw atom: running sums.
	add("sum-v", "raw", `
state s = 0;
transaction {
    s = s + pkt.v;
    pkt.v = s;
}
`, false)
	for k := 0; k < 8; k++ {
		add(fmt.Sprintf("count-%d", k), "raw", fmt.Sprintf(`
state s = 0;
transaction {
    s = s + %d;
    pkt.v = s;
}
`, k), false)
	}

	// sub atom: running differences.
	add("diff-v", "sub", `
state s = 0;
transaction {
    s = s - pkt.v;
    pkt.v = s;
}
`, false)
	for k := 0; k < 8; k++ {
		add(fmt.Sprintf("drain-%d", k), "sub", fmt.Sprintf(`
state s = 0;
transaction {
    s = s - %d;
    pkt.v = s;
}
`, k), false)
	}

	// pred_raw atom: guarded updates.
	add("runmax", "pred_raw", `
state s = 0;
transaction {
    if (s <= pkt.v) {
        s = pkt.v;
    }
    pkt.v = s;
}
`, false)
	for k := 0; k < 8; k++ {
		add(fmt.Sprintf("stepeq-%d", k), "pred_raw", fmt.Sprintf(`
state s = 0;
transaction {
    if (s == pkt.v) {
        s = s + %d;
    }
    pkt.v = s;
}
`, k), false)
	}

	// if_else_raw atom: periodic counters (the Fig. 1 program family).
	for k := 1; k <= 7; k++ {
		add(fmt.Sprintf("period-%d", k), "if_else_raw", fmt.Sprintf(`
state s = 0;
transaction {
    if (s == %d) {
        s = 0;
    } else {
        s = s + 1;
    }
    pkt.v = s;
}
`, k), false)
	}

	// pair atom: two-state trackers. flag-k flips once a packet counter
	// crosses k; track-k is a CONGA-style maximum tracker counting its
	// updates in steps of k.
	for k := 0; k < 3; k++ {
		add(fmt.Sprintf("flag-%d", k), "pair", fmt.Sprintf(`
state c = 0;
state f = 0;
transaction {
    if (c >= %d) {
        c = c + 1;
        f = 1;
    } else {
        c = c + 1;
        f = 0;
    }
    pkt.v = f;
}
`, k), false)
	}
	for k := 0; k < 5; k++ {
		add(fmt.Sprintf("maxstep-%d", k), "pair", fmt.Sprintf(`
state best = 0;
transaction {
    if (best <= pkt.v) {
        best = pkt.v;
    } else {
        best = best + %d;
    }
    pkt.v = best;
}
`, k), false)
	}

	// The limited-range specs: thresholds no immediate can express, so
	// low-bit-width synthesis returns machine code valid only for small
	// values (§5.2: "the pipeline simulation failing for large PHV
	// container values over 100").
	for k := 0; k < 6; k++ {
		threshold := 100 + k
		statelessLimited := &Case{
			Name:          fmt.Sprintf("ge-%d", threshold),
			Domino:        fmt.Sprintf("transaction {\n    if (pkt.v >= %d) {\n        pkt.v = 1;\n    } else {\n        pkt.v = 0;\n    }\n}\n", threshold),
			Fields:        domino.FieldMap{"v": 0},
			ExpectLimited: true,
			VerifyBits:    2,
		}
		cases = append(cases, statelessLimited)
	}
	return cases
}

// FailureClass labels an outcome.
type FailureClass string

const (
	// Correct: synthesized and validated at the high bit width.
	Correct FailureClass = "correct"
	// SynthesisFailed: no machine code found within budget.
	SynthesisFailed FailureClass = "synthesis-failed"
	// LimitedRange: synthesized machine code fails for large values.
	LimitedRange FailureClass = "insufficient-machine-code-values"
	// MissingPairs: machine code file missing pipeline pairs (injected).
	MissingPairs FailureClass = "missing-machine-code-pairs"
)

// Outcome is the result for one case.
type Outcome struct {
	Case       *Case
	Class      FailureClass
	Iterations int
	Detail     string
}

// Options configures a case-study run.
type Options struct {
	Seed         int64
	MaxIters     int // per-case search budget (default 150000)
	VerifyBits   int // synthesis bit width (default 10; per-case override wins)
	ValidateBits int // post-synthesis validation bit width (default 10)
	Workers      int // parallel workers (default NumCPU)

	// InjectMissingPairs corrupts this many correct results by deleting
	// their output-mux pairs and re-running simulation, reproducing the
	// first §5.2 failure class (default 2).
	InjectMissingPairs int
}

func (o Options) withDefaults() Options {
	if o.MaxIters <= 0 {
		o.MaxIters = 150000
	}
	if o.VerifyBits <= 0 {
		o.VerifyBits = 10
	}
	if o.ValidateBits <= 0 {
		o.ValidateBits = 10
	}
	if o.Workers <= 0 {
		o.Workers = runtime.NumCPU()
	}
	if o.InjectMissingPairs < 0 {
		o.InjectMissingPairs = 0
	} else if o.InjectMissingPairs == 0 {
		o.InjectMissingPairs = 2
	}
	return o
}

// Summary aggregates a run.
type Summary struct {
	Outcomes []Outcome
	Total    int
	ByClass  map[FailureClass]int
}

// Run synthesizes and validates every case, then injects the missing-pair
// failures. Cases run in parallel; results are deterministic for a given
// seed because every case derives its own seed from its index.
func Run(cases []*Case, opts Options) (*Summary, error) {
	o := opts.withDefaults()
	outcomes := make([]Outcome, len(cases))
	var wg sync.WaitGroup
	sem := make(chan struct{}, o.Workers)
	var firstErr error
	var mu sync.Mutex

	for i, c := range cases {
		wg.Add(1)
		go func(i int, c *Case) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			out, err := runCase(c, o, o.Seed+int64(i)*7919)
			if err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = fmt.Errorf("case %s: %w", c.Name, err)
				}
				mu.Unlock()
				return
			}
			outcomes[i] = out
		}(i, c)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}

	// Inject the missing-output-mux-pair failures into correct results.
	injected := 0
	for i := range outcomes {
		if injected >= o.InjectMissingPairs {
			break
		}
		if outcomes[i].Class != Correct {
			continue
		}
		out, err := injectMissingPair(&outcomes[i], o)
		if err != nil {
			return nil, err
		}
		outcomes[i] = out
		injected++
	}

	s := &Summary{Outcomes: outcomes, Total: len(outcomes), ByClass: map[FailureClass]int{}}
	for _, out := range outcomes {
		s.ByClass[out.Class]++
	}
	return s, nil
}

func runCase(c *Case, o Options, seed int64) (Outcome, error) {
	out := Outcome{Case: c}
	spec, err := c.Spec()
	if err != nil {
		return out, err
	}
	prog, err := domino.Parse(c.Domino)
	if err != nil {
		return out, fmt.Errorf("parsing %s: %w", c.Name, err)
	}
	prog.Name = c.Name
	target, err := domino.NewPHVSpec(prog, c.Fields, phv.Default32)
	if err != nil {
		return out, err
	}
	containers, err := domino.WrittenContainers(prog, c.Fields)
	if err != nil {
		return out, err
	}
	verifyBits := o.VerifyBits
	if c.VerifyBits > 0 {
		verifyBits = c.VerifyBits
	}
	sopts := synth.Options{
		Seed:       seed,
		MaxIters:   o.MaxIters,
		VerifyBits: verifyBits,
		Containers: containers,
	}
	if c.Atom != "" {
		// Stateful atoms have coupled holes and history-dependent
		// behaviour: verify with longer and more numerous traces, and give
		// the search a larger budget.
		sopts.TracePackets = 24
		sopts.VerifyTraces = 40
		sopts.MaxIters = o.MaxIters * 2
	}
	res, err := synth.Synthesize(spec, target, sopts)
	if err != nil {
		return out, err
	}
	out.Iterations = res.Iterations
	if !res.Found {
		out.Class = SynthesisFailed
		out.Detail = fmt.Sprintf("no machine code after %d iterations", res.Iterations)
		return out, nil
	}
	rep, err := synth.Validate(spec, res.Code, target, o.ValidateBits, seed+1, 1500, containers)
	if err != nil {
		return out, err
	}
	if rep.Passed() {
		out.Class = Correct
	} else {
		out.Class = LimitedRange
		out.Detail = rep.String()
	}
	out.Case.code = res.Code
	return out, nil
}

// injectMissingPair deletes the case's output-mux pairs and re-runs the
// simulation unchecked, which must fail at runtime.
func injectMissingPair(out *Outcome, o Options) (Outcome, error) {
	c := out.Case
	spec, err := c.Spec()
	if err != nil {
		return *out, err
	}
	code := c.code.Clone()
	deleted := 0
	for _, name := range code.Names() {
		if isOutputMux(name) {
			code.Delete(name)
			deleted++
		}
	}
	if deleted == 0 {
		return *out, fmt.Errorf("case %s: no output mux pairs to delete", c.Name)
	}
	p, err := core.BuildUnchecked(spec, code)
	if err != nil {
		return *out, err
	}
	gen := sim.NewTrafficGen(o.Seed, p.PHVLen(), p.Bits(), 16)
	_, simErr := sim.Run(p, gen.Trace(8))
	if simErr == nil {
		return *out, fmt.Errorf("case %s: simulation succeeded despite %d deleted output-mux pairs", c.Name, deleted)
	}
	res := *out
	res.Class = MissingPairs
	res.Detail = simErr.Error()
	return res, nil
}

func isOutputMux(name string) bool {
	return strings.Contains(name, "_output_mux_phv_")
}

// Format renders a summary in the style of §5.2.
func (s *Summary) Format(verbose bool) string {
	out := fmt.Sprintf("case study: %d machine code programs tested\n", s.Total)
	out += fmt.Sprintf("  correct:  %d\n", s.ByClass[Correct])
	failures := s.Total - s.ByClass[Correct]
	out += fmt.Sprintf("  failures: %d\n", failures)
	out += fmt.Sprintf("    missing machine code pairs (output muxes): %d\n", s.ByClass[MissingPairs])
	out += fmt.Sprintf("    insufficient machine code values (fail for large PHV values): %d\n", s.ByClass[LimitedRange])
	out += fmt.Sprintf("    synthesis budget exhausted: %d\n", s.ByClass[SynthesisFailed])
	if verbose {
		for _, o := range s.Outcomes {
			out += fmt.Sprintf("  %-14s %-34s %s", o.Case.Atom+":", o.Case.Name, o.Class)
			if o.Detail != "" {
				out += " (" + o.Detail + ")"
			}
			out += "\n"
		}
	}
	return out
}
