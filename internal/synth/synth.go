// Package synth is a program-synthesis-based compiler targeting Druzhba's
// RMT instruction set — the stand-in for Chipmunk, the compiler of the
// paper's §5.2 case study. Chipmunk uses SKETCH; offline and without solver
// bindings, this package uses the same architecture with a search-based
// guesser:
//
//   - the sketch is the pipeline configuration: every machine code pair is a
//     hole with a finite domain (mux selectors, opcodes, and immediates
//     bounded by Options.MaxConst);
//   - the guesser is a stochastic hill climb with random restarts that
//     minimizes the number of output mismatches against a training set of
//     input/output traces;
//   - the verifier (CEGIS loop) checks candidates on fresh random traces
//     drawn from a bounded input domain (Options.VerifyBits) and feeds
//     counterexample traces back into the training set.
//
// Bounded verification is deliberate: it reproduces the §5.2 failure mode
// where "the synthesis engine failed to find machine code to satisfy 10-bit
// inputs", returning machine code correct only for a limited value range.
package synth

import (
	"errors"
	"fmt"
	"math/rand"

	"druzhba/internal/core"
	"druzhba/internal/machinecode"
	"druzhba/internal/phv"
	"druzhba/internal/sim"
)

// Options configures a synthesis run.
type Options struct {
	Seed int64

	// MaxConst bounds the immediate holes' search domain (default 8).
	MaxConst int64

	// VerifyBits is the bit width of the bounded verification domain
	// (default 2, i.e. inputs in [0,4), mirroring the case study's
	// low-bit-width synthesis).
	VerifyBits int

	// TracePackets is the length of each training/verification trace
	// (default 16).
	TracePackets int

	// InitialTraces seeds the training set (default 2).
	InitialTraces int

	// VerifyTraces is the number of fresh traces per verification round
	// (default 20).
	VerifyTraces int

	// MaxIters bounds total search steps across restarts (default 200000).
	MaxIters int

	// RestartAfter restarts the hill climb after this many non-improving
	// steps (default 2000).
	RestartAfter int

	// Containers restricts output comparison (nil = all containers).
	Containers []int
}

func (o Options) withDefaults() Options {
	if o.MaxConst <= 0 {
		o.MaxConst = 8
	}
	if o.VerifyBits <= 0 {
		o.VerifyBits = 2
	}
	if o.TracePackets <= 0 {
		o.TracePackets = 16
	}
	if o.InitialTraces <= 0 {
		o.InitialTraces = 2
	}
	if o.VerifyTraces <= 0 {
		o.VerifyTraces = 20
	}
	if o.MaxIters <= 0 {
		o.MaxIters = 200000
	}
	if o.RestartAfter <= 0 {
		o.RestartAfter = 2000
	}
	return o
}

// Result is the outcome of a synthesis run.
type Result struct {
	Found       bool
	Code        *machinecode.Program // valid only when Found
	Iterations  int                  // search steps consumed
	CEGISRounds int                  // verification rounds (counterexamples + 1)
	Examples    int                  // final training-set size
}

// Synthesize searches for machine code that makes the pipeline described by
// spec equivalent to target on the bounded input domain. The target's state
// is reset before every evaluation.
func Synthesize(spec core.Spec, target sim.Spec, opts Options) (*Result, error) {
	o := opts.withDefaults()
	rng := rand.New(rand.NewSource(o.Seed))

	spec, err := spec.Normalize()
	if err != nil {
		return nil, err
	}
	holes, err := spec.RequiredPairs()
	if err != nil {
		return nil, err
	}
	domains := make([]int64, len(holes))
	for i, h := range holes {
		if h.Domain > 0 {
			domains[i] = int64(h.Domain)
		} else {
			domains[i] = o.MaxConst
		}
	}
	maxVal := int64(1) << uint(o.VerifyBits)

	// Training set: input traces plus the target's expected outputs.
	type example struct {
		in   *phv.Trace
		want *phv.Trace
	}
	var examples []example
	addExample := func(in *phv.Trace) error {
		want, err := sim.RunSpec(target, in)
		if err != nil {
			return err
		}
		examples = append(examples, example{in: in, want: want})
		return nil
	}
	// The first training example is a deterministic boundary sweep: small
	// values and domain edges. SKETCH verifies exhaustively over the bounded
	// domain; fuzzing alone misses rare boundary events (a threshold
	// comparison against a small constant almost never triggers on uniform
	// inputs), so the sweep restores that coverage.
	if err := addExample(boundaryTrace(spec.PHVLen, o.TracePackets, maxVal, 0)); err != nil {
		return nil, err
	}
	gen := sim.NewTrafficGen(rng.Int63(), spec.PHVLen, spec.Bits, maxVal)
	for i := 0; i < o.InitialTraces; i++ {
		if err := addExample(gen.Trace(o.TracePackets)); err != nil {
			return nil, err
		}
	}

	assignment := make([]int64, len(holes))
	randomize := func() {
		for i := range assignment {
			assignment[i] = rng.Int63n(domains[i])
		}
	}
	toCode := func(a []int64) *machinecode.Program {
		code := machinecode.New()
		for i, h := range holes {
			code.Set(h.Name, a[i])
		}
		return code
	}

	// cost counts mismatching (packet, container) pairs across the training
	// set; an unbuildable or failing candidate costs +infinity.
	const inf = int(^uint(0) >> 1)
	cost := func(a []int64) int {
		p, err := core.Build(spec, toCode(a), core.SCCInlining)
		if err != nil {
			return inf
		}
		total := 0
		for _, ex := range examples {
			p.ResetState()
			res, err := sim.Run(p, ex.in)
			if err != nil {
				return inf
			}
			for i := 0; i < ex.in.Len(); i++ {
				got, want := res.Output.At(i), ex.want.At(i)
				if o.Containers == nil {
					for c := 0; c < got.Len(); c++ {
						if got.Get(c) != want.Get(c) {
							total++
						}
					}
				} else {
					for _, c := range o.Containers {
						if got.Get(c) != want.Get(c) {
							total++
						}
					}
				}
			}
		}
		return total
	}

	res := &Result{}
	verifyGen := sim.NewTrafficGen(rng.Int63(), spec.PHVLen, spec.Bits, maxVal)

	for res.Iterations < o.MaxIters {
		// --- guess: hill climb with restarts over the training set -------
		randomize()
		cur := cost(assignment)
		stagnant := 0
		for cur != 0 && res.Iterations < o.MaxIters {
			i := rng.Intn(len(assignment))
			old := assignment[i]
			if rng.Intn(16) == 0 {
				// Coordinate descent: scan the hole's whole domain and keep
				// the best value. Cheap (domains are small) and effective on
				// the plateaus that defeat single random mutations.
				bestV, bestC := old, cur
				for v := int64(0); v < domains[i]; v++ {
					if v == old {
						continue
					}
					res.Iterations++
					assignment[i] = v
					if c := cost(assignment); c < bestC {
						bestV, bestC = v, c
					}
				}
				assignment[i] = bestV
				if bestC < cur {
					cur = bestC
					stagnant = 0
				} else {
					stagnant++
				}
			} else if rng.Intn(8) == 0 && len(assignment) > 1 {
				// Paired mutation: change two holes at once to cross the
				// plateaus where no single-hole move improves (e.g. a mux
				// selector and the constant it exposes).
				res.Iterations++
				j := rng.Intn(len(assignment))
				for j == i {
					j = rng.Intn(len(assignment))
				}
				oldJ := assignment[j]
				assignment[i] = rng.Int63n(domains[i])
				assignment[j] = rng.Int63n(domains[j])
				c := cost(assignment)
				if c <= cur {
					if c < cur {
						stagnant = 0
					} else {
						stagnant++
					}
					cur = c
				} else {
					assignment[i] = old
					assignment[j] = oldJ
					stagnant++
				}
			} else {
				res.Iterations++
				next := rng.Int63n(domains[i])
				if next == old && domains[i] > 1 {
					next = (next + 1) % domains[i]
				}
				assignment[i] = next
				c := cost(assignment)
				switch {
				case c < cur:
					cur = c
					stagnant = 0
				case c == cur && rng.Intn(4) == 0:
					// plateau walk
					stagnant++
				default:
					assignment[i] = old
					stagnant++
				}
			}
			if stagnant >= o.RestartAfter {
				randomize()
				cur = cost(assignment)
				stagnant = 0
			}
		}
		if cur != 0 {
			break // budget exhausted
		}

		// --- verify: fresh traces from the bounded domain ----------------
		res.CEGISRounds++
		candidate := toCode(assignment)
		p, err := core.Build(spec, candidate, core.SCCInlining)
		if err != nil {
			return nil, fmt.Errorf("synth: candidate unbuildable after zero cost: %w", err)
		}
		fz := sim.NewFuzzer(p)
		var counterexample *phv.Trace
		for v := 0; v < o.VerifyTraces; v++ {
			var in *phv.Trace
			if v < 2 {
				// Boundary sweeps first (offset so they differ from the
				// training sweep), then random traces.
				in = boundaryTrace(spec.PHVLen, o.TracePackets, maxVal, int64(v+1))
			} else {
				in = verifyGen.Trace(o.TracePackets)
			}
			passed, err := replay(fz, target, in, o.Containers)
			if err != nil {
				return nil, err
			}
			if !passed {
				counterexample = in
				break
			}
		}
		if counterexample == nil {
			res.Found = true
			res.Code = candidate
			res.Examples = len(examples)
			return res, nil
		}
		if err := addExample(counterexample); err != nil {
			return nil, err
		}
	}
	res.Examples = len(examples)
	return res, nil
}

// replay fuzzes the fuzzer's pipeline against the target on the trace, served
// as the corpus of a traffic plan, and reports whether every PHV matched. A
// trace value outside the datapath is an error.
func replay(fz *sim.Fuzzer, target sim.Spec, in *phv.Trace, containers []int) (bool, error) {
	p := fz.Pipeline()
	corpus := make([][]phv.Value, in.Len())
	for i := range corpus {
		corpus[i] = in.At(i).Raw()
	}
	plan, err := sim.NewTraffic(p.PHVLen(), p.Bits(), 0, sim.TrafficUniform, corpus)
	if err != nil {
		return false, err
	}
	var gen sim.TrafficGen
	gen.Start(plan, 0)
	rep, err := fz.FuzzGen(target, &gen, len(corpus), sim.FuzzOptions{Containers: containers}, 1)
	if err != nil {
		return false, err
	}
	return rep.Passed(), nil
}

// boundaryTrace builds a deterministic trace cycling through small values
// and domain edges: 0, 1, 2, ... interleaved with maxVal-1 and maxVal/2.
func boundaryTrace(phvLen, packets int, maxVal, offset int64) *phv.Trace {
	t := phv.NewTrace()
	for i := 0; i < packets; i++ {
		p := phv.New(phvLen)
		for c := 0; c < phvLen; c++ {
			var v int64
			switch (i + c) % 4 {
			case 0, 1:
				v = (int64(i+c)/2 + offset) % maxVal
			case 2:
				v = maxVal - 1 - (int64(i)+offset)%maxVal
				if v < 0 {
					v += maxVal
				}
			default:
				v = (maxVal/2 + int64(i+c) + offset) % maxVal
			}
			p.Set(c, v)
		}
		t.Append(p)
	}
	return t
}

// Validate checks synthesized machine code against the target on inputs of
// the given bit width — the post-synthesis test the case study ran with
// 10-bit inputs.
func Validate(spec core.Spec, code *machinecode.Program, target sim.Spec, bits int, seed int64, packets int, containers []int) (*sim.BatchReport, error) {
	if bits < 1 || bits > 31 {
		return nil, errors.New("synth: validation bits out of range [1,31]")
	}
	p, err := core.Build(spec, code, core.SCCInlining)
	if err != nil {
		return nil, err
	}
	gen := sim.NewTrafficGen(seed, p.PHVLen(), p.Bits(), int64(1)<<uint(bits))
	return sim.NewFuzzer(p).FuzzGen(target, gen, packets, sim.FuzzOptions{Containers: containers}, 1)
}
