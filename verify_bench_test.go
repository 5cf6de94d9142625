// Benchmarks for the formal verifier (§7 extension): the cost of proving
// each Table 1 machine code fixture equivalent to its specification, and
// how proof cost scales with the verification bit width — the knob the
// §5.2 case study turned when its synthesizer "failed to find machine code
// to satisfy 10-bit inputs in the allotted time".
//
// Run with:
//
//	go test -bench BenchmarkVerify -benchmem
package druzhba_test

import (
	"fmt"
	"testing"

	"druzhba/internal/spec"
	"druzhba/internal/verify"
	"druzhba/internal/verify/verifytest"
)

// proveFixture runs one equivalence proof for a Table 1 fixture.
func proveFixture(b *testing.B, name string, opts verify.Options) *verify.Result {
	b.Helper()
	bm, err := spec.Lookup(name)
	if err != nil {
		b.Fatal(err)
	}
	hw, err := bm.Spec()
	if err != nil {
		b.Fatal(err)
	}
	code, err := bm.MachineCode()
	if err != nil {
		b.Fatal(err)
	}
	prog, err := bm.DominoProgram()
	if err != nil {
		b.Fatal(err)
	}
	if bm.MaxInput > 0 && opts.MaxInput == 0 {
		opts.MaxInput = bm.MaxInput
	}
	res, err := verify.Equivalence(hw, code, prog, bm.Fields, opts)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkVerifyTable1 proves every Table 1 fixture at 4 bits over 2
// transactions; one iteration is one full proof (formula construction +
// SAT solving).
func BenchmarkVerifyTable1(b *testing.B) {
	for _, bm := range spec.All() {
		bm := bm
		b.Run(bm.Name, func(b *testing.B) {
			var vars int
			for i := 0; i < b.N; i++ {
				res := proveFixture(b, bm.Name, verify.Options{Bits: 4, Steps: 2})
				if !res.Equivalent {
					b.Fatalf("fixture should prove: %v", res)
				}
				vars = res.Vars
			}
			b.ReportMetric(float64(vars), "SATvars")
		})
	}
}

// BenchmarkVerifyWidthScaling proves the sampling fixture at increasing
// verification widths, showing how the exhaustive-proof cost grows where a
// fuzzer's cost would stay flat (it samples) while its coverage collapses.
func BenchmarkVerifyWidthScaling(b *testing.B) {
	for _, bits := range []int{3, 4, 6, 8, 10} {
		bits := bits
		b.Run(fmt.Sprintf("bits%d", bits), func(b *testing.B) {
			var vars int
			for i := 0; i < b.N; i++ {
				res := proveFixture(b, "sampling", verify.Options{Bits: bits, Steps: 2})
				if !res.Equivalent {
					b.Fatalf("sampling should prove at %d bits: %v", bits, res)
				}
				vars = res.Vars
			}
			b.ReportMetric(float64(vars), "SATvars")
		})
	}
}

// BenchmarkVerifySlowestCell times a proof that is a SAT search: a*b
// against b*a at 6 bits (verifytest.CommutedMul), equal but not structurally
// equal, so the miter survives gate hashing and the solver has to close it.
// The Table-1 cells no longer reach the solver — learn-filter at 5 bits,
// which this benchmark used to time, is decided while its miter is built —
// so this is the one benchmark here that rates the search, in conflicts and
// propagations per second of the whole proof.
func BenchmarkVerifySlowestCell(b *testing.B) {
	b.ReportAllocs()
	hw, code, prog, fields := verifytest.CommutedMul()
	var conflicts, props int64
	for i := 0; i < b.N; i++ {
		res, err := verify.Equivalence(hw, code, prog, fields, verify.Options{Bits: 6, Steps: 1})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Equivalent || res.SolverStats.Conflicts == 0 {
			b.Fatalf("commuted multiplication should prove by search: %v", res)
		}
		conflicts += res.SolverStats.Conflicts
		props += res.SolverStats.Propagations
	}
	b.ReportMetric(float64(conflicts)/b.Elapsed().Seconds(), "conflicts/s")
	b.ReportMetric(float64(props)/b.Elapsed().Seconds(), "props/s")
}
