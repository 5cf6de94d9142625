package phv

// TrafficMode selects the distribution a traffic generator draws values
// from. It is defined once here and aliased by both machine models (package
// sim for RMT containers, package drmt for packet fields), so one parsed
// -traffic list serves both architectures.
type TrafficMode string

const (
	// TrafficUniform draws every value uniformly from [0, limit) — the
	// paper's §3.3 / §4.2 regime and the zero value of the type.
	TrafficUniform TrafficMode = "uniform"

	// TrafficBoundary draws every value from the boundary set of the draw
	// range (BoundaryValues). ALU carry, wrap-around and comparison edges
	// live at exactly these values, so boundary traffic is the adversarial
	// counterpart of the uniform regime.
	TrafficBoundary TrafficMode = "boundary"
)

// Valid reports whether m names a known traffic mode; the empty string
// counts as TrafficUniform.
func (m TrafficMode) Valid() bool {
	return m == "" || m == TrafficUniform || m == TrafficBoundary
}

// BoundaryValues is the deduplicated boundary set of the draw range
// [0, limit): zero, one and limit-1 (the all-ones pattern when the limit is
// a full power-of-two width).
func BoundaryValues(limit int64) []Value {
	set := []Value{0}
	for _, v := range []int64{1, limit - 1} {
		if v > 0 && v < limit && v != set[len(set)-1] {
			set = append(set, v)
		}
	}
	return set
}
