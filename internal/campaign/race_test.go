//go:build race

package campaign

// raceEnabled reports a -race build, whose instrumentation moves values to
// the heap that a plain build keeps on the stack, so allocation counts are
// not comparable to a budget.
const raceEnabled = true
