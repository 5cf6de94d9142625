package main

import (
	"time"
)

// The reference loop is how the harness tells a slow program from a slow
// machine. The sandboxes this benchmark runs in are two virtual cores of a
// shared host: neighbours take the cores away for tens of milliseconds at
// a time and, without any steal time being reported, slow them down by up
// to half for seconds or minutes (the same rep of drmt-diff used 212 ms of
// processor time in one second and 318 ms a few seconds later). Ten runs
// of one workload then spread by up to 18 % (30 % for the acceptance
// driver) whichever statistic of the rep times a run reports, and the
// median of ten runs moves by 10 to 35 % within the hour.
//
// So every timed region — a rep, a set-up — runs between two turns of a
// fixed piece of integer work on the same W threads, and what is reported
// is the region's time in units of the turns beside it: the median over
// the run of wall ÷ reference, times refNominalMS, the time one turn takes
// on the machine the bounds were set on when nothing disturbs it. On a
// quiet machine that is the median wall time; on a disturbed one it is
// what the median would have been, as far as the disturbance slows the
// loop and the program alike. Ten-run spreads of 8–18 % on the clock read
// 3–7.5 % in this unit, and a slow hour that moves the clock's medians by
// 35 % moves these by 10 (README, "How the bounds were set"). The times as
// the clock read them are printed beside it.
const refNominalMS = 10.0 // at defaultSizes.refIters rounds a turn

// refClock runs the reference loop on a fixed number of goroutines.
type refClock struct {
	iters int
	bufs  [][]uint32
	done  chan uint32
	sink  uint32
}

func newRefClock(workers, iters int) *refClock {
	c := &refClock{iters: iters, done: make(chan uint32, workers)}
	for i := 0; i < workers; i++ {
		c.bufs = append(c.bufs, make([]uint32, 1<<14)) // 64 KiB: second-level cache
	}
	return c
}

// turn runs the loop once on every goroutine and returns how long that took
// in milliseconds.
func (c *refClock) turn() float64 {
	t0 := time.Now()
	for _, buf := range c.bufs {
		go func() { c.done <- refLoop(buf, c.iters) }()
	}
	for range c.bufs {
		c.sink += <-c.done
	}
	return float64(time.Since(t0).Nanoseconds()) / 1e6
}

// refLoop is the work: two short dependent chains, a load and a store into
// a table that fits the second-level cache, and a branch the predictor
// cannot learn — the mix an interpreter loop has, so that a busy sibling
// thread or a smaller share of the cache slows it about as much as it
// slows the simulators.
func refLoop(buf []uint32, n int) uint32 {
	var a, b, c, d uint32 = 1, 2, 3, 4
	mask := uint32(len(buf) - 1)
	for i := 0; i < n; i++ {
		a = a*1664525 + 1013904223
		b ^= b << 13
		b ^= b >> 17
		b ^= b << 5
		c += buf[(a>>12)&mask]
		if b&1 != 0 {
			d += c ^ a
		} else {
			d -= b
		}
		buf[(b>>10)&mask] = d
	}
	return a ^ b ^ c ^ d
}

// timing is one timed region and the reference beside it.
type timing struct {
	WallMS float64
	RefMS  float64 // mean of the turns before and after
}

// scaledMS condenses timings into one figure: refNominalMS times the median
// ratio of wall to reference.
func scaledMS(ts []timing) float64 {
	ratios := make([]float64, len(ts))
	for i, t := range ts {
		ratios[i] = t.WallMS / t.RefMS
	}
	return refNominalMS * median(ratios)
}
