package phv

import "math/rand"

// math/rand's generator, run here so that Fill's draw loop reads it directly
// instead of calling through *rand.Rand and the Source interface four times
// per value: rngSource, Go 1's additive lagged Fibonacci generator (lags 607
// and 273) seeded by the Lehmer chain x ← 48271·x mod (2³¹−1). The stream is
// math/rand's value for value (TestSourceMatchesMathRand). The state is kept
// in draw order — rngSource's k-th step after a seed rewrites its entry
// (333−k) mod 607, here entry k — so a draw is one load and the recurrence
// advances 607 steps at a time without wrap-around (refill); the chain is
// reduced modulo its Mersenne prime instead of by Schrage's division (seed).

const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1 // the Lehmer modulus, a Mersenne prime
)

// rngCooked is math/rand's seeding table, what Seed XORs over the Lehmer
// chain, in draw order. It is not pasted here but recovered in init.
var rngCooked [rngLen]int64

// init recovers rngCooked: the first 607 draws of math/rand's source under
// seed 1 are its vector after one round; undoing the round, last step
// first, gives the vector Seed(1) left, and XORing out seed 1's chain
// leaves the table.
func init() {
	ref := rand.NewSource(1).(rand.Source64)
	var seeded [rngLen]int64
	for k := range seeded {
		seeded[k] = int64(ref.Uint64())
	}
	for k := rngLen - 1; k >= rngTap; k-- {
		seeded[k] -= seeded[k-rngTap]
	}
	for k := rngTap - 1; k >= 0; k-- {
		seeded[k] -= seeded[k+rngLen-rngTap]
	}
	var chain source // rngCooked is still zero: chain.vec is seed 1's chain
	chain.seed(1)
	for k := range rngCooked {
		rngCooked[k] = seeded[k] ^ chain.vec[k]
	}
}

// source is math/rand's rngSource, its state in draw order. It is not safe
// for concurrent use.
type source struct {
	pos uint          // index in vec of the next value; rngLen: the round is used up
	vec [rngLen]int64 // the current round
}

// refill advances the recurrence by one round, rngSource's next 607 steps:
// step k adds the value 273 steps back, which for the first 273 steps is
// still the previous round's. It runs once per 607 values, so it stays out of
// line: inlined into Fill it costs every packet about a nanosecond.
//
//go:noinline
func (s *source) refill() {
	vec := &s.vec
	for k := 0; k < rngTap; k++ {
		vec[k] += vec[k+rngLen-rngTap]
	}
	for k := rngTap; k < rngLen; k++ {
		vec[k] += vec[k-rngTap]
	}
}

// The Lehmer multiplier and its square and cube modulo 2³¹−1: a chain value
// times lehmerA^k is the value k steps further on.
const (
	lehmerA  = 48271
	lehmerA2 = lehmerA * lehmerA % int32max
	lehmerA3 = lehmerA2 * lehmerA % int32max
)

// mulmod is x·a mod 2³¹−1 for 0 < x, a < 2³¹−1: the bits above 31 fold onto
// the low ones (2³¹ ≡ 1), leaving a sum below 2·(2³¹−1) that is no multiple
// of the modulus, which is prime and divides neither factor; one subtraction
// finishes. It is what math/rand's Schrage division computes.
func mulmod(x, a uint64) uint64 {
	p := x * a
	p = p&int32max + p>>31
	if p >= int32max {
		p -= int32max
	}
	return p
}

// seed is rngSource.Seed: the same folding of seed into [1, 2³¹−1), 20
// chain steps skipped, then three chain values per state word, word i of
// rngSource's vector being entry (333−i) mod 607 here. A word's three values
// are computed from the previous word's last one, all three at once, so the
// chain is one multiplication deep per word instead of three.
func (s *source) seed(seed int64) {
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	x := uint64(seed)
	for range 20 {
		x = mulmod(x, lehmerA)
	}
	k := rngLen - rngTap
	for range s.vec {
		if k--; k < 0 {
			k += rngLen
		}
		x1, x2, x3 := mulmod(x, lehmerA), mulmod(x, lehmerA2), mulmod(x, lehmerA3)
		s.vec[k] = int64(x1<<40^x2<<20^x3) ^ rngCooked[k]
		x = x3
	}
	s.pos = rngLen
}

// draw is one column's Int63n or Int31n, decided once: a raw 63-bit value
// above max is skipped and the next one drawn, as math/rand's rejection
// loops do, and the value kept is masked.
type draw struct {
	max  int64
	mask int64 // limit-1 for a power-of-two limit, else rngMask (the raw value)
}

// int63nPlan is rand.Int63n(n) for n > 0: the draw, and the modulus the
// drawn value is then reduced by (0 for a power of two, which the mask
// reduces).
func int63nPlan(n int64) (draw, int64) {
	if n&(n-1) == 0 {
		return draw{max: rngMask, mask: n - 1}, 0
	}
	return draw{max: int64(1<<63 - 1 - (1<<63)%uint64(n)), mask: rngMask}, n
}

// int31nDraw is the rejection half of rand.Int31n(n), for 0 < n ≤ 2³¹−1,
// which is what rand.Intn calls for such n: the raw value is kept, and its
// top 31 bits (Int31) modulo n are the draw — for a power of two n, the
// mask Int31n applies. A threshold on the 31-bit value is a threshold on
// the raw one with the low 32 bits set.
func int31nDraw(n int32) draw {
	if n&(n-1) == 0 {
		return draw{max: rngMask, mask: rngMask}
	}
	max31 := int64(1<<31 - 1 - (1<<31)%uint32(n))
	return draw{max: max31<<32 | (1<<32 - 1), mask: rngMask}
}
