// Package vetcfg declares which packages each dvet analyzer governs.
//
// The invariants are properties of the campaign/report pipeline, not of
// every package in the module, so the scopes are explicit lists rather
// than ./... — adding a package to a list is a deliberate act of
// placing it under the corresponding invariant.
package vetcfg

import "strings"

// determinism lists the packages whose outputs must be byte-identical
// across workers, caches, retries and process restarts: everything a
// report row, cache entry, proof cell or journal line flows through.
// detrange flags map iteration anywhere in these packages.
var determinism = []string{
	"druzhba/internal/campaign",
	"druzhba/internal/fabric",
	"druzhba/internal/farmd",
	"druzhba/internal/obs",
	"druzhba/internal/sat",
	"druzhba/internal/verify",
	"druzhba/internal/machinecode",
	"druzhba/internal/sim",
	"druzhba/internal/drmt",
	"druzhba/internal/core",
	"druzhba/internal/flat",
	"druzhba/internal/phv",
}

// wallclock lists the shard-execution and report-serialization
// packages where reading the wall clock or the global RNG makes
// results run-dependent. walltime flags time.Now/Since/Until and
// global math/rand use here; injected clock/RNG seams are exempt by
// construction (calling a func field is not a time.Now call).
var wallclock = []string{
	"druzhba/internal/campaign",
	"druzhba/internal/fabric",
	"druzhba/internal/farmd",
	"druzhba/internal/obs",
	"druzhba/internal/sat",
	"druzhba/internal/verify",
	"druzhba/internal/machinecode",
	"druzhba/internal/sim",
	"druzhba/internal/drmt",
	"druzhba/internal/core",
	"druzhba/internal/flat",
	"druzhba/internal/phv",
}

// ctx lists the dispatcher/coordinator/server packages where every
// blocking network wait or sleep must be cancellable: a lease retry
// loop that sleeps uninterruptibly holds a drain hostage.
var ctx = []string{
	"druzhba/internal/fabric",
	"druzhba/internal/farmd",
}

// DeterminismCritical reports whether pkgPath is under the
// byte-identical-reports invariant.
func DeterminismCritical(pkgPath string) bool { return matches(determinism, pkgPath) }

// WallClockCritical reports whether pkgPath is under the injected
// clock/RNG invariant.
func WallClockCritical(pkgPath string) bool { return matches(wallclock, pkgPath) }

// CtxCritical reports whether pkgPath is under the
// cancellable-blocking invariant.
func CtxCritical(pkgPath string) bool { return matches(ctx, pkgPath) }

// matches accepts the package itself and any path-boundary extension
// (so "druzhba/internal/campaign" also covers a future
// "druzhba/internal/campaign/replay", and the go vet test variant IDs
// that share the ImportPath).
func matches(list []string, pkgPath string) bool {
	for _, p := range list {
		if pkgPath == p || strings.HasPrefix(pkgPath, p+"/") {
			return true
		}
	}
	return false
}
