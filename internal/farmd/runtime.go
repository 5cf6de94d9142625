package farmd

import (
	"fmt"
	"os"

	"druzhba/internal/campaign"
	"druzhba/internal/obs"
)

// RuntimeFlags are the parsed values of the flags every fleet binary
// shares: -trace, -pprof and the shard-cache stack (-no-cache,
// -cache-entries, -cache-dir, -cache-max-mb).
type RuntimeFlags struct {
	TracePath    string // "" = no tracing
	PprofAddr    string // "" = no profiler listener
	NoCache      bool
	CacheEntries int
	CacheDir     string // "" = memory tier only
	CacheMaxMB   int64
}

// Runtime is what a fleet binary builds from RuntimeFlags before it serves
// or runs anything: the metrics registry, the -trace journal and the
// instrumented memory-over-disk shard cache.
type Runtime struct {
	Metrics *obs.Registry
	Trace   *obs.Tracer         // nil without -trace
	Cache   campaign.ShardCache // nil with -no-cache
	Close   func() error        // closes the -trace journal
}

// NewRuntime opens the trace journal, starts the pprof listener (announced
// on stderr under prog's name) and stacks the cache tiers. Errors name the
// flag at fault.
func NewRuntime(prog string, f RuntimeFlags) (*Runtime, error) {
	rt := &Runtime{Metrics: obs.NewRegistry(), Close: func() error { return nil }}
	if f.TracePath != "" {
		file, err := os.Create(f.TracePath)
		if err != nil {
			return nil, fmt.Errorf("-trace: %w", err)
		}
		rt.Trace, rt.Close = obs.NewTracer(file, nil), file.Close
	}
	if f.PprofAddr != "" {
		bound, err := obs.ServePprof(f.PprofAddr)
		if err != nil {
			return nil, fmt.Errorf("-pprof: %w", err)
		}
		fmt.Fprintf(os.Stderr, "%s: pprof on http://%s/debug/pprof/\n", prog, bound)
	}
	if !f.NoCache {
		rt.Cache = InstrumentCache(NewMemCache(f.CacheEntries), TierMem, rt.Metrics)
		if f.CacheDir != "" {
			disk, err := NewDirCacheLimit(f.CacheDir, f.CacheMaxMB<<20)
			if err != nil {
				return nil, err
			}
			rt.Cache = NewTiered(rt.Cache, InstrumentCache(disk, TierDisk, rt.Metrics))
		}
	}
	return rt, nil
}
