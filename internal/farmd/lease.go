// lease.go is the worker half of the distributed campaign fabric: the wire
// form of one shard lease and the machinery that executes it.
//
// A coordinator (package fabric, cmd/dcoord) splits a campaign into shard
// leases and POSTs them to dfarmd workers at /v1/leases. A lease carries
// the matrix request, the phase, the job's name and the shard's derived
// traffic seed — everything needed to rebuild the job from the embedded
// benchmark registries and run exactly one shard of it. Because shard
// results are pure functions of that data, the worker's answer is
// byte-identical to what the coordinator's own engine would have produced,
// which is what lets the fabric retry, re-issue and steal leases freely
// without ever changing a report row.
package farmd

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"sync"

	"druzhba/internal/campaign"
	"druzhba/internal/phv"
)

// LeaseProto is the fabric wire-protocol version. A worker rejects leases
// from a coordinator speaking a different version (HTTP 409), so protocol
// skew surfaces as an explicit dispatch failure instead of a silently
// wrong row.
const LeaseProto = 1

// Campaign phases a lease can address. PhaseFuzz doubles as the empty
// default.
const (
	PhaseFuzz   = campaign.ModeFuzz
	PhaseVerify = campaign.ModeVerify
)

// ShardLease is the wire form of one shard execution request: the JSON
// body of POST /v1/leases.
type ShardLease struct {
	// Proto is the fabric protocol version (LeaseProto).
	Proto int `json:"proto"`

	// Campaign identifies the campaign for logs and stats (opaque).
	Campaign string `json:"campaign,omitempty"`

	// Phase selects the matrix expansion the job name addresses: "fuzz"
	// (empty = fuzz) or "verify".
	Phase string `json:"phase,omitempty"`

	// Job is the name of the job within the phase's matrix.
	Job string `json:"job"`

	// Shard is the shard index within the job (informational; the seed
	// addresses the shard's traffic).
	Shard int `json:"shard"`

	// Seed is the shard's derived traffic seed, passed to RunShard
	// verbatim.
	Seed int64 `json:"seed"`

	// N is the shard's packet count.
	N int `json:"n"`

	// Key is the shard's content-addressed cache key in the coordinator's
	// key space ("" = uncacheable). The worker consults and fills its own
	// cache tiers — including the shared remote tier pointing back at the
	// coordinator — under this key.
	Key string `json:"key,omitempty"`

	// Request is the matrix request the job expands from.
	Request *MatrixRequest `json:"request"`

	// VerifyRows carries the verify-phase rows whose counterexample
	// traces seed the fuzz phase in both mode; the worker re-harvests the
	// corpus from them so its job expansion matches the coordinator's.
	VerifyRows []campaign.JobReport `json:"verify_rows,omitempty"`
}

// LeaseJobs expands the lease's matrix for its phase — the worker-side
// mirror of the coordinator's job expansion.
func (r *MatrixRequest) LeaseJobs(phase string, verifyRows []campaign.JobReport) ([]campaign.Job, error) {
	switch phase {
	case PhaseVerify:
		return r.VerifyJobs()
	case PhaseFuzz, "":
		var corpus map[string][][]phv.Value
		if len(verifyRows) > 0 {
			corpus = campaign.HarvestVerifyCorpus(&campaign.Report{Jobs: verifyRows})
		}
		return r.FuzzJobs(corpus)
	default:
		return nil, fmt.Errorf("farmd: unknown lease phase %q", phase)
	}
}

// WireShardResult is the JSON form of one shard result: the response body
// of POST /v1/leases and the entry body of the coordinator's shared cache
// tier (GET/PUT /v1/shards/{key}). It serializes exactly the fields a
// ShardResult's report contribution depends on — VerifyCell.SolveMS is
// excluded at the type level — so a result that crossed the wire merges
// byte-identically to one executed in-process.
type WireShardResult struct {
	Checked  int                   `json:"checked"`
	Ticks    int64                 `json:"ticks"`
	Findings []campaign.Finding    `json:"findings,omitempty"`
	Cells    []campaign.VerifyCell `json:"cells,omitempty"`
	Error    string                `json:"error,omitempty"`

	// BuildError marks Error as the job's target failing to build
	// (campaign.BuildError), so the engine that leased the shard reports
	// the same build-error row a local run does.
	BuildError bool `json:"build_error,omitempty"`
}

// WireResult converts an engine shard result to its wire form.
func WireResult(res *campaign.ShardResult) WireShardResult {
	w := WireShardResult{Checked: res.Checked, Ticks: res.Ticks, Findings: res.Findings, Cells: res.Cells}
	if res.Err != nil {
		w.Error = res.Err.Error()
		w.BuildError = errors.As(res.Err, new(*campaign.BuildError))
	}
	return w
}

// Result converts a wire shard result back to the engine form.
func (w *WireShardResult) Result() *campaign.ShardResult {
	res := &campaign.ShardResult{Checked: w.Checked, Ticks: w.Ticks, Findings: w.Findings, Cells: w.Cells}
	if w.Error != "" {
		res.Err = errors.New(w.Error)
		if w.BuildError {
			res.Err = &campaign.BuildError{Err: res.Err}
		}
	}
	return res
}

// instanceCache is the worker's bounded LRU of leased jobs, keyed by
// (request, phase, job). Leases of one campaign arrive as a stream of
// shards over the same few jobs, so keeping the resolved job and its
// campaign.JobExec (compiled pipeline, interned dRMT layout, proof tables,
// idle runners) amortizes expansion, build and clones across every shard
// the worker is leased.
type instanceCache struct {
	jobs *lru[*leasedJob] // every job weighs 1
}

// leasedJob is one cache residency of a leased job: the job a lease names,
// resolved once, as its packet budget (no lease may ask for more) and the
// executor every lease of it runs through.
type leasedJob struct {
	once    sync.Once
	packets int
	exec    *campaign.JobExec
	err     error // the lease names no job of its request's matrix
}

func newInstanceCache(capacity int) *instanceCache {
	if capacity <= 0 {
		capacity = 16
	}
	return &instanceCache{jobs: newLRU[*leasedJob](int64(capacity), nil)}
}

// leaseKey derives the instance-cache key from everything the job
// expansion depends on.
func leaseKey(lease *ShardLease) (string, error) {
	req, err := json.Marshal(lease.Request)
	if err != nil {
		return "", err
	}
	rows, err := json.Marshal(lease.VerifyRows)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	for _, part := range [][]byte{[]byte(lease.Phase), []byte(lease.Job), req, rows} {
		fmt.Fprintf(h, "%d\x00", len(part))
		h.Write(part)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// get resolves the job a lease names, expanding the lease's matrix at most
// once per cache residency; m meters the job's executor. Nothing is built
// here — the executor builds on the first lease the cache does not serve.
// Resolution errors are cached too: a coordinator retrying a lease this
// worker cannot place gets the same answer without paying the expansion
// again.
func (c *instanceCache) get(lease *ShardLease, m *campaign.Metrics) (*leasedJob, error) {
	key, err := leaseKey(lease)
	if err != nil {
		return nil, err
	}
	ent := c.jobs.getOrPut(key, &leasedJob{}, 1)
	ent.once.Do(func() {
		jobs, err := lease.Request.LeaseJobs(lease.Phase, lease.VerifyRows)
		if err != nil {
			ent.err = err
			return
		}
		for i := range jobs {
			if jobs[i].Name == lease.Job {
				ent.packets = jobs[i].Packets
				ent.exec = campaign.NewJobExec(jobs[i].Target, m)
				return
			}
		}
		ent.err = fmt.Errorf("farmd: lease names job %q, not in the %s matrix of this request", lease.Job, lease.Phase)
	})
	if ent.err != nil {
		return nil, ent.err
	}
	return ent, nil
}
