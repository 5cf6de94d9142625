package farmd

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"druzhba/internal/campaign"
)

// postLease POSTs a lease and returns the response.
func postLease(t *testing.T, url string, lease *ShardLease, token string) *http.Response {
	t.Helper()
	body, err := json.Marshal(lease)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url+"/v1/leases", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// leaseStub scripts a target's failure points for the lease tests.
type leaseStub struct {
	buildErr, runnerErr error
	shardErr            error // returned by every shard, as a cancelled proof returns ctx.Err()
	runners             atomic.Int64
}

func (t *leaseStub) Arch() string   { return "stub" }
func (t *leaseStub) Engine() string { return "none" }
func (t *leaseStub) Build() (campaign.Instance, error) {
	if t.buildErr != nil {
		return nil, t.buildErr
	}
	return t, nil
}
func (t *leaseStub) NewRunner() (campaign.Runner, error) {
	t.runners.Add(1)
	if t.runnerErr != nil {
		return nil, t.runnerErr
	}
	return t, nil
}
func (t *leaseStub) RunShard(seed int64, n int) campaign.ShardResult {
	return t.RunShardContext(context.Background(), seed, n)
}
func (t *leaseStub) RunShardContext(_ context.Context, seed int64, n int) campaign.ShardResult {
	return campaign.ShardResult{Checked: n, Ticks: seed, Err: t.shardErr}
}

// seedLeasedJob makes lease resolve to target on s, as if the lease's
// request had expanded to a job of that name with that target.
func seedLeasedJob(t *testing.T, s *Server, lease *ShardLease, target campaign.Target, packets int) {
	t.Helper()
	key, err := leaseKey(lease)
	if err != nil {
		t.Fatal(err)
	}
	ent := &leasedJob{packets: packets, exec: campaign.NewJobExec(target, nil)}
	ent.once.Do(func() {})
	s.instances.jobs.put(key, ent, 1)
}

// TestLeaseMatchesLocalExecution pins the fabric's relocation invariant at
// the worker boundary: a shard executed through POST /v1/leases returns
// exactly the result a local runner produces for the same (job, seed, n) —
// the property that makes retries, re-issues and worker death invisible in
// reports. That includes the shards that fail: a target that cannot build,
// one that cannot clone a runner and one whose shard ends cancelled answer
// 200 with exactly the ShardResult JobExec.Run gives in-process — the build
// failure still typed after the wire — are not cached, and do not get their
// runner reused.
func TestLeaseMatchesLocalExecution(t *testing.T) {
	cache := NewMemCache(0)
	s := NewServer(Config{Cache: cache, Workers: 2})
	srv := httptest.NewServer(s)
	defer srv.Close()
	req := smallMatrix()
	jobs, err := req.LeaseJobs(PhaseFuzz, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) == 0 {
		t.Fatal("matrix expanded to no jobs")
	}
	for _, job := range jobs {
		inst, err := job.Target.Build()
		if err != nil {
			t.Fatal(err)
		}
		runner, err := inst.NewRunner()
		if err != nil {
			t.Fatal(err)
		}
		seed := int64(12345)
		want := runner.RunShard(seed, 128)
		if want.Err != nil {
			t.Fatal(want.Err)
		}

		resp := postLease(t, srv.URL, &ShardLease{
			Proto: LeaseProto, Job: job.Name, Seed: seed, N: 128, Request: req,
		}, "")
		if resp.StatusCode != http.StatusOK {
			msg, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			t.Fatalf("lease for %s: %s: %s", job.Name, resp.Status, msg)
		}
		var wire WireShardResult
		if err := json.NewDecoder(resp.Body).Decode(&wire); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()

		gotJSON, _ := json.Marshal(wire)
		wantJSON, _ := json.Marshal(WireResult(&want))
		if !bytes.Equal(gotJSON, wantJSON) {
			t.Fatalf("leased shard of %s differs from local execution:\nlease: %s\nlocal: %s", job.Name, gotJSON, wantJSON)
		}
	}

	stubs := map[string]func() *leaseStub{
		"build-error":  func() *leaseStub { return &leaseStub{buildErr: errors.New("machine code incompatible")} },
		"runner-error": func() *leaseStub { return &leaseStub{runnerErr: errors.New("spec factory refused")} },
		"cancelled":    func() *leaseStub { return &leaseStub{shardErr: context.Canceled} },
		"clean":        func() *leaseStub { return &leaseStub{} },
	}
	for name, mk := range stubs {
		served, local := mk(), mk()
		exec := campaign.NewJobExec(local, nil)
		lease := &ShardLease{Proto: LeaseProto, Job: "stub/" + name, Seed: 99, N: 32, Key: strings.Repeat("ef", 30) + hex.EncodeToString([]byte(name[:2])), Request: smallMatrix()}
		seedLeasedJob(t, s, lease, served, 64)
		for round := 0; round < 2; round++ {
			want := exec.Run(context.Background(), lease.Seed, lease.N)
			var wire WireShardResult
			if err := (Wire{}).Call(context.Background(), http.MethodPost, srv.URL+"/v1/leases", lease, &wire); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			gotJSON, _ := json.Marshal(wire)
			wantJSON, _ := json.Marshal(WireResult(want))
			if !bytes.Equal(gotJSON, wantJSON) {
				t.Fatalf("%s: leased shard differs from JobExec.Run:\nlease: %s\nlocal: %s", name, gotJSON, wantJSON)
			}
			if isBuild := errors.As(wire.Result().Err, new(*campaign.BuildError)); isBuild != (name == "build-error") {
				t.Fatalf("%s: result decodes as build error = %v", name, isBuild)
			}
			if _, ok := cache.Get(lease.Key); ok != (name == "clean") {
				t.Fatalf("%s: cached = %v", name, ok)
			}
			if served.runners.Load() != local.runners.Load() {
				t.Fatalf("%s round %d: worker cloned %d runners, in-process %d", name, round, served.runners.Load(), local.runners.Load())
			}
			if name == "clean" {
				break // the second lease would be a cache replay
			}
		}
		if name == "cancelled" && served.runners.Load() != 2 {
			t.Fatalf("a runner whose shard ended cancelled was reused: %d clones over 2 leases", served.runners.Load())
		}
	}
}

// TestLeaseCachesUnderCoordinatorKey: the worker stores the result under
// the coordinator-issued key verbatim (key spaces are salted per binary,
// so recomputing would file it under the wrong name), and a second lease
// for the same key replays from cache.
func TestLeaseCachesUnderCoordinatorKey(t *testing.T) {
	cache := NewMemCache(0)
	s := NewServer(Config{Cache: cache, Workers: 2})
	srv := httptest.NewServer(s)
	defer srv.Close()
	req := smallMatrix()
	jobs, err := req.LeaseJobs(PhaseFuzz, nil)
	if err != nil {
		t.Fatal(err)
	}
	key := strings.Repeat("ab", 32) // a coordinator-space key, opaque here
	lease := &ShardLease{Proto: LeaseProto, Job: jobs[0].Name, Seed: 7, N: 64, Key: key, Request: req}

	resp := postLease(t, srv.URL, lease, "")
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first lease: %s", resp.Status)
	}
	if _, ok := cache.Get(key); !ok {
		t.Fatal("result not cached under the coordinator-issued key")
	}
	before := s.Stats().CacheHits
	resp = postLease(t, srv.URL, lease, "")
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if got := s.Stats().CacheHits; got != before+1 {
		t.Fatalf("second lease cache hits %d, want %d", got, before+1)
	}
}

// TestLeaseRejections pins the dispatch protocol's 4xx surface: protocol
// skew, unknown jobs, malformed bodies and a packet count beyond both the
// job's budget and a default shard (one such lease would pin a lease slot
// for hours) are explicit rejections, never silent wrong rows.
func TestLeaseRejections(t *testing.T) {
	// The worker has a disk tier, and a file sits where a traversing key
	// would land: a lease key is outside input, so it must be refused before
	// any cache sees it, and the file must survive.
	root := t.TempDir()
	disk, err := NewDirCache(filepath.Join(root, "a", "cache"))
	if err != nil {
		t.Fatal(err)
	}
	const traversal = "../victim"
	victim := disk.Path(traversal)
	if filepath.Dir(victim) != root {
		t.Fatalf("victim path %s is not directly under %s", victim, root)
	}
	const victimBody = `{"precious": true}`
	if err := os.WriteFile(victim, []byte(victimBody), 0o644); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(Config{Cache: disk}))
	defer srv.Close()
	req := smallMatrix()
	jobs, err := req.LeaseJobs(PhaseFuzz, nil)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		lease *ShardLease
		want  int
	}{
		{"protocol skew", &ShardLease{Proto: LeaseProto + 1, Job: "x", N: 1, Request: req}, http.StatusConflict},
		{"no request", &ShardLease{Proto: LeaseProto, Job: "x", N: 1}, http.StatusBadRequest},
		{"no packets", &ShardLease{Proto: LeaseProto, Job: "x", Request: req}, http.StatusBadRequest},
		{"unknown job", &ShardLease{Proto: LeaseProto, Job: "no/such/job", N: 1, Request: req}, http.StatusUnprocessableEntity},
		{"bad phase", &ShardLease{Proto: LeaseProto, Phase: "anneal", Job: "x", N: 1, Request: req}, http.StatusUnprocessableEntity},
		{"whole job", &ShardLease{Proto: LeaseProto, Job: jobs[0].Name, N: jobs[0].Packets, Request: req}, http.StatusOK},
		{"a default shard of a smaller job", &ShardLease{Proto: LeaseProto, Job: jobs[0].Name, N: campaign.DefaultShardSize, Request: req}, http.StatusOK},
		{"more packets than the job has", &ShardLease{Proto: LeaseProto, Job: jobs[0].Name, N: campaign.DefaultShardSize + 1, Request: req}, http.StatusUnprocessableEntity},
		{"oversized", &ShardLease{Proto: LeaseProto, Job: jobs[0].Name, N: 2_000_000_000, Request: req}, http.StatusUnprocessableEntity},
		{"traversing key", &ShardLease{Proto: LeaseProto, Job: jobs[0].Name, N: jobs[0].Packets, Key: traversal, Request: req}, http.StatusBadRequest},
		{"non-hex key", &ShardLease{Proto: LeaseProto, Job: jobs[0].Name, N: jobs[0].Packets, Key: strings.Repeat("xy", 32), Request: req}, http.StatusBadRequest},
		{"short key", &ShardLease{Proto: LeaseProto, Job: jobs[0].Name, N: jobs[0].Packets, Key: "abc", Request: req}, http.StatusBadRequest},
		{"engine-issued key", &ShardLease{Proto: LeaseProto, Job: jobs[0].Name, N: jobs[0].Packets, Key: campaign.ShardKey("fp", 1, jobs[0].Packets), Request: req}, http.StatusOK},
	}
	for _, tc := range cases {
		resp := postLease(t, srv.URL, tc.lease, "")
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}
	if got, err := os.ReadFile(victim); err != nil || string(got) != victimBody {
		t.Errorf("file outside the cache dir did not survive a traversing lease key: %q, %v", got, err)
	}
}

// TestServerAuth pins the fleet-secret gate: with a token configured,
// mutating endpoints 401 without (or with a wrong) bearer token, while
// read-only probes stay open; the right token passes.
func TestServerAuth(t *testing.T) {
	srv := httptest.NewServer(NewServer(Config{AuthToken: "s3cret", Workers: 1}))
	defer srv.Close()

	post := func(path, token string, body []byte) int {
		req, err := http.NewRequest(http.MethodPost, srv.URL+path, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if token != "" {
			req.Header.Set("Authorization", "Bearer "+token)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		return resp.StatusCode
	}

	matrix, _ := json.Marshal(smallMatrix())
	for _, path := range []string{"/v1/campaigns", "/v1/leases"} {
		if got := post(path, "", matrix); got != http.StatusUnauthorized {
			t.Errorf("POST %s without token: %d, want 401", path, got)
		}
		if got := post(path, "wrong", matrix); got != http.StatusUnauthorized {
			t.Errorf("POST %s with wrong token: %d, want 401", path, got)
		}
	}
	for _, path := range []string{"/healthz", "/v1/benchmarks", "/v1/stats"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: %d, want 200 (read-only endpoints stay open)", path, resp.StatusCode)
		}
	}
	if got := post("/v1/campaigns", "s3cret", matrix); got != http.StatusOK {
		t.Errorf("POST /v1/campaigns with the right token: %d, want 200", got)
	}

	// The client helper threads the token through StreamOptions.
	if _, err := SubmitOpts(context.Background(), srv.URL, smallMatrix(), StreamOptions{Token: "s3cret"}, nil); err != nil {
		t.Fatalf("authorized SubmitOpts: %v", err)
	}
	if _, err := SubmitOpts(context.Background(), srv.URL, smallMatrix(), StreamOptions{}, nil); err == nil || !strings.Contains(err.Error(), "bearer") {
		t.Fatalf("unauthorized SubmitOpts error = %v, want bearer rejection", err)
	}
}

// TestRowWriteTimeoutCancelsStalledClient is the satellite regression
// test: a client that opens a campaign stream and never reads it must have
// its campaign cancelled by the configured row-write deadline — and must
// release its execution slot — instead of wedging engine workers forever.
func TestRowWriteTimeoutCancelsStalledClient(t *testing.T) {
	s := NewServer(Config{Workers: 2, MaxConcurrent: 1, RowWriteTimeout: time.Nanosecond})
	srv := httptest.NewServer(s)
	defer srv.Close()

	// With a 1ns deadline every row write is already expired when it
	// happens — the deterministic stand-in for a client that stopped
	// reading — so the first write must fail and cancel the campaign
	// promptly.
	body, err := json.Marshal(smallMatrix())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, srv.URL+"/v1/campaigns", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	// The expired deadline may tear the connection down before the
	// response headers ever leave the server — that IS the cancellation
	// path firing; only a complete stream would be the regression.
	if err == nil {
		rows, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr == nil && strings.Contains(string(rows), `"summary"`) {
			t.Fatalf("stalled client received a full stream:\n%s", rows)
		}
	}

	// The slot must be free again: with MaxConcurrent=1, a campaign
	// wedged on its stalled client would park this submission in the
	// queue until the context expired. Its own stream hits the same 1ns
	// deadline (EOF is fine) — what it must not do is time out queueing.
	ctx2, cancel2 := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel2()
	req2, err := http.NewRequestWithContext(ctx2, http.MethodPost, srv.URL+"/v1/campaigns", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp2, err := http.DefaultClient.Do(req2)
	if err == nil {
		io.Copy(io.Discard, resp2.Body) //nolint:errcheck
		resp2.Body.Close()
	}
	if ctx2.Err() != nil {
		t.Fatal("second submission timed out queueing: the stalled campaign never released its execution slot")
	}
}

// TestTieredFlushReachesDiskTier pins the graceful-shutdown flush path
// through the tier stack.
func TestTieredFlushReachesDiskTier(t *testing.T) {
	disk, err := NewDirCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	tiered := NewTiered(NewMemCache(0), disk)
	tiered.Put("aa"+strings.Repeat("0", 62), &campaign.ShardResult{Checked: 1})
	if err := tiered.Flush(); err != nil {
		t.Fatalf("tiered flush: %v", err)
	}
}

// TestInstanceCacheEvictsLeastRecentlyLeased: at capacity the job leased
// longest ago loses its residency — a lease of a resident job is served the
// same resolved job and executor, and the next lease of the evicted one
// resolves it again, onto a new executor, to the same packet budget.
func TestInstanceCacheEvictsLeastRecentlyLeased(t *testing.T) {
	req := &MatrixRequest{Arch: "drmt", Packets: 600, ShardSize: 128}
	jobs, err := req.LeaseJobs(PhaseFuzz, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) < 3 {
		t.Fatalf("matrix expanded to %d jobs, the test leases three", len(jobs))
	}
	c := newInstanceCache(2)
	lease := func(i int) *leasedJob {
		t.Helper()
		ent, err := c.get(&ShardLease{Proto: LeaseProto, Job: jobs[i].Name, Request: req}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return ent
	}
	a, b := lease(0), lease(1)
	if again := lease(0); again != a { // touch a: b becomes least recent
		t.Fatal("a resident job was resolved twice")
	}
	lease(2) // at capacity: evicts b
	if n, _ := c.jobs.size(); n != 2 {
		t.Fatalf("%d resident jobs, want 2", n)
	}
	if again := lease(0); again != a {
		t.Fatal("the recently leased job was evicted")
	}
	b2 := lease(1)
	if b2 == b || b2.exec == b.exec {
		t.Fatal("the least recently leased job survived eviction")
	}
	if b2.packets != b.packets || b2.exec == nil {
		t.Fatalf("re-resolved job: packets %d exec %v, want packets %d and an executor", b2.packets, b2.exec, b.packets)
	}
}
