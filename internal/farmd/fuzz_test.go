package farmd

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"druzhba/internal/campaign"
)

// affordable reports whether serving lease costs little enough to do on
// every fuzz iteration: the handler trusts an authenticated coordinator's
// matrix, so a body can legitimately ask for hours of packets or a 16-bit
// proof. A packet count beyond any job of the matrix is affordable — it must
// be rejected before anything runs.
func affordable(lease *ShardLease) bool {
	r := lease.Request
	if r == nil {
		return true
	}
	small := func(xs []int, most int) bool {
		for _, x := range xs {
			if x > most {
				return false
			}
		}
		return len(xs) <= 3
	}
	return (lease.N <= 1024 || lease.N > max(r.Packets, 50000)) && len(r.Seeds) <= 3 && len(r.Traffic) <= 2 && len(r.Levels) <= 4 &&
		small(r.Procs, 8) && small(r.VerifyBits, 5) && small(r.VerifySteps, 2) && len(lease.VerifyRows) <= 2
}

// keyWatch is a shard cache that holds nothing and remembers every key it
// was handed from outside the shard-store key space: the disk tier turns keys
// into file paths, so the handler must refuse such a key before any cache
// sees it.
type keyWatch struct{ bad []string } // handleLease meets its cache on its own goroutine

// engineKey is the key space, spelled out apart from ValidShardKey so that
// loosening the guard fails here.
var engineKey = regexp.MustCompile(`^[0-9a-f]{16,128}$`)

func (c *keyWatch) see(key string) {
	if !engineKey.MatchString(key) {
		c.bad = append(c.bad, key)
	}
}

func (c *keyWatch) Get(key string) (*campaign.ShardResult, bool) { c.see(key); return nil, false }
func (c *keyWatch) Put(key string, _ *campaign.ShardResult)      { c.see(key) }

// FuzzLeaseBody drives raw bytes through the lease handler, the body a
// worker accepts from the network: it never panics, it answers only with
// the dispatch protocol's statuses, it hands its cache no key but an
// engine-issued digest, and a 200 carries exactly the result JobExec.Run
// gives in-process for the job the lease names.
func FuzzLeaseBody(f *testing.F) {
	fuzzReq := smallMatrix()
	jobs, err := fuzzReq.Jobs()
	if err != nil {
		f.Fatal(err)
	}
	verifyReq := &MatrixRequest{Run: "sampling", Mode: campaign.ModeVerify, VerifyBits: []int{3}}
	vjobs, err := verifyReq.VerifyJobs()
	if err != nil {
		f.Fatal(err)
	}
	bothReq := &MatrixRequest{Run: "sampling", Mode: ModeBoth, Levels: []string{"compiled"}, VerifyBits: []int{3}, Packets: 300}
	bjobs, err := bothReq.FuzzJobs(nil)
	if err != nil {
		f.Fatal(err)
	}
	refuted := []campaign.JobReport{{
		Name: vjobs[0].Name, Mode: campaign.ModeVerify, Benchmark: "sampling",
		Cells: []campaign.VerifyCell{{Bits: 3, Steps: 2, Verdict: campaign.VerdictCounterexample, Trace: [][]int64{{1, 2}, {3, 4}}}},
	}}
	valid := &ShardLease{Proto: LeaseProto, Job: jobs[0].Name, Seed: 42, N: 64, Request: fuzzReq}
	for _, lease := range []*ShardLease{
		valid,
		{Proto: LeaseProto, Phase: PhaseVerify, Job: vjobs[0].Name, Seed: vjobs[0].Seed, N: 1, Request: verifyReq},
		{Proto: LeaseProto, Phase: PhaseFuzz, Job: bjobs[0].Name, Seed: 7, N: 100, Request: bothReq, VerifyRows: refuted},
		{Proto: LeaseProto + 1, Job: jobs[0].Name, N: 1, Request: fuzzReq},
		{Proto: LeaseProto, Job: "no/such/job", N: 1, Request: fuzzReq},
		{Proto: LeaseProto, Job: jobs[0].Name, N: 2_000_000_000, Request: fuzzReq},
		{Proto: LeaseProto, Job: jobs[0].Name, Seed: 42, N: 64, Key: "../victim", Request: fuzzReq},
		{Proto: LeaseProto, Job: jobs[0].Name, Seed: 42, N: 64, Key: campaign.ShardKey("fp", 42, 64), Request: fuzzReq},
	} {
		body, err := json.Marshal(lease)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	body, _ := json.Marshal(valid)
	f.Add(body[:len(body)/2])

	watch := &keyWatch{}
	s := NewServer(Config{Workers: 2, Cache: watch})
	f.Fuzz(func(t *testing.T, body []byte) {
		var lease ShardLease
		decoded := json.Unmarshal(body, &lease) == nil
		if decoded && !affordable(&lease) {
			t.Skip()
		}
		watch.bad = nil
		rec := httptest.NewRecorder()
		s.handleLease(rec, httptest.NewRequest(http.MethodPost, "/v1/leases", bytes.NewReader(body)))
		if len(watch.bad) > 0 {
			t.Fatalf("status %d, and the cache was handed keys from outside the key space: %q", rec.Code, watch.bad)
		}
		switch rec.Code {
		case http.StatusOK:
		case http.StatusBadRequest, http.StatusConflict, http.StatusUnprocessableEntity:
			return
		default:
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
		if !decoded {
			t.Fatalf("200 for a body that does not decode: %q", body)
		}
		jobs, err := lease.Request.LeaseJobs(lease.Phase, lease.VerifyRows)
		if err != nil {
			t.Fatalf("200 for a lease whose matrix does not expand: %v", err)
		}
		for i := range jobs {
			if jobs[i].Name != lease.Job {
				continue
			}
			want, _ := json.Marshal(WireResult(campaign.NewJobExec(jobs[i].Target, nil).Run(context.Background(), lease.Seed, lease.N)))
			if got := bytes.TrimSpace(rec.Body.Bytes()); !bytes.Equal(got, want) {
				t.Fatalf("leased shard differs from JobExec.Run:\nlease: %s\nlocal: %s", got, want)
			}
			return
		}
		t.Fatalf("200 for job %q, which the lease's matrix does not have", lease.Job)
	})
}

// FuzzDirCacheEntry writes raw bytes as a segment file — torn lines,
// garbage, a record copied under another key, duplicated keys, error
// fields — at the segment of a key of its own ("aa01") and at that of a job
// with two keys, and reads them with DirCache.Get: it never panics, and for
// each key it returns exactly the decoding of the key's last line that
// decodes into diskEntry under that key with no error, or a miss when no
// line does. A record Put after the bytes reads back to a restarted cache,
// whatever the bytes before it, and leaves the other key's answer as it was.
func FuzzDirCacheEntry(f *testing.F) {
	// TestDirCacheEntryBytesGolden's lines, whole and truncated.
	for _, file := range []string{
		`{"key":"aa01","checked":128,"ticks":640}`,
		`{"key":"bb02","checked":64,"ticks":320,"findings":[{"index":3,"input":"[1 2]","got":"[1 3]","want":"[1 2]"}]}`,
		`{"key":"cc03","checked":1,"ticks":0,"cells":[{"bits":4,"steps":2,"verdict":"equivalent","vars":10,"clauses":20,"conflicts":3},{"bits":6,"steps":1,"verdict":"counterexample","vars":7,"clauses":9,"conflicts":0,"trace":[[1,2]],"fail_step":1}]}`,
		`{"key":"dd04","checked":9,"ticks":9,"error":"boom"}`,
	} {
		for _, g := range []string{file, `{"key":"aa01"` + file[len(`{"key":"bb02"`):]} {
			for n := 0; n <= len(g); n += 7 {
				f.Add([]byte(g[:n]))
			}
			f.Add([]byte(g))
		}
	}
	job := strings.Repeat("9c", 16)
	k1, k2 := jobKey(job, 1), jobKey(job, 2)
	line := func(key string, checked int, extra string) string {
		return fmt.Sprintf(`{"key":%q,"checked":%d,"ticks":%d%s}`, key, checked, 5*checked, extra)
	}
	for _, seg := range [][]string{
		{"", line(k1, 1, ""), line(k2, 2, ""), line(k1, 3, "")},                                   // k1 twice: the last wins
		{"", line(k1, 1, ""), line(k1, 3, `,"error":"boom"`)},                                     // an error line after a valid one
		{"", line(k1, 1, ""), line(k2, 2, "")[:20] + line(k1, 4, ""), line(k2, 5, "")},            // a torn line, then more
		{"", line(k1, 1, ""), line(jobKey(strings.Repeat("3d", 16), 1), 6, ""), "\x00\xff{", "}"}, // another job's key, garbage
		{line("aa01", 7, ""), line(k1, 8, `,"findings":[{"index":1,"input":"[1]","got":"[2]","want":"[1]"}]`)},
		{"", line(k2, 2, ""), line(k2, 2, `,"checked":9`), "null", "[]", `{"key":null}`},
		{"", line(k1, 1, ""), " " + line(k1, 2, ""), `{"checked":3,"key":"` + k1 + `"}`, line(k1, 4, `,"key":"`+k2+`"`)}, // k1 in other shapes than Put writes
	} {
		f.Add([]byte(strings.Join(seg, "\n")))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := NewDirCache(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range []string{c.Path("aa01"), c.Path(k1)} {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		check := func(c *DirCache, key string) {
			t.Helper()
			var want *campaign.ShardResult
			for _, line := range bytes.Split(data, []byte{'\n'}) {
				var ent diskEntry
				if json.Unmarshal(line, &ent) == nil && ent.Key == key && ent.Error == "" {
					want = ent.Result()
				}
			}
			got, ok := c.Get(key)
			if ok != (want != nil) {
				t.Fatalf("Get(%s) hit=%v, want %v", key, ok, want != nil)
			}
			if ok && !reflect.DeepEqual(got, want) {
				t.Fatalf("Get(%s) = %+v, its last valid line decodes to %+v", key, got, want)
			}
		}
		for _, key := range []string{"aa01", k1, k2} {
			check(c, key)
		}
		put := &campaign.ShardResult{Checked: 11, Ticks: 55, Findings: []campaign.Finding{{Index: 2, Input: "[3]", Got: "[4]", Want: "[3]"}}}
		c.Put(k2, put)
		c = reopen(t, c)
		if got, ok := c.Get(k2); !ok || !reflect.DeepEqual(got, put) {
			t.Fatalf("record put after the bytes reads %+v, %v", got, ok)
		}
		check(c, k1)
	})
}

// FuzzMatrixRequest drives raw bytes through admission, the body decoder
// and Expand, as POST /v1/campaigns does: it never panics, and a request it
// admits expands to at most MaxMatrixJobs jobs, each of at most
// campaign.MaxJobShards shards, at most MaxMatrixShards in all, and exactly
// the jobs countJobs counted from the axes.
func FuzzMatrixRequest(f *testing.F) {
	for _, req := range []*MatrixRequest{
		smallMatrix(),
		{Run: "sampling", Levels: []string{"compiled"}, Packets: math.MaxInt},
		{Run: "sampling", Levels: []string{"compiled"}, Packets: 1 << 40, ShardSize: 1},
		{Arch: "all", Traffic: []string{"uniform", "boundary"}, Seeds: []int64{1, 2, 3}},
		{Arch: "drmt", Procs: []int{2, 4}, Packets: 600},
		{Run: "sampling", Mode: campaign.ModeVerify, VerifyBits: []int{3, 4}, VerifySteps: []int{1, 2}},
		{Run: "sampling", Mode: ModeBoth, VerifyBits: []int{3}, Packets: 300},
	} {
		body, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Add([]byte(`{"seeds":[1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19,20,21,22,23,24,25,26,27,28,29,30,31,32,33,34,35,36,37,38,39,40,41,42,43,44,45,46,47,48,49,50,51,52,53,54,55,56,57,58,59,60,61,62,63,64,65,66,67,68,69,70,71,72,73,74,75,76,77,78,79,80,81,82,83,84,85,86,87,88,89,90,91,92,93,94,95,96,97,98,99,100]}`))
	f.Add([]byte(`{"mode":"verify","verify_bits":[3,3,3,3],"verify_steps":[1,1,1,1,1,1,1,1]}`))
	f.Add([]byte(`{"packets":`))
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		req, ok := DecodeMatrix(rec, httptest.NewRequest(http.MethodPost, "/v1/campaigns", bytes.NewReader(body)))
		if !ok {
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("a body that does not decode is answered %d", rec.Code)
			}
			return
		}
		exp, ok := ExpandMatrix(rec, req)
		if !ok {
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("a matrix that does not expand is answered %d", rec.Code)
			}
			return
		}
		runVerify, runFuzz, _ := req.phases()
		jobs := append(append([]campaign.Job(nil), exp.Verify...), exp.Fuzz...)
		if n, err := req.countJobs(runVerify, runFuzz); len(jobs) > MaxMatrixJobs || n != len(jobs) || err != nil {
			t.Fatalf("admitted %d jobs, counted %d from the axes (%v), bound %d", len(jobs), n, err, MaxMatrixJobs)
		}
		total := 0
		for i := range jobs {
			n, err := jobs[i].Shards(req.ShardSize)
			if err != nil || n > campaign.MaxJobShards {
				t.Fatalf("admitted job %s plans %d shards: %v", jobs[i].Name, n, err)
			}
			total += n
		}
		if total > MaxMatrixShards {
			t.Fatalf("admitted %d shards, bound %d", total, MaxMatrixShards)
		}
	})
}
