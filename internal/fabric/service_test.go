package fabric

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"testing"

	"druzhba/internal/farmd"
)

// scrape fetches a daemon's /metrics and returns every sample keyed by its
// series exactly as exposed (`name` or `name{label="v",...}`).
func scrape(t *testing.T, url string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %v %v", resp.Status, err)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("metrics line %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

// statsDoc fetches a daemon's /v1/stats as a generic JSON object.
func statsDoc(t *testing.T, url string) map[string]any {
	t.Helper()
	resp, err := http.Get(url + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

// checkLedger asserts that every top-level /v1/stats field named in ledger
// equals its /metrics series, and that doc has exactly the golden key set —
// the wire contract CI and the benchmark read.
func checkLedger(t *testing.T, who string, doc map[string]any, metrics map[string]float64, ledger map[string]string, golden []string) {
	t.Helper()
	keys := make([]string, 0, len(doc))
	for k := range doc {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if fmt.Sprint(keys) != fmt.Sprint(golden) {
		t.Errorf("%s /v1/stats keys = %v, want %v", who, keys, golden)
	}
	for key, series := range ledger {
		got, ok := doc[key].(float64)
		want, exposed := metrics[series]
		if !ok || !exposed || got != want {
			t.Errorf("%s: /v1/stats %s = %v, /metrics %s = %v (exposed %v)", who, key, doc[key], series, want, exposed)
		}
	}
}

var (
	workerLedger = map[string]string{
		"campaigns":           "druzhba_farmd_campaigns_total",
		"jobs":                "druzhba_farmd_jobs_total",
		"leases":              "druzhba_farmd_leases_total",
		"lease_errors":        "druzhba_farmd_lease_errors_total",
		"cache_hits":          "druzhba_campaign_cache_hits_total",
		"cache_misses":        "druzhba_campaign_cache_misses_total",
		"remote_cache_hits":   `druzhba_cache_gets_total{tier="remote",outcome="hit"}`,
		"remote_cache_misses": `druzhba_cache_gets_total{tier="remote",outcome="miss"}`,
	}
	workerKeys = []string{"cache_hits", "cache_misses", "campaigns", "jobs", "lease_errors", "leases", "remote_cache_hits", "remote_cache_misses"}

	coordLedger = map[string]string{
		"campaigns":      "druzhba_coord_campaigns_total",
		"rows":           "druzhba_coord_rows_total",
		"workers_alive":  "druzhba_fabric_workers_alive",
		"shard_hits":     "druzhba_coord_shard_store_hits_total",
		"shard_misses":   "druzhba_coord_shard_store_misses_total",
		"shard_puts":     "druzhba_coord_shard_store_puts_total",
		"local_fallback": "druzhba_fabric_fallback_total",
	}
	coordDispatchLedger = map[string]string{
		"retries":  "druzhba_fabric_retries_total",
		"poisoned": "druzhba_fabric_poisoned_total",
		"fallback": "druzhba_fabric_fallback_total",
	}
	coordKeys    = []string{"campaigns", "dispatch", "lease_latency", "local_fallback", "poison", "rows", "shard_hits", "shard_misses", "shard_puts", "workers_alive"}
	dispatchKeys = []string{"fallback", "leases", "poisoned", "retries"}
)

// builtSeries are the two counters JobExec.Run moves: targets built and
// runners cloned, by campaigns and leases alike.
var builtSeries = []string{"druzhba_campaign_target_builds_total", "druzhba_campaign_runners_built_total"}

// TestOneLedgerWorker: after one campaign, one executed lease and one lease
// served from cache, every dfarmd /v1/stats counter equals its /metrics
// series — the lease path's cache probes included, which had no series
// while stats kept its own counters. Resubmitting the now-cached campaign
// and lease builds no target and clones no runner.
func TestOneLedgerWorker(t *testing.T) {
	ts := httptest.NewServer(farmd.NewServer(farmd.Config{Cache: farmd.NewMemCache(0), Workers: 2}))
	defer ts.Close()
	req := smallMatrix()
	submitRender(t, ts.URL, req, farmd.StreamOptions{})
	jobs, err := req.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	lease := &farmd.ShardLease{Proto: farmd.LeaseProto, Job: jobs[0].Name, Seed: 11, N: 64,
		Key: strings.Repeat("cd", 32), Request: req}
	for i := 0; i < 2; i++ { // executed, then replayed from cache
		var res farmd.WireShardResult
		if err := (farmd.Wire{}).Call(t.Context(), http.MethodPost, ts.URL+"/v1/leases", lease, &res); err != nil {
			t.Fatal(err)
		}
	}
	doc := statsDoc(t, ts.URL)
	checkLedger(t, "dfarmd", doc, scrape(t, ts.URL), workerLedger, workerKeys)
	if doc["campaigns"] != 1.0 || doc["leases"] != 2.0 || doc["cache_hits"] != 1.0 {
		t.Fatalf("scenario did not run one campaign, two leases and one lease cache hit: %v", doc)
	}

	cold := scrape(t, ts.URL)
	submitRender(t, ts.URL, req, farmd.StreamOptions{})
	if err := (farmd.Wire{}).Call(t.Context(), http.MethodPost, ts.URL+"/v1/leases", lease, new(farmd.WireShardResult)); err != nil {
		t.Fatal(err)
	}
	warm := scrape(t, ts.URL)
	for _, series := range builtSeries {
		// One campaign job and one leased job, each built once.
		if cold[series] < 2 || warm[series] != cold[series] {
			t.Errorf("%s: %v after the cold run, %v after a fully cached resubmission", series, cold[series], warm[series])
		}
	}
}

// TestOneLedgerCoordinator: after one distributed campaign over two workers
// that mount the coordinator's shard store, dcoord's /v1/stats and each
// worker's are views of their registries.
func TestOneLedgerCoordinator(t *testing.T) {
	c, ts := startCoordinator(t, CoordConfig{Cache: farmd.NewMemCache(0), Workers: 3})
	var workers []string
	for i := 0; i < 2; i++ {
		cache := farmd.NewTiered(farmd.NewMemCache(0), farmd.NewRemoteCache(ts.URL, "", nil))
		workers = append(workers, startWorker(t, c, farmd.Config{Cache: cache, Workers: 2}).URL)
	}
	submitRender(t, ts.URL, smallMatrix(), farmd.StreamOptions{})

	doc, metrics := statsDoc(t, ts.URL), scrape(t, ts.URL)
	checkLedger(t, "dcoord", doc, metrics, coordLedger, coordKeys)
	dispatch := doc["dispatch"].(map[string]any)
	checkLedger(t, "dcoord dispatch", dispatch, metrics, coordDispatchLedger, dispatchKeys)
	var leases float64
	for worker, sum := range doc["lease_latency"].(map[string]any) {
		series := fmt.Sprintf("druzhba_fabric_lease_latency_seconds_count{worker=%q}", worker)
		if got := sum.(map[string]any)["count"]; got != metrics[series] {
			t.Errorf("lease_latency[%s].count = %v, /metrics %s = %v", worker, got, series, metrics[series])
		}
		leases += metrics[series]
	}
	if dispatch["leases"] != leases || leases == 0 {
		t.Errorf("dispatch.leases = %v, lease-latency observations sum to %v", dispatch["leases"], leases)
	}
	if doc["shard_puts"] == 0.0 || doc["shard_misses"] == 0.0 {
		t.Errorf("workers never reached the shard store: %v", doc)
	}
	var workerBuilds float64
	for _, url := range workers {
		wm := scrape(t, url)
		checkLedger(t, url, statsDoc(t, url), wm, workerLedger, workerKeys)
		workerBuilds += wm[builtSeries[0]]
	}
	// Every lease succeeded, so the coordinator planned, merged and cached
	// without ever building a target; the workers did that.
	if metrics[builtSeries[0]] != 0 || metrics[builtSeries[1]] != 0 || workerBuilds == 0 {
		t.Errorf("coordinator built %v targets and cloned %v runners (want 0, 0); workers built %v",
			metrics[builtSeries[0]], metrics[builtSeries[1]], workerBuilds)
	}
}

// TestOneAdmissionPath: both daemons admit POST /v1/campaigns through the
// same code, so every rejection — auth, body cap, malformed JSON, invalid
// matrix — is the same status and the same {"error": ...} body on each.
func TestOneAdmissionPath(t *testing.T) {
	const token = "fleet-s3cret"
	_, coord := startCoordinator(t, CoordConfig{AuthToken: token})
	worker := httptest.NewServer(farmd.NewServer(farmd.Config{AuthToken: token}))
	defer worker.Close()

	matrix := func(req farmd.MatrixRequest) []byte {
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	valid := matrix(*smallMatrix())
	for _, tc := range []struct {
		name, token string
		body        []byte
		want        int
	}{
		{"missing bearer", "", valid, http.StatusUnauthorized},
		{"wrong bearer", "wrong", valid, http.StatusUnauthorized},
		{"oversized body", token, append(bytes.Repeat([]byte(" "), farmd.MaxMatrixBytes), valid...), http.StatusBadRequest},
		{"malformed JSON", token, []byte(`{"arch":`), http.StatusBadRequest},
		{"bad arch", token, matrix(farmd.MatrixRequest{Arch: "quantum"}), http.StatusBadRequest},
		{"bad level", token, matrix(farmd.MatrixRequest{Levels: []string{"O9"}}), http.StatusBadRequest},
		{"bad mode", token, matrix(farmd.MatrixRequest{Mode: "anneal"}), http.StatusBadRequest},
	} {
		var answers []string
		for _, url := range []string{worker.URL, coord.URL} {
			req, err := http.NewRequest(http.MethodPost, url+"/v1/campaigns", bytes.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			if tc.token != "" {
				req.Header.Set("Authorization", "Bearer "+tc.token)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			var decoded struct {
				Error string `json:"error"`
			}
			if resp.StatusCode != tc.want || json.Unmarshal(body, &decoded) != nil || decoded.Error == "" {
				t.Errorf("%s on %s: %d %q, want %d with an error body", tc.name, url, resp.StatusCode, body, tc.want)
			}
			answers = append(answers, fmt.Sprintf("%d %s", resp.StatusCode, body))
		}
		if answers[0] != answers[1] {
			t.Errorf("%s: dfarmd answered %q, dcoord %q", tc.name, answers[0], answers[1])
		}
	}
}

// TestCampaignIDIgnoresLegacyBatch: CampaignID hashes the decoded request,
// and "batch" — an execution-strategy knob until the fuzzer began picking
// its own kernel — is no longer part of it, so a legacy body that still
// carries the field attaches to the same campaign (and journal) as the body
// without it. farmd's TestLegacyBatchFieldIsIgnored covers the lease key and
// the streamed rows.
func TestCampaignIDIgnoresLegacyBatch(t *testing.T) {
	id := func(body string) string {
		t.Helper()
		w := httptest.NewRecorder()
		req, ok := farmd.DecodeMatrix(w, httptest.NewRequest("POST", "/v1/campaigns", strings.NewReader(body)))
		if !ok {
			t.Fatalf("body %s rejected: %s", body, w.Body)
		}
		id, err := CampaignID(req)
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	want := id(`{"arch":"rmt","levels":["compiled"],"packets":600}`)
	for _, body := range []string{
		`{"arch":"rmt","levels":["compiled"],"packets":600,"batch":64}`,
		`{"batch":8,"arch":"rmt","levels":["compiled"],"packets":600}`,
	} {
		if got := id(body); got != want {
			t.Errorf("body %s is campaign %s, want %s", body, got, want)
		}
	}
	if other := id(`{"arch":"rmt","levels":["compiled"],"packets":601}`); other == want {
		t.Error("a different packet budget produced the same campaign ID")
	}
}
