package farmd

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"druzhba/internal/campaign"
	"druzhba/internal/obs"
)

// TestServerMetricsAndStats pins the worker's observability surface:
// GET /metrics serves the farmd serving counters and tier-labeled cache
// families, and /v1/stats carries the additive lease_errors and
// remote-cache fields without disturbing the existing keys.
func TestServerMetricsAndStats(t *testing.T) {
	reg := obs.NewRegistry()
	cache := InstrumentCache(NewMemCache(0), TierMem, reg)
	s := NewServer(Config{Cache: cache, Workers: 2, Metrics: reg})
	// A remote tier on the same registry, driven to 7 hits and 3 misses:
	// /v1/stats reads the pair back from its series.
	remote := InstrumentCache(NewMemCache(0), TierRemote, reg)
	remote.Put("k", &campaign.ShardResult{Checked: 1})
	for i := 0; i < 7; i++ {
		remote.Get("k")
	}
	for i := 0; i < 3; i++ {
		remote.Get("absent")
	}
	srv := httptest.NewServer(s)
	defer srv.Close()
	req := smallMatrix()

	// Two campaign submissions (cold then warm) drive the mem tier
	// through misses, puts and hits; two identical leases drive the
	// lease counters and replay the second from cache.
	rawRows(t, srv.URL, req)
	rawRows(t, srv.URL, req)
	jobs, err := req.LeaseJobs(PhaseFuzz, nil)
	if err != nil {
		t.Fatal(err)
	}
	lease := &ShardLease{Proto: LeaseProto, Job: jobs[0].Name, Seed: 11, N: 64,
		Key: strings.Repeat("cd", 32), Request: req}
	for i := 0; i < 2; i++ {
		resp := postLease(t, srv.URL, lease, "")
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("lease %d: %s", i, resp.Status)
		}
	}

	hits, misses := cacheGets(reg).With(TierMem, "hit").Value(), cacheGets(reg).With(TierMem, "miss").Value()
	if hits == 0 || misses == 0 {
		t.Fatalf("instrumented mem tier saw hits=%v misses=%v, want both nonzero", hits, misses)
	}

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %d", resp.StatusCode)
	}
	metrics := string(body)
	for _, want := range []string{
		"druzhba_farmd_campaigns_total 2",
		"druzhba_farmd_leases_total 2",
		"druzhba_farmd_lease_errors_total 0",
		"druzhba_farmd_lease_seconds_count 2",
		`druzhba_cache_gets_total{tier="mem",outcome="hit"}`,
		`druzhba_cache_gets_total{tier="mem",outcome="miss"}`,
		`druzhba_cache_puts_total{tier="mem"}`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q:\n%s", want, metrics)
		}
	}

	// /v1/stats: the new fields are additive and the remote pair comes
	// straight from the remote tier's series.
	sresp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]any
	err = json.NewDecoder(sresp.Body).Decode(&raw)
	sresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for key, want := range map[string]float64{
		"campaigns":           2,
		"leases":              2,
		"lease_errors":        0,
		"remote_cache_hits":   7,
		"remote_cache_misses": 3,
	} {
		got, ok := raw[key].(float64)
		if !ok {
			t.Errorf("/v1/stats missing %q: %v", key, raw)
			continue
		}
		if got != want {
			t.Errorf("/v1/stats %s = %v, want %v", key, got, want)
		}
	}
}
