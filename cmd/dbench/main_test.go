package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCheckFailsOnAnUnmatchedArchitecture: the regression gate must not go
// blind when an architecture's engine is relabelled. A run whose dRMT cells
// match no baseline cell fails -check even though its RMT cells pass, and
// one that matches both passes.
func TestCheckFailsOnAnUnmatchedArchitecture(t *testing.T) {
	base := Report{
		Rows: []Row{{Benchmark: "sampling", Level: "compiled", NsPerPHV: 40}},
		DRMT: []DRMTRow{{Benchmark: "l2l3", Engine: "flat", NsPerPHV: 100}},
	}
	data, err := json.Marshal(base)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	rows := []Row{{Benchmark: "sampling", Level: "compiled", NsPerPHV: 41}}
	for _, tc := range []struct {
		drmt []DRMTRow
		want string // "" = pass
	}{
		{[]DRMTRow{{Benchmark: "l2l3", Engine: "flat", NsPerPHV: 101}}, ""},
		{[]DRMTRow{{Benchmark: "l2l3", Engine: "slots", NsPerPHV: 101}}, "none of this run's 1 drmt cells matches"},
		{[]DRMTRow{{Benchmark: "l2l3", Engine: "flat", NsPerPHV: 1000}}, "drmt/flat 10.00x"},
		{nil, ""},
	} {
		err := checkRegression(path, rows, tc.drmt, 0.25)
		if tc.want == "" && err != nil || tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)) {
			t.Errorf("dRMT cells %+v: err %v, want %q", tc.drmt, err, tc.want)
		}
	}
	if err := checkRegression(path, []Row{{Benchmark: "sampling", Level: "scc", NsPerPHV: 41}}, nil, 0.25); err == nil || !strings.Contains(err.Error(), "1 rmt cells") {
		t.Errorf("an unmatched RMT level passed the gate: %v", err)
	}
}
