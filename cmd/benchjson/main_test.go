package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestParseRunKeepsEverySample: a -count 3 run at GOMAXPROCS 4 records the
// median, min and max of each column over the three samples and the
// GOMAXPROCS they ran at, and gates compare against the median.
func TestParseRunKeepsEverySample(t *testing.T) {
	run := `goos: linux
goarch: amd64
cpu: Test CPU
BenchmarkPredictCPS5-4   	 1000	  700 ns/op	   0 B/op	   0 allocs/op	 1.02 cps5-over-compiled
BenchmarkPredictCPS5-4   	 1200	  500 ns/op	   0 B/op	   0 allocs/op	 0.98 cps5-over-compiled
BenchmarkPredictCPS5-4   	 1100	  900 ns/op	   0 B/op	   2 allocs/op	 1.10 cps5-over-compiled
BenchmarkOnce            	   25	   40 ns/op
PASS
`
	e, err := parseRun(bufio.NewScanner(strings.NewReader(run)))
	if err != nil {
		t.Fatal(err)
	}
	if e.GOOS != "linux" || e.CPU != "Test CPU" {
		t.Fatalf("header = %+v", e)
	}
	r := e.Benchmarks["BenchmarkPredictCPS5"]
	if r.GOMAXPROCS != 4 || r.Samples != 3 || r.Iterations != 1100 || r.NsPerOp != 700 {
		t.Fatalf("result = %+v, want gomaxprocs 4, 3 samples, median 1100 iterations and 700 ns/op", r)
	}
	if *r.AllocsPerOp != 0 || r.Metrics["cps5-over-compiled"] != 1.02 {
		t.Fatalf("medians = %v allocs/op, %v", *r.AllocsPerOp, r.Metrics)
	}
	if r.Min["ns/op"] != 500 || r.Max["ns/op"] != 900 || r.Max["allocs/op"] != 2 || r.Min["cps5-over-compiled"] != 0.98 {
		t.Fatalf("min %v, max %v", r.Min, r.Max)
	}
	once := e.Benchmarks["BenchmarkOnce"]
	if once.GOMAXPROCS != 1 || once.Samples != 1 || once.Min != nil || once.NsPerOp != 40 {
		t.Fatalf("single sample = %+v", once)
	}
	if err := applyGates(e, []string{"BenchmarkPredictCPS5=0", "BenchmarkPredictCPS5:cps5-over-compiled=1.05"}); err != nil {
		t.Fatalf("median gates: %v", err)
	}
	if err := applyGates(e, []string{"BenchmarkPredictCPS5:cps5-over-compiled=1.01"}); err == nil {
		t.Fatal("a median above the ceiling passed")
	}
}

// TestParseRunRejectsMixedGOMAXPROCS: one benchmark sampled at two
// GOMAXPROCS settings cannot reduce to one result.
func TestParseRunRejectsMixedGOMAXPROCS(t *testing.T) {
	run := "BenchmarkX-2  10  5 ns/op\nBenchmarkX-4  10  3 ns/op\n"
	if _, err := parseRun(bufio.NewScanner(strings.NewReader(run))); err == nil {
		t.Fatal("mixed GOMAXPROCS samples were merged")
	}
}

// TestReadTrajectoryLegacyEntries: entries recorded before samples were kept
// (no gomaxprocs, samples, min or max) and the pre-trajectory snapshot
// layout still read.
func TestReadTrajectoryLegacyEntries(t *testing.T) {
	dir := t.TempDir()
	traj := filepath.Join(dir, "traj.json")
	old := `{"entries": [{"commit": "abc-dirty", "benchmarks": {"BenchmarkA": {"iterations": 25, "ns_per_op": 12, "allocs_per_op": 0, "metrics": {"cps5-bytes": 117800}}}}]}`
	if err := os.WriteFile(traj, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	doc := readTrajectory(traj)
	if len(doc.Entries) != 1 || doc.Entries[0].Commit != "abc" || !doc.Entries[0].Dirty {
		t.Fatalf("entries = %+v", doc.Entries)
	}
	a := doc.Entries[0].Benchmarks["BenchmarkA"]
	if a.NsPerOp != 12 || a.Metrics["cps5-bytes"] != 117800 || a.Samples != 0 {
		t.Fatalf("legacy result = %+v", a)
	}
	if _, err := json.Marshal(doc); err != nil {
		t.Fatal(err)
	}

	snap := filepath.Join(dir, "snap.json")
	if err := os.WriteFile(snap, []byte(`{"goos": "linux", "benchmarks": {"BenchmarkB": {"iterations": 1, "ns_per_op": 3}}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if doc := readTrajectory(snap); len(doc.Entries) != 1 || doc.Entries[0].Benchmarks["BenchmarkB"].NsPerOp != 3 {
		t.Fatalf("snapshot entries = %+v", doc.Entries)
	}
}
