// Command benchjson converts `go test -bench` output on stdin into a
// machine-readable JSON document, so the serving-path performance trajectory
// (ns/op, B/op, allocs/op per benchmark) can be diffed across PRs instead of
// living in prose. `make bench-json` maintains BENCH_serving.json with it
// and CI runs the same target as a smoke check.
//
// The output file is a trajectory, not a snapshot: each run appends (or, for
// the same commit, replaces) a stamped entry, so perf history survives
// across PRs. Files written by the old single-snapshot format are upgraded
// in place, keeping their numbers as the first entry.
//
// A `go test -count N` run prints N sample lines per benchmark; each result
// records the median of every column over them (plus the min and max when
// there is more than one sample), the sample count, and the GOMAXPROCS the
// samples ran at (the -N name suffix; 1 when absent).
//
// The -gate flag turns the run into a regression check on the medians: after
// recording, `-gate BenchmarkServeHTTPCached=2` exits non-zero if that
// benchmark's allocs/op exceeds the given ceiling, and
// `-gate BenchmarkCompiledBlobSizeV5:cps5-bytes=117800` gates a
// b.ReportMetric value instead (the part after the colon names the metric
// unit). CI uses both to fail on serving-path allocation regressions and on
// compiled-blob size and speed regressions.
//
// Usage:
//
//	go test -run=NONE -bench=. -benchmem -count 5 . | benchjson -out BENCH_serving.json \
//	    -gate BenchmarkServeHTTPCached=2 -gate BenchmarkCompiledBlobSizeV5:cps5-bytes=117800
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
)

// Result is one benchmark's measurements: the median over its samples of
// every column. Standard -benchmem columns get first-class fields;
// b.ReportMetric extras land in Metrics. Min and Max hold each column's
// extremes, keyed by unit ("ns/op", "allocs/op", a metric's unit), when
// there was more than one sample. Entries recorded before samples were
// kept carry neither those nor GOMAXPROCS and Samples.
type Result struct {
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  *float64           `json:"b_per_op,omitempty"`
	AllocsPerOp *float64           `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
	GOMAXPROCS  int                `json:"gomaxprocs,omitempty"`
	Samples     int                `json:"samples,omitempty"`
	Min         map[string]float64 `json:"min,omitempty"`
	Max         map[string]float64 `json:"max,omitempty"`
}

// Entry is one recorded run: environment header lines plus results keyed by
// benchmark name (GOMAXPROCS suffix stripped), stamped with the git commit
// it was measured at. Dirty marks a run against uncommitted changes; the
// commit stamp itself stays the clean short hash so reruns after committing
// replace the provisional entry instead of duplicating it.
type Entry struct {
	Commit     string            `json:"commit"`
	Dirty      bool              `json:"dirty,omitempty"`
	GOOS       string            `json:"goos,omitempty"`
	GOARCH     string            `json:"goarch,omitempty"`
	CPU        string            `json:"cpu,omitempty"`
	Benchmarks map[string]Result `json:"benchmarks"`
}

// Output is the whole trajectory document, oldest entry first.
type Output struct {
	Entries []Entry `json:"entries"`
}

// legacyOutput is the pre-trajectory single-snapshot layout, still readable
// so existing files upgrade in place.
type legacyOutput struct {
	GOOS       string            `json:"goos,omitempty"`
	GOARCH     string            `json:"goarch,omitempty"`
	CPU        string            `json:"cpu,omitempty"`
	Benchmarks map[string]Result `json:"benchmarks"`
}

type gateList []string

func (g *gateList) String() string     { return strings.Join(*g, ",") }
func (g *gateList) Set(v string) error { *g = append(*g, v); return nil }

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchjson: ")
	out := flag.String("out", "", "trajectory file to update (default: print the new entry to stdout)")
	commit := flag.String("commit", "", "commit stamp for this entry (default: BENCH_COMMIT env, then git describe)")
	var gates gateList
	flag.Var(&gates, "gate", "Benchmark=maxAllocs regression gate, repeatable; exits 1 when exceeded")
	flag.Parse()

	stamp, dirty := resolveCommit(*commit)
	entry, err := parseRun(bufio.NewScanner(os.Stdin))
	if err != nil {
		log.Fatal(err)
	}
	entry.Commit, entry.Dirty = stamp, dirty

	doc := readTrajectory(*out)
	doc.upsert(entry)
	enc, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
	} else {
		if err := os.WriteFile(*out, enc, 0o644); err != nil {
			log.Fatal(err)
		}
		log.Printf("recorded %d benchmarks at commit %s (%d entries in %s)",
			len(entry.Benchmarks), entry.Commit, len(doc.Entries), *out)
	}

	// The entry is recorded either way; gate failures still fail the run.
	if err := applyGates(entry, gates); err != nil {
		log.Fatal(err)
	}
}

// resolveCommit picks the entry stamp — explicit flag, BENCH_COMMIT (CI can
// pass its SHA), then `git describe --always --dirty` — and splits any
// "-dirty" marker into the separate dirty flag so the recorded commit is
// always the clean hash.
func resolveCommit(flagVal string) (string, bool) {
	if flagVal != "" {
		return splitDirty(flagVal)
	}
	if env := os.Getenv("BENCH_COMMIT"); env != "" {
		return splitDirty(env)
	}
	out, err := exec.Command("git", "describe", "--always", "--dirty").Output()
	if err == nil {
		if s := strings.TrimSpace(string(out)); s != "" {
			return splitDirty(s)
		}
	}
	return "unknown", false
}

// splitDirty strips git describe's "-dirty" suffix, reporting it separately.
func splitDirty(stamp string) (string, bool) {
	if s, ok := strings.CutSuffix(stamp, "-dirty"); ok {
		return s, true
	}
	return stamp, false
}

// readTrajectory loads the existing trajectory, upgrading legacy
// single-snapshot files into a one-entry history.
func readTrajectory(path string) *Output {
	doc := &Output{}
	if path == "" {
		return doc
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		if !os.IsNotExist(err) {
			log.Fatalf("reading %s: %v", path, err)
		}
		return doc
	}
	if err := json.Unmarshal(raw, doc); err == nil && len(doc.Entries) > 0 {
		// Entries written before the dirty flag baked "-dirty" into the
		// commit stamp; split it out so the history keys stay clean hashes.
		for i := range doc.Entries {
			if s, dirty := splitDirty(doc.Entries[i].Commit); dirty {
				doc.Entries[i].Commit, doc.Entries[i].Dirty = s, true
			}
		}
		return doc
	}
	var legacy legacyOutput
	if err := json.Unmarshal(raw, &legacy); err == nil && len(legacy.Benchmarks) > 0 {
		doc.Entries = []Entry{{
			Commit: "(pre-trajectory)", GOOS: legacy.GOOS, GOARCH: legacy.GOARCH,
			CPU: legacy.CPU, Benchmarks: legacy.Benchmarks,
		}}
		return doc
	}
	log.Fatalf("%s exists but is neither a trajectory nor a legacy snapshot; refusing to overwrite", path)
	return nil
}

// upsert appends the entry, replacing an existing entry for the same commit
// (reruns refine rather than duplicate).
func (o *Output) upsert(e Entry) {
	for i := range o.Entries {
		if o.Entries[i].Commit == e.Commit {
			o.Entries[i] = e
			return
		}
	}
	o.Entries = append(o.Entries, e)
}

// applyGates enforces `Benchmark=maxAllocs` and `Benchmark:metric=max`
// ceilings against the new entry's medians.
func applyGates(e Entry, gates []string) error {
	for _, g := range gates {
		name, limitStr, ok := strings.Cut(g, "=")
		if !ok {
			return fmt.Errorf("malformed -gate %q (want Benchmark=maxAllocs or Benchmark:metric=max)", g)
		}
		limit, err := strconv.ParseFloat(limitStr, 64)
		if err != nil {
			return fmt.Errorf("malformed -gate limit %q: %v", limitStr, err)
		}
		name, metric, isMetric := strings.Cut(name, ":")
		res, ok := e.Benchmarks[name]
		if !ok {
			return fmt.Errorf("gate %s: benchmark missing from this run", name)
		}
		if isMetric {
			val, ok := res.Metrics[metric]
			if !ok {
				return fmt.Errorf("gate %s: metric %q missing (benchmark must b.ReportMetric it)", name, metric)
			}
			if val > limit {
				return fmt.Errorf("gate %s: %s = %g exceeds the %g ceiling — benchmark-metric regression",
					name, metric, val, limit)
			}
			log.Printf("gate %s: %s = %g <= %g ok", name, metric, val, limit)
			continue
		}
		if res.AllocsPerOp == nil {
			return fmt.Errorf("gate %s: no allocs/op column (run with -benchmem)", name)
		}
		if *res.AllocsPerOp > limit {
			return fmt.Errorf("gate %s: %.1f allocs/op exceeds the %.1f ceiling — serving-path allocation regression",
				name, *res.AllocsPerOp, limit)
		}
		log.Printf("gate %s: %.1f allocs/op <= %.1f ok", name, *res.AllocsPerOp, limit)
	}
	return nil
}

// sampleSet accumulates one benchmark's -count samples, column by column.
type sampleSet struct {
	procs int
	iters []float64
	cols  map[string][]float64 // unit -> one value per sample
}

// parseRun reads a `go test -bench` transcript into an entry: header lines
// set the environment, and every benchmark's samples reduce to one Result.
func parseRun(sc *bufio.Scanner) (Entry, error) {
	entry := Entry{Benchmarks: make(map[string]Result)}
	sets := make(map[string]*sampleSet)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos:"):
			entry.GOOS = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			entry.GOARCH = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "cpu:"):
			entry.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "Benchmark"):
			name, procs, iters, cols, err := parseBenchLine(line)
			if err != nil {
				log.Printf("skipping %q: %v", line, err)
				continue
			}
			set := sets[name]
			if set == nil {
				set = &sampleSet{procs: procs, cols: make(map[string][]float64)}
				sets[name] = set
			}
			if procs != set.procs {
				return entry, fmt.Errorf("%s ran at GOMAXPROCS %d and %d; record one setting per run", name, set.procs, procs)
			}
			set.iters = append(set.iters, float64(iters))
			for unit, v := range cols {
				set.cols[unit] = append(set.cols[unit], v)
			}
		}
		// PASS/FAIL/ok lines and test noise fall through silently.
	}
	if err := sc.Err(); err != nil {
		return entry, err
	}
	if len(sets) == 0 {
		return entry, fmt.Errorf("no benchmark lines found on stdin")
	}
	for name, set := range sets {
		entry.Benchmarks[name] = set.summarise()
	}
	return entry, nil
}

// summarise reduces the samples to their medians, plus min and max per
// column when there is more than one sample.
func (s *sampleSet) summarise() Result {
	res := Result{Iterations: int64(median(s.iters)), GOMAXPROCS: s.procs, Samples: len(s.iters)}
	for unit, vals := range s.cols {
		med := median(vals)
		switch unit {
		case "ns/op":
			res.NsPerOp = med
		case "B/op":
			res.BytesPerOp = &med
		case "allocs/op":
			res.AllocsPerOp = &med
		default:
			if res.Metrics == nil {
				res.Metrics = make(map[string]float64)
			}
			res.Metrics[unit] = med
		}
		if len(s.iters) > 1 {
			if res.Min == nil {
				res.Min, res.Max = make(map[string]float64), make(map[string]float64)
			}
			res.Min[unit], res.Max[unit] = slices.Min(vals), slices.Max(vals)
		}
	}
	return res
}

// median returns the middle value (the mean of the two middle values for an
// even count).
func median(vals []float64) float64 {
	v := slices.Sorted(slices.Values(vals))
	n := len(v)
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

// parseBenchLine decodes one result line of the standard bench format:
//
//	BenchmarkName-8   12345   678.9 ns/op   10 B/op   2 allocs/op   1.0 extra-metric
//
// into the bare name, the GOMAXPROCS suffix (1 when absent), the iteration
// count and the value of every unit column.
func parseBenchLine(line string) (string, int, int64, map[string]float64, error) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return "", 0, 0, nil, fmt.Errorf("want >= 4 fields, got %d", len(fields))
	}
	name, procs := fields[0], 1
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if n, err := strconv.Atoi(name[i+1:]); err == nil {
			name, procs = name[:i], n
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return "", 0, 0, nil, fmt.Errorf("iterations: %v", err)
	}
	cols := make(map[string]float64)
	for i := 2; i+1 < len(fields); i += 2 {
		val, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return "", 0, 0, nil, fmt.Errorf("value %q: %v", fields[i], err)
		}
		cols[fields[i+1]] = val
	}
	if _, ok := cols["ns/op"]; !ok {
		return "", 0, 0, nil, fmt.Errorf("no ns/op column")
	}
	return name, procs, iters, cols, nil
}
