// Command summary reads the output of several benchmark runs and prints,
// per workload, every metric's median and quartiles over the runs, with
// the runs' seeds and the configuration they share.
//
// Usage:
//
//	for s in 1 2 3 4 5; do
//		bash perfbench/run.sh --workload get-hot --seed $s --seconds 10 --trace 0 > run-$s.log
//	done
//	(cd perfbench && go run ./cmd/summary ../run-*.log)
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"log"
	"os"
	"sort"
	"strings"

	"perfbench/bench"
)

// group is the runs of one workload, traced or not.
type group struct {
	seeds   []uint64
	values  map[string][]float64
	units   map[string]string
	correct int
	first   *bench.Manifest
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("summary: ")
	if len(os.Args) < 2 {
		log.Fatal("usage: summary <run output>...")
	}
	groups := map[string]*group{}
	for _, path := range os.Args[1:] {
		m, out, err := read(path)
		if err != nil {
			log.Fatal(err)
		}
		key := fmt.Sprintf("%s trace=%v", m.Workload, m.Trace)
		g := groups[key]
		if g == nil {
			g = &group{values: map[string][]float64{}, units: map[string]string{}, first: m}
			groups[key] = g
		}
		g.seeds = append(g.seeds, m.Seed)
		if out.Correct {
			g.correct++
		}
		for _, ms := range []map[string]bench.Metric{out.Metrics, m.Reported} {
			for name, v := range ms {
				g.values[name] = append(g.values[name], v.Value)
				g.units[name] = v.Unit
			}
		}
	}
	var keys []string
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		g := groups[k]
		m := g.first
		fmt.Printf("== %s: %d runs, %d correct, seeds %v\n", k, len(g.seeds), g.correct, g.seeds)
		fmt.Printf("   commit %s dirty=%s, %s, GOMAXPROCS %d, nproc %d, %s, %d s per run\n",
			m.Commit, m.Dirty, m.GoVersion, m.GOMAXPROCS, m.NumCPU, m.CPU, m.Seconds)
		fmt.Printf("   %-28s %14s %14s %14s %8s\n", "metric", "q1", "median", "q3", "iqr/med")
		var names []string
		for n := range g.values {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			q1, med, q3 := bench.Quartiles(g.values[n])
			spread := 0.0
			if med != 0 {
				spread = (q3 - q1) / med
			}
			fmt.Printf("   %-28s %14.6g %14.6g %14.6g %8.3f %s\n", n, q1, med, q3, spread, g.units[n])
		}
	}
}

// read returns a run's manifest and result line.
func read(path string) (*bench.Manifest, *bench.Outcome, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	var manifest, last string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 16<<20)
	for sc.Scan() {
		if s, ok := strings.CutPrefix(sc.Text(), "manifest: "); ok {
			manifest = s
		}
		if strings.TrimSpace(sc.Text()) != "" {
			last = sc.Text()
		}
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}
	if manifest == "" {
		return nil, nil, fmt.Errorf("%s: no manifest line", path)
	}
	var m bench.Manifest
	var out bench.Outcome
	if err := json.Unmarshal([]byte(manifest), &m); err != nil {
		return nil, nil, fmt.Errorf("%s: manifest: %w", path, err)
	}
	if err := json.Unmarshal([]byte(last), &out); err != nil {
		return nil, nil, fmt.Errorf("%s: result line: %w", path, err)
	}
	return &m, &out, nil
}
