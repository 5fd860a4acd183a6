package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// Metric is one reported value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Outcome is the result line the benchmark prints last.
type Outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Manifest records the configuration a result was measured under.
type Manifest struct {
	Workload   string         `json:"workload"`
	Trace      bool           `json:"trace"`
	Seed       uint64         `json:"seed"`
	Seconds    int            `json:"seconds"`
	Commit     string         `json:"commit"`
	Dirty      string         `json:"dirty"`
	GoVersion  string         `json:"go_version"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	NumCPU     int            `json:"nproc"`
	CPU        string         `json:"cpu"`
	Config     map[string]any `json:"config"`
	Counts     map[string]int `json:"counts"`
	// Spread holds [q1, median, q3] over the repetitions inside the run:
	// windows of the fixed phase, server starts, probes.
	Spread map[string][3]float64 `json:"spread"`
	// Reported holds metrics measured and printed but not in the result
	// line: their run-to-run spread on a shared VM exceeds any usable bound.
	Reported map[string]Metric `json:"reported,omitempty"`
	Notes    []string          `json:"notes,omitempty"`
}

// NewManifest fills in the machine and source description.
func NewManifest(workload string, seed uint64, seconds int, trace bool) *Manifest {
	m := &Manifest{
		Workload:   workload,
		Trace:      trace,
		Seed:       seed,
		Seconds:    seconds,
		Commit:     "unknown (not a git checkout)",
		Dirty:      "unknown",
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPU:        cpuModel(),
		Config:     map[string]any{},
		Counts:     map[string]int{},
		Spread:     map[string][3]float64{},
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		m.Commit = strings.TrimSpace(string(out))
		if st, err := exec.Command("git", "status", "--porcelain", "--untracked-files=no").Output(); err == nil {
			m.Dirty = fmt.Sprint(len(strings.TrimSpace(string(st))) > 0)
		}
	}
	return m
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// SetSpread records the quartiles of xs under name.
func (m *Manifest) SetSpread(name string, xs []float64) {
	q1, med, q3 := Quartiles(xs)
	m.Spread[name] = [3]float64{q1, med, q3}
}

// Print writes the human-readable report, the manifest as one JSON line
// and, last, the outcome line. Metrics named in order go to the outcome
// line; those named in reported, where measured, only to the report and
// the manifest.
func Print(w io.Writer, m *Manifest, order, reported []string, out Outcome, table string) error {
	fmt.Fprintf(w, "== %s (seed %d, %ds, trace=%v) ==\n", m.Workload, m.Seed, m.Seconds, m.Trace)
	for _, name := range order {
		v := out.Metrics[name]
		fmt.Fprintf(w, "  %-28s %14.4f %s\n", name, v.Value, v.Unit)
	}
	if len(reported) > 0 {
		fmt.Fprintf(w, "  reported, not gated:\n")
		m.Reported = map[string]Metric{}
		for _, name := range reported {
			v, ok := out.Metrics[name]
			if !ok {
				continue // not measured on this workload
			}
			fmt.Fprintf(w, "  %-28s %14.4f %s\n", name, v.Value, v.Unit)
			m.Reported[name] = v
			delete(out.Metrics, name)
		}
	}
	fmt.Fprintf(w, "  ops: sent %d, succeeded %d, failed %d\n", out.Attempted, out.Attempted-out.Failed, out.Failed)
	if table != "" {
		fmt.Fprint(w, table)
	}
	for _, n := range m.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	mb, err := json.Marshal(m)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "manifest: %s\n", mb)
	ob, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", ob)
	return err
}
