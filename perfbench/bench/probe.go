package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// Probe is a pair of never-seen queries. Sessions issuing A then B teach a
// model B as A's follower, so the first answer to A that suggests B shows
// that a model holding the new data serves.
type Probe struct{ A, B string }

// probeSessions is how many probe sessions one probe appends: enough to
// survive the -threshold 2 data reduction.
const probeSessions = 3

// eventStart is the event time appended records start at, after every
// record cmd/loggen writes.
var eventStart = time.Date(2031, 1, 1, 0, 0, 0, 0, time.UTC)

// MakeProbes returns n probes unique to seed.
func MakeProbes(seed uint64, n int) []Probe {
	out := make([]Probe, n)
	for k := range out {
		out[k] = Probe{
			A: fmt.Sprintf("zqprobe s%d n%d alpha", seed, k),
			B: fmt.Sprintf("zqprobe s%d n%d omega", seed, k),
		}
	}
	return out
}

// probeLines returns the log records of probe k starting at event time t.
func probeLines(p Probe, k int, t time.Time) string {
	var b bytes.Buffer
	for j := range probeSessions {
		m := fmt.Sprintf("probe%dm%d", k, j)
		b.WriteString(LogLine(m, p.A, t))
		b.WriteString(LogLine(m, p.B, t.Add(time.Minute)))
		t = t.Add(2 * SessionGap)
	}
	return b.String()
}

// ProbeTracker follows probes from the moment they are published (appended
// to the tailed log) to the first answer that suggests B for A.
type ProbeTracker struct {
	Probes []Probe
	Reqs   []int32 // pre-encoded GET for each probe's A

	mu        sync.Mutex
	published []time.Time
	seen      []time.Time
	needles   [][]byte
	reqProbe  map[int32]int
}

// NewProbeTracker tracks probes whose GET requests are reqs.
func NewProbeTracker(probes []Probe, reqs []int32) *ProbeTracker {
	t := &ProbeTracker{
		Probes:    probes,
		Reqs:      reqs,
		published: make([]time.Time, len(probes)),
		seen:      make([]time.Time, len(probes)),
		reqProbe:  make(map[int32]int, len(reqs)),
	}
	for k, p := range probes {
		q, _ := json.Marshal(p.B) // a string always marshals
		t.needles = append(t.needles, append([]byte(`"query":`), q...))
		t.reqProbe[reqs[k]] = k
	}
	return t
}

// Publish records that probe k became available at at.
func (t *ProbeTracker) Publish(k int, at time.Time) {
	t.mu.Lock()
	t.published[k] = at
	t.mu.Unlock()
}

// pending returns the oldest published probe not yet seen, or -1.
func (t *ProbeTracker) pending() int {
	for k := range t.Probes {
		if t.published[k].IsZero() {
			return -1
		}
		if t.seen[k].IsZero() {
			return k
		}
	}
	return -1
}

// Pick replaces every ProbeSlot-th send with the oldest pending probe's
// GET.
func (t *ProbeTracker) Pick(sender, k int, planned int32) int32 {
	if k%ProbeSlot != 0 {
		return planned
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if p := t.pending(); p >= 0 {
		return t.Reqs[p]
	}
	return planned
}

// IsProbe reports whether req is a probe GET.
func (t *ProbeTracker) IsProbe(req int32) bool {
	_, ok := t.reqProbe[req]
	return ok
}

// Observe marks a probe seen when its answer suggests B.
func (t *ProbeTracker) Observe(req int32, at time.Time, body []byte) {
	k, ok := t.reqProbe[req]
	if !ok || !bytes.Contains(body, t.needles[k]) {
		return
	}
	t.mu.Lock()
	if t.seen[k].IsZero() && !t.published[k].IsZero() {
		t.seen[k] = at
	}
	t.mu.Unlock()
}

// Freshness returns, for every published probe, the seconds from publish
// to first sight (NaN-free: unseen probes are counted, not timed).
func (t *ProbeTracker) Freshness() (secs []float64, published, unseen int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for k := range t.Probes {
		if t.published[k].IsZero() {
			continue
		}
		published++
		if t.seen[k].IsZero() {
			unseen++
			continue
		}
		secs = append(secs, t.seen[k].Sub(t.published[k]).Seconds())
	}
	return secs, published, unseen
}

// Appender writes held-out sessions to a tailed query log at IngestRate
// records per second, one new machine per session and event time advancing
// a minute per record, and a probe every ProbeEvery until probeUntil.
type Appender struct {
	Path     string
	Sessions [][]string
	Tracker  *ProbeTracker
	Seed     uint64

	Records int // records appended, valid after Run returns
}

// Run appends until stop is closed.
func (a *Appender) Run(stop <-chan struct{}, probeUntil time.Duration) error {
	f, err := os.OpenFile(a.Path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return err
	}
	defer f.Close()
	t0 := time.Now()
	event := eventStart.Add(time.Duration(a.Seed%1000) * 24 * time.Hour)
	next, probe := 0, 0
	var b bytes.Buffer
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return nil
		case <-tick.C:
		}
		el := time.Since(t0)
		b.Reset()
		for float64(a.Records) < IngestRate*el.Seconds() {
			s := a.Sessions[next%len(a.Sessions)]
			m := fmt.Sprintf("h%dx%d", a.Seed, next)
			for _, q := range s {
				b.WriteString(LogLine(m, q, event))
				event = event.Add(time.Minute)
				a.Records++
			}
			next++
		}
		due := probe < len(a.Tracker.Probes) && el < probeUntil &&
			el >= ProbeEvery/2+time.Duration(probe)*ProbeEvery
		if due {
			b.WriteString(probeLines(a.Tracker.Probes[probe], probe, event))
			event = event.Add(probeSessions * 2 * SessionGap)
		}
		if b.Len() == 0 {
			continue
		}
		if _, err := f.Write(b.Bytes()); err != nil {
			return err
		}
		if due {
			a.Tracker.Publish(probe, time.Now())
			probe++
		}
	}
}
