package bench

import (
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"
)

// Workload sizes, fixed so every commit is measured on the same inputs.
const (
	TrainSessions = 20000 // fixture training log
	HeldSessions  = 20000 // held-out traffic log
	Threshold     = 2     // cmd/train -threshold
	TopN          = 5     // suggestions per answer (the paper's N)
	HotContexts   = 1000  // get-hot pool: well under the 16384-entry default cache
	BatchSize     = 64

	GetRate         = 2500.0 // GET /suggest per second on get-hot and get-ingest
	BatchCache      = 3072   // batch-ring router -cache: far below the held-out context pool
	IngestRate      = 2000.0 // records per second appended on get-ingest
	IngestRecompile = 1500   // get-ingest -ingest-recompile: sessions between recompiles
	IngestProbes    = 64     // probes available to a get-ingest run
	ProbeEvery      = time.Second
	ProbeSlot       = 8 // every 8th send of a sender may carry a probe
	Warmup          = time.Second

	// LagBoundMs bounds the generator's own lateness (p99, ms): a run
	// beyond it measured the generator, not the server, and is invalid.
	// Host stalls of a few milliseconds are routine on a shared VM.
	LagBoundMs = 20.0
)

// Fixture is the trained model and the held-out traffic of one seed.
type Fixture struct {
	Dir      string
	TrainLog string
	Model    string
	In       *Inputs
	// FixtureSeed and TrafficSeed are the cmd/loggen seeds of the training
	// and held-out logs; they differ so quality is scored on unseen sessions.
	FixtureSeed, TrafficSeed int64
}

// BuildFixture generates the training log, trains the fixture model and
// generates the held-out traffic with cmd/loggen and cmd/train from bin.
func BuildFixture(bin, dir string, seed uint64) (*Fixture, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	f := &Fixture{
		Dir:         dir,
		TrainLog:    filepath.Join(dir, "train.log"),
		Model:       filepath.Join(dir, "fixture.bin"),
		FixtureSeed: int64(2*seed + 1),
		TrafficSeed: int64(2*seed + 2),
	}
	held := filepath.Join(dir, "heldout.log")
	steps := [][]string{
		{"loggen", "-sessions", strconv.Itoa(TrainSessions), "-seed", strconv.FormatInt(f.FixtureSeed, 10), "-out", f.TrainLog},
		{"train", "-log", f.TrainLog, "-model", f.Model, "-threshold", strconv.Itoa(Threshold)},
		{"loggen", "-sessions", strconv.Itoa(HeldSessions), "-seed", strconv.FormatInt(f.TrafficSeed, 10), "-out", held},
	}
	for _, s := range steps {
		if err := Run(filepath.Join(bin, s[0]), s[1:]...); err != nil {
			return nil, err
		}
	}
	sessions, err := ReadSessionsFile(held)
	if err != nil {
		return nil, err
	}
	f.In = NewInputs(sessions)
	if len(f.In.Items) == 0 {
		return nil, fmt.Errorf("held-out log %s yields no contexts", held)
	}
	return f, nil
}

// RNG returns the generator stream named by stream for a seed.
func RNG(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// GetRequests pre-encodes one GET /suggest per item.
func (in *Inputs) GetRequests(host string) []Request {
	reqs := make([]Request, len(in.Items))
	for i := range in.Items {
		reqs[i] = Request{
			Bytes: EncodeGET(host, SuggestTarget(in.Contexts[in.CtxOf[i]])),
			Items: []int32{int32(i)},
		}
	}
	return reqs
}

// BatchRequests pre-encodes n POST /suggest/batch requests of BatchSize
// items each, every item drawn from a context chosen uniformly among all
// held-out contexts.
func (in *Inputs) BatchRequests(host string, rng *rand.Rand, n int) []Request {
	reqs := make([]Request, n)
	for i := range reqs {
		items := make([]int32, BatchSize)
		for j := range items {
			c := in.ItemsOf[rng.IntN(len(in.Contexts))]
			items[j] = c[rng.IntN(len(c))]
		}
		reqs[i] = Request{Bytes: EncodePOST(host, "/suggest/batch", in.BatchBody(items)), Items: items}
	}
	return reqs
}

// GetTraffic is a GET workload's pre-encoded traffic: one request per
// item, and open-loop schedules for the warm-up and the fixed phase, drawn
// by Pick.
type GetTraffic struct {
	Reqs        []Request
	Pick        func() int32
	Warm, Fixed [][]Slot
}

// NewGetTraffic encodes the GET traffic of a run drawing from pool.
func (in *Inputs) NewGetTraffic(host string, rng *rand.Rand, pool []int32, dur time.Duration) GetTraffic {
	t := GetTraffic{Reqs: in.GetRequests(host), Pick: PickFrom(rng, pool)}
	t.Warm = OpenSchedules(rng, 2, GetRate, Warmup, t.Pick)
	t.Fixed = OpenSchedules(rng, 2, GetRate, dur, t.Pick)
	return t
}

// AddProbes adds one item per probe (context A, truth B) and returns them.
func (in *Inputs) AddProbes(probes []Probe) []int32 {
	items := make([]int32, len(probes))
	for k, p := range probes {
		items[k] = in.AddItem([]string{p.A}, p.B)
	}
	return items
}

// PickFrom returns a draw uniform over pool.
func PickFrom(rng *rand.Rand, pool []int32) func() int32 {
	return func() int32 { return pool[rng.IntN(len(pool))] }
}

// OpenSchedules splits a Poisson stream of rate per second over senders
// independent streams of rate/senders each.
func OpenSchedules(rng *rand.Rand, senders int, rate float64, dur time.Duration, pick func() int32) [][]Slot {
	out := make([][]Slot, senders)
	for i := range out {
		out[i] = Poisson(rng, rate/float64(senders), dur, pick)
	}
	return out
}

// ClosedOrders returns each sender's request order for a closed loop over
// n pre-encoded requests: sender i cycles through its own share.
func ClosedOrders(senders, n int) [][]int32 {
	out := make([][]int32, senders)
	for i := range n {
		out[i%senders] = append(out[i%senders], int32(i))
	}
	return out
}

// Latency summarises a phase's latencies: per window the p50 and p99, and
// their medians and quartiles over windows.
type Latency struct {
	Samples              int
	P50ms, P99ms         float64 // medians over windows
	MeanUs               float64
	ShortWindows         int // windows whose p99 is their maximum
	LagP99ms             float64
	WindowP50, WindowP99 []float64
}

// Summarise computes the latency summary of the samples that succeeded,
// split into windows of equal length by scheduled time. The medians over
// windows keep a burst of interference from the machine's other tenants,
// shorter than half the phase, out of the result. A window too small for
// its p99 reports its maximum, which bounds the p99 from above.
func Summarise(res *Result, dur time.Duration, windows int) (Latency, error) {
	var l Latency
	wins := make([][]float64, windows)
	var all, lags []float64
	for _, ss := range res.Samples {
		for _, s := range ss {
			lags = append(lags, float64(s.Lag)/1e6)
			if !s.OK {
				continue
			}
			ms := float64(s.Latency()) / 1e6
			w := int(int64(s.Sched) * int64(windows) / int64(dur))
			w = min(max(w, 0), windows-1)
			wins[w] = append(wins[w], ms)
			all = append(all, ms)
		}
	}
	l.Samples = len(all)
	l.MeanUs = Mean(all) * 1000
	for i, w := range wins {
		sort.Float64s(w)
		p50, err := Percentile(w, 0.50)
		if err != nil {
			return l, fmt.Errorf("window %d: %w", i, err)
		}
		p99, exact := PercentileOrMax(w, 0.99)
		if !exact {
			l.ShortWindows++
		}
		l.WindowP50 = append(l.WindowP50, p50)
		l.WindowP99 = append(l.WindowP99, p99)
	}
	l.P50ms = Median(l.WindowP50)
	l.P99ms = Median(l.WindowP99)
	sort.Float64s(lags)
	if len(lags) > 0 {
		l.LagP99ms = lags[rank(len(lags), 0.99)-1]
	}
	return l, nil
}

// WindowRates returns the contexts answered per second by successful ops in
// each of windows equal windows of the phase, by completion time.
func (res *Result) WindowRates(reqs []Request, dur time.Duration, windows int) []float64 {
	n := make([]float64, windows)
	for _, ss := range res.Samples {
		for _, s := range ss {
			if s.OK && s.Done < dur {
				n[int(int64(s.Done)*int64(windows)/int64(dur))] += float64(len(reqs[s.Req].Items))
			}
		}
	}
	for i := range n {
		n[i] /= dur.Seconds() / float64(windows)
	}
	return n
}

// Answered returns the contexts answered by a phase's successful ops.
func (res *Result) Answered(reqs []Request) int {
	n := 0
	for _, ss := range res.Samples {
		for _, s := range ss {
			if s.OK {
				n += len(reqs[s.Req].Items)
			}
		}
	}
	return n
}

// Counts returns a phase's attempted and failed operations.
func (res *Result) Counts() (attempted, failed int) {
	for _, ss := range res.Samples {
		for _, s := range ss {
			attempted++
			if !s.OK {
				failed++
			}
		}
	}
	return attempted, failed
}

// Quality is the answer check and the paper's quality metrics over a
// phase's answered contexts.
type Quality struct {
	Answers    int // contexts answered
	Covered    int // answers with at least one suggestion
	NDCGSum    float64
	Checked    int // answers compared with the oracle
	Mismatched int
}

// NDCG returns the mean NDCG@5 over covered answers, the paper's
// convention.
func (q Quality) NDCG() float64 {
	if q.Covered == 0 {
		return 0
	}
	return q.NDCGSum / float64(q.Covered)
}

// Coverage returns the share of answers with at least one suggestion.
func (q Quality) Coverage() float64 {
	if q.Answers == 0 {
		return 0
	}
	return float64(q.Covered) / float64(q.Answers)
}

// Evaluate scores every answer of a phase. When oracle is non-nil, every
// answer is compared with it, and an op holding a mismatch is marked
// failed. skip excludes ops (probes) from the quality metrics.
func Evaluate(res *Result, reqs []Request, in *Inputs, oracle Oracle, skip func(s Sample) bool) (Quality, error) {
	var q Quality
	parsed := make(map[AnswerKey][]Suggestion, len(res.Answers))
	for k, b := range res.Answers {
		a, err := ParseAnswer(b)
		if err != nil {
			return q, err
		}
		parsed[k] = a
	}
	for si, ss := range res.Samples {
		for oi := range ss {
			s := &ss[oi]
			if !s.OK || (skip != nil && skip(*s)) {
				continue
			}
			for j, item := range reqs[s.Req].Items {
				ctx := in.CtxOf[item]
				a := parsed[AnswerKey{Ctx: ctx, Hash: res.Hashes[si][int(s.HashOff)+j]}]
				q.Answers++
				if len(a) > 0 {
					q.Covered++
					q.NDCGSum += NDCG5(Queries(a), in.Items[item].Truth)
				}
				if oracle != nil {
					q.Checked++
					if !Match(a, oracle[CtxKey(in.Contexts[ctx])]) {
						q.Mismatched++
						s.OK = false
					}
				}
			}
		}
	}
	return q, nil
}
