// Command e2e is the benchmark's end-to-end driver. It runs one workload
// against real cmd/serve processes over loopback TCP, checks every answer
// and prints every end-to-end metric by name and unit, ending with one JSON
// result line. It depends only on the repository's binaries, their flags,
// the HTTP API and the query-log format.
//
// Usage (perfbench/run.sh builds the binaries and calls this):
//
//	e2e -bin <dir> -work <dir> --workload get-hot --seed 1 --seconds 10
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"perfbench/bench"
)

// Workload parameters.
const (
	getLimit     = 50 * time.Millisecond
	batchLimit   = 100 * time.Millisecond
	capacityDur  = 5 * time.Second
	starts       = 21 // server starts per run; setup_s is their median
	ingestStarts = 3  // get-ingest's starts each ingest the seeded log
	batchReqs    = 2048
)

// gated are the end-to-end metrics of the result line, in print order;
// BENCHMARK.json bounds each of them.
var gated = []string{"setup_s", "cpu_us_per_ctx", "ok_ratio", "ndcg5", "coverage", "rss_mb"}

// reported are the end-to-end metrics printed and kept in the manifest but
// left out of the result line: on a shared 2-vCPU VM their spread between
// runs (interquartile range 20-90% of the median) exceeds any usable bound.
// fail_ratio is ok_ratio's complement, printed under the name the issue
// gives it; it reads 0 on a correct run, which a gated metric may not.
var reported = []string{"setup_wall_s", "p50_ms", "p99_ms", "slo_rps", "ctx_per_s", "freshness_s", "fail_ratio"}

func main() {
	log.SetFlags(0)
	log.SetPrefix("e2e: ")
	var (
		workload = flag.String("workload", "", "get-hot, batch-ring or get-ingest")
		seed     = flag.Uint64("seed", 1, "input seed")
		seconds  = flag.Int("seconds", 10, "length of the fixed-rate phase")
		trace    = flag.Int("trace", 0, "must be 0: the traced run is perfbench/layers")
		bin      = flag.String("bin", "", "directory holding loggen, train, serve and recommend")
		work     = flag.String("work", "", "scratch directory for fixtures, logs and results")
	)
	flag.Parse()
	if *trace != 0 || *bin == "" || *work == "" || *seconds < 1 {
		flag.Usage()
		os.Exit(2)
	}
	r := &run{
		bin:  *bin,
		work: filepath.Join(*work, fmt.Sprintf("%s-%d", *workload, *seed)),
		seed: *seed,
		dur:  time.Duration(*seconds) * time.Second,
		m:    bench.NewManifest(*workload, *seed, *seconds, false),
		out:  bench.Outcome{Correct: true, Metrics: map[string]bench.Metric{}},
	}
	if err := os.RemoveAll(r.work); err != nil {
		log.Fatal(err)
	}
	var err error
	switch *workload {
	case "get-hot":
		err = r.getHot()
	case "batch-ring":
		err = r.batchRing()
	case "get-ingest":
		err = r.getIngest()
	default:
		err = fmt.Errorf("unknown workload %q", *workload)
	}
	if err != nil {
		log.Fatal(err)
	}
	if err := bench.Print(os.Stdout, r.m, gated, reported, r.out, r.table.String()); err != nil {
		log.Fatal(err)
	}
	if r.out.Correct {
		// The fixture and server directories take about 30 MB a run; an
		// invalid run keeps them for diagnosis.
		if err := os.RemoveAll(r.work); err != nil {
			log.Print(err)
		}
	}
}

// run is one invocation's state.
type run struct {
	bin, work string
	seed      uint64
	dur       time.Duration
	fx        *bench.Fixture
	m         *bench.Manifest
	out       bench.Outcome
	table     strings.Builder
}

func (r *run) metric(name, unit string, v float64) {
	r.out.Metrics[name] = bench.Metric{Value: v, Unit: unit}
}

// invalid marks the run incorrect with a reason.
func (r *run) invalid(format string, args ...any) {
	r.out.Correct = false
	r.m.Notes = append(r.m.Notes, "INVALID: "+fmt.Sprintf(format, args...))
}

func (r *run) path(name string) string { return filepath.Join(r.work, name) }

func (r *run) tool(name string) string { return filepath.Join(r.bin, name) }

// fixture builds the seed's model and held-out traffic.
func (r *run) fixture() error {
	fx, err := bench.BuildFixture(r.bin, r.path("fixture"), r.seed)
	if err != nil {
		return err
	}
	r.fx = fx
	r.m.Config["server_gomaxprocs"] = "runtime default (nproc)"
	r.m.Config["fixture_seed"] = fx.FixtureSeed
	r.m.Config["traffic_seed"] = fx.TrafficSeed
	r.m.Config["train_sessions"] = bench.TrainSessions
	r.m.Config["heldout_sessions"] = bench.HeldSessions
	r.m.Counts["heldout_items"] = len(fx.In.Items)
	r.m.Counts["heldout_contexts"] = len(fx.In.Contexts)
	return nil
}

// setup starts the server the given number of times, each into a fresh
// directory prepared by prepare, polling ready every poll, and keeps the
// last one. setup_s is the median over the starts of the server's CPU time
// from process start to ready; setup_wall_s, the median wall time.
func (r *run) setup(starts int, poll time.Duration, prepare func(dir string) ([]string, error), ready func(*bench.Server) (bool, error)) (*bench.Server, error) {
	var wall, cpu []float64
	var srv *bench.Server
	for i := range starts {
		dir := r.path(fmt.Sprintf("server%d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		args, err := prepare(dir)
		if err != nil {
			return nil, err
		}
		s, err := bench.StartServer(r.tool("serve"), filepath.Join(dir, "serve.log"), args...)
		if err != nil {
			return nil, err
		}
		d, err := s.WaitReady(60*time.Second, poll, func() (bool, error) { return ready(s) })
		var c float64
		if err == nil {
			c, err = s.CPUSeconds()
		}
		if err != nil {
			s.Stop()
			return nil, err
		}
		wall = append(wall, d.Seconds())
		cpu = append(cpu, c)
		if i < starts-1 {
			s.Stop()
		} else {
			srv = s
		}
	}
	r.metric("setup_wall_s", "s", bench.Median(wall))
	r.m.SetSpread("setup_wall_s", wall)
	r.metric("setup_s", "s", bench.Median(cpu))
	r.m.SetSpread("setup_s", cpu)
	r.m.Counts["server_starts"] = len(wall)
	return srv, nil
}

// count adds a phase's ops to the outcome.
func (r *run) count(res *bench.Result) {
	a, f := res.Counts()
	r.out.Attempted += a
	r.out.Failed += f
}

// latency records p50_ms and p99_ms of the fixed phase, the lag check and
// their spreads over windows.
func (r *run) latency(res *bench.Result) (bench.Latency, error) {
	l, err := bench.Summarise(res, r.dur, windowsOf(r.dur))
	if err != nil {
		return l, err
	}
	r.metric("p50_ms", "ms", l.P50ms)
	r.metric("p99_ms", "ms", l.P99ms)
	r.m.SetSpread("p50_ms", l.WindowP50)
	r.m.SetSpread("p99_ms", l.WindowP99)
	r.m.Counts["latency_samples"] = l.Samples
	r.m.Counts["latency_windows_below_1000"] = l.ShortWindows
	r.m.Config["lag_p99_ms"] = l.LagP99ms
	if l.LagP99ms > bench.LagBoundMs {
		r.invalid("generator lag p99 %.3f ms exceeds %.1f ms: the generator, not the server, set the latency", l.LagP99ms, bench.LagBoundMs)
	}
	return l, nil
}

// quality records ndcg5 and coverage.
func (r *run) quality(q bench.Quality) {
	r.metric("ndcg5", "ratio", q.NDCG())
	r.metric("coverage", "ratio", q.Coverage())
	r.m.Counts["answers_scored"] = q.Answers
}

// check counts a phase's oracle comparisons.
func (r *run) check(q bench.Quality) {
	r.m.Counts["answers_checked"] += q.Checked
	r.m.Counts["answers_mismatched"] += q.Mismatched
}

// finish records ok_ratio and rss_mb.
func (r *run) finish(srv *bench.Server) error {
	if n := r.m.Counts["answers_mismatched"]; n > 0 {
		r.invalid("%d of %d answers differ from the oracle", n, r.m.Counts["answers_checked"])
	}
	r.metric("ok_ratio", "ratio", float64(r.out.Attempted-r.out.Failed)/float64(max(r.out.Attempted, 1)))
	r.metric("fail_ratio", "ratio", float64(r.out.Failed)/float64(max(r.out.Attempted, 1)))
	if r.out.Failed > 0 {
		r.invalid("%d of %d ops failed", r.out.Failed, r.out.Attempted)
	}
	rss, err := srv.PeakRSSMB()
	if err != nil {
		return err
	}
	r.metric("rss_mb", "MB", rss)
	return nil
}

// recon writes the reconciliation table: client mean, the server's route
// mean from its Prometheus histograms, its stage means, and the remainder
// no stage accounts for.
func (r *run) recon(before, after map[string]float64, route string, clientUs float64) {
	fmt.Fprintf(&r.table, "  reconciliation (fixed phase, µs per request):\n")
	fmt.Fprintf(&r.table, "    %-34s %10.1f\n", "client mean", clientUs)
	server, n := bench.RouteMean(before, after, route)
	fmt.Fprintf(&r.table, "    %-34s %10.1f  (%d requests)\n", "server "+route+" mean", server, int(n))
	var stages []string
	for k := range after {
		if name, ok := strings.CutSuffix(k, "_us_count"); ok && strings.Contains(name, "_stage_") {
			stages = append(stages, name+"_us")
		}
	}
	sort.Strings(stages)
	for _, st := range stages {
		if mean, c := bench.RouteMean(before, after, st); c > 0 {
			fmt.Fprintf(&r.table, "    %-34s %10.1f  (%d spans, %.2f per request)\n", "  stage "+st, mean, int(c), c/max(n, 1))
		}
	}
	fmt.Fprintf(&r.table, "    %-34s %10.1f\n", "unexplained (client - server)", clientUs-server)
	r.m.Config["recon_server_us_mean"] = server
	r.m.Config["recon_unexplained_us_mean"] = clientUs - server
}

// capacity runs the workload's requests as a closed loop of the two
// callers and records ctx_per_s, the median over windows of the contexts
// answered per second. It returns the median request rate, which places
// the rungs of the SLO ladder, and the server's CPU microseconds per
// context answered.
func (r *run) capacity(srv *bench.Server, ph bench.Phase, pick func() int32, oracle bench.Oracle) (rate, cpu float64, err error) {
	order := make([]int32, 1<<16)
	for i := range order {
		order[i] = pick()
	}
	c := ph
	c.Open, c.Dur = nil, capacityDur
	c.Closed = [][]int32{order[:len(order)/2], order[len(order)/2:]}
	cpu0, err := srv.CPUSeconds()
	if err != nil {
		return 0, 0, err
	}
	res, err := c.Run()
	if err != nil {
		return 0, 0, err
	}
	cpu1, err := srv.CPUSeconds()
	if err != nil {
		return 0, 0, err
	}
	q, err := bench.Evaluate(res, c.Reqs, r.fx.In, oracle, nil)
	if err != nil {
		return 0, 0, err
	}
	r.check(q)
	r.count(res)
	cpu = r.cpuPerCtx("capacity", cpu1-cpu0, res.Answered(c.Reqs))
	return r.closedRate(res, c.Reqs, capacityDur), cpu, nil
}

// cpuPerCtx records in the manifest, under the phase's name, the server's
// CPU microseconds per context the phase answered, and returns it.
func (r *run) cpuPerCtx(phase string, cpuSec float64, answered int) float64 {
	us := cpuSec * 1e6 / float64(max(answered, 1))
	r.m.Config[phase+"_server_cpu_s"] = cpuSec
	r.m.Config[phase+"_cpu_us_per_ctx"] = us
	return us
}

// closedRate records ctx_per_s from a closed-loop phase and returns its
// median request rate.
func (r *run) closedRate(res *bench.Result, reqs []bench.Request, dur time.Duration) float64 {
	rates := res.WindowRates(reqs, dur, windowsOf(dur))
	ctx := bench.Median(rates)
	r.metric("ctx_per_s", "1/s", ctx)
	r.m.SetSpread("ctx_per_s", rates)
	a, _ := res.Counts()
	items := 0
	for _, ss := range res.Samples {
		for _, s := range ss {
			items += len(reqs[s.Req].Items)
		}
	}
	return ctx * float64(a) / float64(max(items, 1))
}

// windowsOf is the number of one-second windows a phase is split into.
func windowsOf(d time.Duration) int { return max(2, int(d/time.Second)) }

// rung is one offered rate of the SLO ladder.
type rung struct {
	Rate  float64 `json:"rate"`
	P99ms float64 `json:"p99_ms"`
	OK    bool    `json:"ok"`
}

// ladder finds slo_rps: the highest offered rate at which the p99 latency
// stays within limit, with no failed op and no backlog left at the rung's
// end. The rungs are fixed fractions of the closed-loop capacity; each is
// split into four windows and judged by the median window p99, so a short
// burst of interference from other tenants does not fail it. slo_rps is
// interpolated, in log latency, between the last rung that passed and the
// first that failed.
func (r *run) ladder(ph bench.Phase, pick func() int32, capacity float64, limit time.Duration) error {
	rng := bench.RNG(r.seed, 7)
	step := func(rate float64) (rung, error) {
		w := time.Duration(float64(time.Second) * max(0.5, 1100/rate))
		d := 4 * w
		open := ph
		open.Closed, open.Dur = nil, d
		open.Open = bench.OpenSchedules(rng, len(ph.Conns), rate, d, pick)
		res, err := open.Run()
		if err != nil {
			return rung{}, err
		}
		g := rung{Rate: rate, OK: true}
		wins := make([][]float64, 4)
		for _, ss := range res.Samples {
			for _, s := range ss {
				if !s.OK {
					g.OK = false // a failed op misses the limit
					continue
				}
				wi := min(int(s.Sched/w), 3)
				wins[wi] = append(wins[wi], float64(s.Latency())/1e6)
				if s.Done > d+limit {
					g.OK = false // backlog left at the rung's end
				}
			}
		}
		var p99s []float64
		for _, l := range wins {
			sort.Float64s(l)
			p, _ := bench.PercentileOrMax(l, 0.99)
			p99s = append(p99s, p)
		}
		g.P99ms = bench.Median(p99s)
		g.OK = g.OK && g.P99ms <= float64(limit)/1e6
		return g, nil
	}
	var rungs []rung
	defer func() { r.m.Config["slo_rungs"] = rungs }()
	limitMs := float64(limit) / 1e6
	f := 0.5
	g, err := step(f * capacity)
	rungs = append(rungs, g)
	for tries := 0; err == nil && !g.OK && tries < 2; tries++ {
		f /= 2
		g, err = step(f * capacity)
		rungs = append(rungs, g)
	}
	if err != nil {
		return err
	}
	if !g.OK {
		return fmt.Errorf("no offered rate down to %.0f/s meets p99 <= %s", f*capacity, limit)
	}
	slo := g.Rate
	for _, f := range []float64{0.65, 0.8, 0.9, 1.0, 1.1, 1.25} {
		if f*capacity <= slo {
			continue
		}
		next, err := step(f * capacity)
		if err != nil {
			return err
		}
		rungs = append(rungs, next)
		if !next.OK {
			slo = g.Rate + (next.Rate-g.Rate)/2
			if next.P99ms > limitMs && g.P99ms > 0 {
				frac := math.Log(limitMs/g.P99ms) / math.Log(next.P99ms/g.P99ms)
				slo = g.Rate + (next.Rate-g.Rate)*min(max(frac, 0), 1)
			}
			break
		}
		g, slo = next, next.Rate
	}
	r.metric("slo_rps", "1/s", slo)
	r.m.Config["slo_p99_limit_ms"] = limitMs
	r.m.Config["slo_capacity_estimate"] = capacity
	return nil
}
