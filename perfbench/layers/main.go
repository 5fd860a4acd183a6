// Command layers is the benchmark's traced run. It rebuilds each workload's
// serving topology in process from the packages' public constructors,
// wraps the layer boundaries in timing decorators (http.Handler,
// core.Recommender, fleet.Transport.Exchange and the push of
// stream.Config), drives stream.Ingester.Step itself, runs the workload's
// traffic over loopback TCP, writes every span to a file and prints the
// per-layer metrics. End-to-end numbers come from the untraced run
// (perfbench/cmd/e2e) only.
//
// Usage (perfbench/run.sh builds the binaries and calls this):
//
//	layers -bin <dir> -work <dir> --workload get-hot --seed 1 --seconds 10 --trace 1
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"perfbench/bench"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/serve"
	"repro/internal/stream"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("layers: ")
	var (
		workload = flag.String("workload", "", "get-hot, batch-ring or get-ingest")
		seed     = flag.Uint64("seed", 1, "input seed")
		seconds  = flag.Int("seconds", 10, "length of the fixed-rate phase")
		trace    = flag.Int("trace", 1, "must be 1: the untraced run is perfbench/cmd/e2e")
		bin      = flag.String("bin", "", "directory holding loggen, train and recommend")
		work     = flag.String("work", "", "scratch directory for fixtures, logs and spans")
	)
	flag.Parse()
	// The senders sleep holding their P (see bench's sleepFor); two extra
	// Ps keep the in-process server and ingest loop from waiting on them.
	runtime.GOMAXPROCS(runtime.NumCPU() + 2)
	if *trace != 1 || *bin == "" || *work == "" || *seconds < 1 {
		flag.Usage()
		os.Exit(2)
	}
	h := &harness{
		bin:  *bin,
		work: filepath.Join(*work, fmt.Sprintf("traced-%s-%d", *workload, *seed)),
		seed: *seed,
		dur:  time.Duration(*seconds) * time.Second,
		rec:  newRecorder(),
		m:    bench.NewManifest(*workload, *seed, *seconds, true),
		out:  bench.Outcome{Correct: true, Metrics: map[string]bench.Metric{}},
	}
	if err := os.RemoveAll(h.work); err != nil {
		log.Fatal(err)
	}
	fx, err := bench.BuildFixture(h.bin, filepath.Join(h.work, "fixture"), h.seed)
	if err != nil {
		log.Fatal(err)
	}
	h.fx = fx
	switch *workload {
	case "get-hot":
		err = h.getHot()
	case "batch-ring":
		err = h.batchRing()
	case "get-ingest":
		err = h.getIngest()
	default:
		err = fmt.Errorf("unknown workload %q", *workload)
	}
	if err != nil {
		log.Fatal(err)
	}
	spans := h.rec.snapshot()
	path := filepath.Join(h.work, "spans.tsv")
	if err := write(path, spans); err != nil {
		log.Fatal(err)
	}
	h.m.Config["spans_file"] = path
	h.m.Counts["spans"] = len(spans)
	h.metrics(spans)
	if err := bench.Print(os.Stdout, h.m, metricOrder, nil, h.out, ""); err != nil {
		log.Fatal(err)
	}
}

// harness is one traced run's state.
type harness struct {
	bin, work string
	seed      uint64
	dur       time.Duration
	rec       *recorder
	fx        *bench.Fixture
	m         *bench.Manifest
	out       bench.Outcome

	loadMs        float64
	res           *bench.Result // fixed phase
	reqs          []bench.Request
	from, to      int64 // the fixed phase, in recorder time
	before, after map[string]float64
	route         string
	records       int // source-log records the ingester consumed in the fixed phase
}

// invalid marks the run incorrect with a reason.
func (h *harness) invalid(format string, args ...any) {
	h.out.Correct = false
	h.m.Notes = append(h.m.Notes, "INVALID: "+fmt.Sprintf(format, args...))
}

// load loads a model file the way cmd/serve does and wraps it in the timing
// decorator.
func (h *harness) load(path string) (core.Recommender, error) {
	rec, err := core.LoadAnyPath(path, core.LoadOptions{})
	if err != nil {
		return nil, err
	}
	if bw, ok := rec.(interface{ SetBatchWorkers(int) }); ok {
		// cmd/serve's default is one worker per P; the untraced server has
		// a P per CPU, this process two more for the senders' sleeps.
		bw.SetBatchWorkers(runtime.NumCPU())
	}
	return tracedRec{Recommender: rec, rec: h.rec}, nil
}

// loadTimed is load, timed as core.load_ms.
func (h *harness) loadTimed(path string) (core.Recommender, error) {
	start := time.Now()
	rec, err := h.load(path)
	h.loadMs = float64(time.Since(start)) / 1e6
	return rec, err
}

// listen serves handler on a loopback port until the returned stop is
// called.
func listen(handler http.Handler) (string, func(), error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: handler, ReadHeaderTimeout: 5 * time.Second}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(l) // returns ErrServerClosed after Shutdown
	}()
	return l.Addr().String(), func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx) // a timed-out drain leaves nothing to clean up in a process about to exit
		<-done
	}, nil
}

// run drives the warm-up and the fixed phase, checks their answers against
// oracle (checkFixed: in the fixed phase too) and keeps the fixed phase for
// the metrics.
func (h *harness) run(addr string, ph bench.Phase, warm, fixed func(*bench.Phase), oracle bench.Oracle, checkFixed bool, skip func(bench.Sample) bool) error {
	admin := &bench.Server{Addr: addr}
	w := ph
	warm(&w)
	wres, err := w.Run()
	if err != nil {
		return err
	}
	if err := h.evaluate(wres, ph.Reqs, oracle, skip); err != nil {
		return err
	}
	if h.before, err = admin.Prometheus(); err != nil {
		return err
	}
	f := ph
	fixed(&f)
	h.from = h.rec.now()
	res, err := f.Run()
	h.to = h.rec.now()
	if err != nil {
		return err
	}
	if h.after, err = admin.Prometheus(); err != nil {
		return err
	}
	if !checkFixed {
		oracle = nil
	}
	h.res, h.reqs = res, ph.Reqs
	return h.evaluate(res, ph.Reqs, oracle, skip)
}

// evaluate checks a phase's answers and counts its ops.
func (h *harness) evaluate(res *bench.Result, reqs []bench.Request, oracle bench.Oracle, skip func(bench.Sample) bool) error {
	q, err := bench.Evaluate(res, reqs, h.fx.In, oracle, skip)
	if err != nil {
		return err
	}
	a, f := res.Counts()
	h.out.Attempted += a
	h.out.Failed += f
	h.m.Counts["answers_checked"] += q.Checked
	h.m.Counts["answers_mismatched"] += q.Mismatched
	if q.Mismatched > 0 {
		h.invalid("%d of %d answers differ from the oracle", q.Mismatched, q.Checked)
	}
	if f > 0 {
		h.invalid("%d of %d ops failed", f, a)
	}
	return nil
}

func (h *harness) getHot() error {
	in := h.fx.In
	hot := in.HotItems(bench.HotContexts)
	oracle, err := bench.BuildOracle(filepath.Join(h.bin, "recommend"), h.fx.Model, in.ContextsOf(hot), bench.TopN)
	if err != nil {
		return err
	}
	t := in.NewGetTraffic("perfbench", bench.RNG(h.seed, 1), hot, h.dur)
	rec, err := h.loadTimed(h.fx.Model)
	if err != nil {
		return err
	}
	handler := serve.New(rec, serve.Options{DefaultN: bench.TopN})
	addr, stop, err := listen(&tracedHandler{name: spanServe, next: handler, rec: h.rec, outer: true})
	if err != nil {
		return err
	}
	defer stop()
	cs, err := bench.DialN(addr, 2)
	if err != nil {
		return err
	}
	defer bench.CloseAll(cs)
	h.route = "serve_route_suggest_us"
	ph := bench.Phase{Conns: cs, Reqs: t.Reqs, CtxOf: in.CtxOf}
	return h.run(addr, ph,
		func(p *bench.Phase) { p.Open, p.Dur = t.Warm, bench.Warmup },
		func(p *bench.Phase) { p.Open, p.Dur = t.Fixed, h.dur },
		oracle, true, nil)
}

func (h *harness) batchRing() error {
	in := h.fx.In
	reqs := in.BatchRequests("perfbench", bench.RNG(h.seed, 2), 2048)
	var items []int32
	for _, q := range reqs {
		items = append(items, q.Items...)
	}
	oracle, err := bench.BuildOracle(filepath.Join(h.bin, "recommend"), h.fx.Model, in.ContextsOf(items), bench.TopN)
	if err != nil {
		return err
	}
	rec, err := h.loadTimed(h.fx.Model)
	if err != nil {
		return err
	}
	// cmd/serve -role router -shards 3 -replicas 2 -cache BatchCache: one
	// model shared by three loopback shards, the cache split across them.
	const shards = 3
	handlers := make([]http.Handler, shards)
	for i := range handlers {
		handlers[i] = &tracedHandler{name: spanServe, rec: h.rec, next: serve.New(rec, serve.Options{
			DefaultN:      bench.TopN,
			CacheCapacity: (bench.BatchCache + shards - 1) / shards,
		})}
	}
	tr := tracedTransport{Transport: fleet.NewLoopbackTransport(handlers...), rec: h.rec}
	router, err := fleet.NewShardRouterOpts(fleet.NewRing(shards, 0), tr, fleet.RouterOptions{Replicas: 2, ShardTimeout: 2 * time.Second})
	if err != nil {
		return err
	}
	addr, stop, err := listen(&tracedHandler{name: spanRouter, next: router, rec: h.rec, outer: true})
	if err != nil {
		return err
	}
	defer stop()
	cs, err := bench.DialN(addr, 2)
	if err != nil {
		return err
	}
	defer bench.CloseAll(cs)
	h.route = "router_request_us"
	order := bench.ClosedOrders(2, len(reqs))
	ph := bench.Phase{Conns: cs, Reqs: reqs, CtxOf: in.CtxOf}
	return h.run(addr, ph,
		func(p *bench.Phase) { p.Closed, p.Dur = order, bench.Warmup },
		func(p *bench.Phase) { p.Closed, p.Dur = order, h.dur },
		oracle, true, nil)
}

func (h *harness) getIngest() error {
	in := h.fx.In
	hot := in.HotItems(bench.HotContexts)
	probes := bench.MakeProbes(h.seed, bench.IngestProbes)
	tracker := bench.NewProbeTracker(probes, in.AddProbes(probes))
	t := in.NewGetTraffic("perfbench", bench.RNG(h.seed, 4), hot, h.dur)

	dir := filepath.Join(h.work, "ingest")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	model, logPath := filepath.Join(dir, "live.bin"), filepath.Join(dir, "live.log")
	if err := bench.CopyFile(model, h.fx.Model); err != nil {
		return err
	}
	if err := bench.CopyFile(logPath, h.fx.TrainLog); err != nil {
		return err
	}
	// cmd/serve -arms live=live.bin -ingest-log live.log -ingest-model
	// live.bin -ingest-arm live: one arm, reloaded by every push.
	champion, err := h.loadTimed(model)
	if err != nil {
		return err
	}
	reg := fleet.NewRegistry(0)
	slot, err := reg.Add("live", champion, func() (core.Recommender, error) { return h.load(model) })
	if err != nil {
		return err
	}
	rt, err := fleet.NewRouter(reg, fleet.ArmSpec{Name: "live", Weight: 1})
	if err != nil {
		return err
	}
	defer rt.Close()
	ing, err := stream.NewIngester(stream.Config{
		LogPath:           logPath,
		WALPath:           filepath.Join(dir, "ingest.wal"),
		ModelPath:         model,
		BaseVocab:         champion.Dict().Strings(),
		Train:             core.Config{ReductionThreshold: bench.Threshold, SessionGap: bench.SessionGap},
		RecompileSessions: bench.IngestRecompile,
		Push: func(string) error {
			start := h.rec.now()
			_, err := slot.Reload(false)
			if err == nil {
				err = rt.RefreshBase()
			}
			h.rec.add(span{Name: spanSwap, Start: start, End: h.rec.now(), Fail: err != nil})
			return err
		},
	})
	if err != nil {
		return err
	}
	defer ing.Close()
	// Set-up: ingest the seeded log to the end, as cmd/serve does before
	// the benchmark counts it ready.
	for {
		progressed, err := ing.Step()
		if err != nil {
			return err
		}
		if !progressed {
			break
		}
	}
	if ing.Status().Pushes == 0 {
		return fmt.Errorf("seeded log produced no push")
	}
	snap := filepath.Join(h.work, "oracle.bin")
	if err := bench.CopyFile(snap, model); err != nil {
		return err
	}
	oracle, err := bench.BuildOracle(filepath.Join(h.bin, "recommend"), snap, in.ContextsOf(hot), bench.TopN)
	if err != nil {
		return err
	}
	handler := serve.New(champion, serve.Options{DefaultN: bench.TopN, Fleet: rt})
	addr, stop, err := listen(&tracedHandler{name: spanServe, next: handler, rec: h.rec, outer: true})
	if err != nil {
		return err
	}
	defer stop()
	cs, err := bench.DialN(addr, 2)
	if err != nil {
		return err
	}
	defer bench.CloseAll(cs)
	h.route = "serve_route_suggest_us"

	// The harness drives Step itself, as the -ingest-poll 20ms loop would.
	stopLoop := make(chan struct{})
	loopDone := make(chan error, 1)
	go func() { loopDone <- h.stepLoop(ing, stopLoop) }()
	app := &bench.Appender{Path: logPath, Sessions: in.Sessions,
		Tracker: tracker, Seed: h.seed}
	stopApp := make(chan struct{})
	appDone := make(chan error, 1)
	var offFrom int64
	ph := bench.Phase{Conns: cs, Reqs: t.Reqs, CtxOf: in.CtxOf}
	err = h.run(addr, ph,
		func(p *bench.Phase) { p.Open, p.Dur = t.Warm, bench.Warmup },
		func(p *bench.Phase) {
			p.Open, p.Dur, p.Pick, p.Observe = t.Fixed, h.dur, tracker.Pick, tracker.Observe
			offFrom = ing.Status().LogOffset
			go func() { appDone <- app.Run(stopApp, h.dur) }()
		},
		oracle, false, func(s bench.Sample) bool { return tracker.IsProbe(s.Req) })
	offTo := ing.Status().LogOffset
	close(stopApp)
	appErr := <-appDone
	close(stopLoop)
	loopErr := <-loopDone
	if err != nil {
		return err
	}
	if appErr != nil {
		return appErr
	}
	if loopErr != nil {
		return loopErr
	}
	n, err := countLines(logPath, offFrom, offTo)
	if err != nil {
		return err
	}
	h.records = n
	secs, published, unseen := tracker.Freshness()
	h.m.Counts["probes_published"] = published
	h.m.Counts["probes_seen_in_fixed_phase"] = len(secs)
	h.m.Config["freshness_s_median"] = bench.Median(secs)
	_ = unseen // probes published late in the phase may land after it; the untraced run checks them all
	return nil
}

// stepLoop calls Step until stop closes, sleeping 20 ms when the tail is
// idle, and records a span per productive step.
func (h *harness) stepLoop(ing *stream.Ingester, stop <-chan struct{}) error {
	for {
		select {
		case <-stop:
			return nil
		default:
		}
		pushes := ing.Status().Pushes
		start := h.rec.now()
		progressed, err := ing.Step()
		if err != nil {
			return err
		}
		if progressed {
			h.rec.add(span{Name: spanStep, Start: start, End: h.rec.now(), Pushed: ing.Status().Pushes > pushes})
			continue
		}
		select {
		case <-stop:
			return nil
		case <-time.After(20 * time.Millisecond):
		}
	}
}
