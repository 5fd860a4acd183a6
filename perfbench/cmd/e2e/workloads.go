package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"perfbench/bench"
)

// host is the Host header of every pre-encoded request; the server does
// not route on it.
const host = "perfbench"

// measure runs the warm-up and the fixed phase of ph, checking answers
// against oracle (in the fixed phase only when checkFixed), and records
// latency and quality. It returns the fixed phase's result and the
// server's CPU microseconds per context answered in it.
func (r *run) measure(srv *bench.Server, ph bench.Phase, warm, fixed func(*bench.Phase), route string, oracle bench.Oracle, checkFixed bool, skip func(bench.Sample) bool) (*bench.Result, float64, error) {
	w := ph
	warm(&w)
	wres, err := w.Run()
	if err != nil {
		return nil, 0, err
	}
	wq, err := bench.Evaluate(wres, ph.Reqs, r.fx.In, oracle, skip)
	if err != nil {
		return nil, 0, err
	}
	r.check(wq)
	r.count(wres)
	before, err := srv.Prometheus()
	if err != nil {
		return nil, 0, err
	}
	f := ph
	fixed(&f)
	cpu0, err := srv.CPUSeconds()
	if err != nil {
		return nil, 0, err
	}
	res, err := f.Run()
	if err != nil {
		return nil, 0, err
	}
	cpu1, err := srv.CPUSeconds()
	if err != nil {
		return nil, 0, err
	}
	after, err := srv.Prometheus()
	if err != nil {
		return nil, 0, err
	}
	fo := oracle
	if !checkFixed {
		fo = nil
	}
	q, err := bench.Evaluate(res, ph.Reqs, r.fx.In, fo, skip)
	if err != nil {
		return nil, 0, err
	}
	r.check(q)
	r.quality(q)
	r.count(res)
	cpu := r.cpuPerCtx("fixed", cpu1-cpu0, res.Answered(ph.Reqs))
	lat, err := r.latency(res)
	if err != nil {
		return nil, 0, err
	}
	r.m.Config["fixed_phase_s"] = res.Elapsed.Seconds()
	r.m.Config["warmup_s"] = bench.Warmup.Seconds()
	r.recon(before, after, route, lat.MeanUs)
	return res, cpu, nil
}

func (r *run) getHot() error {
	if err := r.fixture(); err != nil {
		return err
	}
	in := r.fx.In
	hot := in.HotItems(bench.HotContexts)
	oracle, err := bench.BuildOracle(r.tool("recommend"), r.fx.Model, in.ContextsOf(hot), bench.TopN)
	if err != nil {
		return err
	}
	t := in.NewGetTraffic(host, bench.RNG(r.seed, 1), hot, r.dur)
	reqs, pick := t.Reqs, t.Pick
	r.m.Config["offered_rate"] = bench.GetRate
	r.m.Config["loop"] = "open, Poisson, 2 senders over 2 connections"
	r.m.Config["pool_contexts"] = bench.HotContexts
	r.m.Counts["pool_items"] = len(hot)

	srv, err := r.setup(starts, 200*time.Microsecond, func(string) ([]string, error) {
		return []string{"-model", r.fx.Model, "-quiet", "-drain", "1s"}, nil
	}, (*bench.Server).Healthy)
	if err != nil {
		return err
	}
	defer srv.Stop()
	cs, err := bench.DialN(srv.Addr, 2)
	if err != nil {
		return err
	}
	defer bench.CloseAll(cs)
	ph := bench.Phase{Conns: cs, Reqs: reqs, CtxOf: in.CtxOf}
	_, _, err = r.measure(srv, ph,
		func(p *bench.Phase) { p.Open, p.Dur = t.Warm, bench.Warmup },
		func(p *bench.Phase) { p.Open, p.Dur = t.Fixed, r.dur },
		"serve_route_suggest_us", oracle, true, nil)
	if err != nil {
		return err
	}
	// CPU per context is taken in closed loop: at 2500 requests/s more
	// than half of the server's CPU goes to waking the runtime for each
	// request, which varies with the host more than with the code.
	c, cpu, err := r.capacity(srv, ph, pick, oracle)
	if err != nil {
		return err
	}
	r.metric("cpu_us_per_ctx", "us", cpu)
	if err := r.ladder(ph, pick, c, getLimit); err != nil {
		return err
	}
	return r.finish(srv)
}

func (r *run) batchRing() error {
	if err := r.fixture(); err != nil {
		return err
	}
	in := r.fx.In
	rng := bench.RNG(r.seed, 2)
	reqs := in.BatchRequests(host, rng, batchReqs)
	var items []int32
	for _, q := range reqs {
		items = append(items, q.Items...)
	}
	oracle, err := bench.BuildOracle(r.tool("recommend"), r.fx.Model, in.ContextsOf(items), bench.TopN)
	if err != nil {
		return err
	}
	order := bench.ClosedOrders(2, len(reqs))
	all := make([]int32, len(reqs))
	for i := range all {
		all[i] = int32(i)
	}
	r.m.Config["loop"] = "closed, 2 callers over 2 connections"
	r.m.Config["batch_size"] = bench.BatchSize
	r.m.Config["router_cache"] = bench.BatchCache
	r.m.Config["topology"] = "serve -role router -shards 3 -replicas 2"
	r.m.Counts["batches_encoded"] = len(reqs)

	probe := []byte(`{"requests":[{"context":["a"]},{"context":["b"]},{"context":["c"]}]}`)
	srv, err := r.setup(starts, 200*time.Microsecond, func(string) ([]string, error) {
		return []string{"-role", "router", "-shards", "3", "-replicas", "2", "-model", r.fx.Model,
			"-cache", strconv.Itoa(bench.BatchCache), "-quiet", "-drain", "1s"}, nil
	}, func(s *bench.Server) (bool, error) {
		if ok, err := s.Healthy(); !ok {
			return false, err
		}
		code, _, err := s.Post("/suggest/batch", string(probe))
		return err == nil && code == 200, err
	})
	if err != nil {
		return err
	}
	defer srv.Stop()
	cs, err := bench.DialN(srv.Addr, 2)
	if err != nil {
		return err
	}
	defer bench.CloseAll(cs)
	ph := bench.Phase{Conns: cs, Reqs: reqs, CtxOf: in.CtxOf}
	closed := func(d time.Duration) func(*bench.Phase) {
		return func(p *bench.Phase) { p.Closed, p.Dur = order, d }
	}
	res, cpu, err := r.measure(srv, ph, closed(bench.Warmup), closed(r.dur), "router_request_us", oracle, true, nil)
	if err != nil {
		return err
	}
	r.metric("cpu_us_per_ctx", "us", cpu)
	c := r.closedRate(res, reqs, r.dur)
	if err := r.ladder(ph, bench.PickFrom(bench.RNG(r.seed, 3), all), c, batchLimit); err != nil {
		return err
	}
	return r.finish(srv)
}

// ingestStatus is the part of GET /v1/ingest the set-up check reads.
type ingestStatus struct {
	LogOffset  int64  `json:"log_offset"`
	Segments   uint64 `json:"segments"`
	Recompiles uint64 `json:"recompiles"`
	Pushes     uint64 `json:"pushes"`
	PushErrors uint64 `json:"push_errors"`
	Sessions   uint64 `json:"sessions"`
}

func (r *run) getIngest() error {
	if err := r.fixture(); err != nil {
		return err
	}
	in := r.fx.In
	hot := in.HotItems(bench.HotContexts)
	probes := bench.MakeProbes(r.seed, bench.IngestProbes)
	tracker := bench.NewProbeTracker(probes, in.AddProbes(probes))
	t := in.NewGetTraffic(host, bench.RNG(r.seed, 4), hot, r.dur)
	reqs, pick := t.Reqs, t.Pick
	seeded, err := os.Stat(r.fx.TrainLog)
	if err != nil {
		return err
	}
	r.m.Config["offered_rate"] = bench.GetRate
	r.m.Config["loop"] = "open, Poisson, 2 senders over 2 connections"
	r.m.Config["append_records_per_s"] = bench.IngestRate
	r.m.Config["ingest_recompile_sessions"] = bench.IngestRecompile
	r.m.Config["probe_every_s"] = bench.ProbeEvery.Seconds()

	var dir string
	var last ingestStatus
	var stableSince time.Time
	srv, err := r.setup(ingestStarts, 10*time.Millisecond, func(d string) ([]string, error) {
		dir, last, stableSince = d, ingestStatus{}, time.Time{}
		if err := bench.CopyFile(filepath.Join(d, "live.bin"), r.fx.Model); err != nil {
			return nil, err
		}
		if err := bench.CopyFile(filepath.Join(d, "live.log"), r.fx.TrainLog); err != nil {
			return nil, err
		}
		return []string{"-arms", "live=" + filepath.Join(d, "live.bin"),
			"-ingest-log", filepath.Join(d, "live.log"), "-ingest-wal", filepath.Join(d, "ingest.wal"),
			"-ingest-model", filepath.Join(d, "live.bin"), "-ingest-arm", "live",
			"-ingest-recompile", strconv.Itoa(bench.IngestRecompile), "-ingest-threshold", strconv.Itoa(bench.Threshold),
			"-ingest-poll", "20ms", "-quiet", "-drain", "1s"}, nil
	}, func(s *bench.Server) (bool, error) {
		// Ready: healthy, the seeded log consumed, every recompile pushed,
		// and nothing changing for 300 ms (no recompile still running).
		if ok, err := s.Healthy(); !ok {
			return false, err
		}
		var st ingestStatus
		if err := s.GetJSON("/v1/ingest", &st); err != nil {
			return false, err
		}
		if st != last {
			last, stableSince = st, time.Now()
			return false, nil
		}
		done := st.LogOffset == seeded.Size() && st.Pushes >= 1 && st.Pushes == st.Recompiles
		return done && time.Since(stableSince) >= 300*time.Millisecond, nil
	})
	if err != nil {
		return err
	}
	defer srv.Stop()
	r.m.Counts["setup_pushes"] = int(last.Pushes)

	// The served model after set-up is the loop's snapshot of the seeded
	// log; it stays until the first appended data is pushed.
	snap := r.path("oracle.bin")
	if err := bench.CopyFile(snap, filepath.Join(dir, "live.bin")); err != nil {
		return err
	}
	oracle, err := bench.BuildOracle(r.tool("recommend"), snap, in.ContextsOf(hot), bench.TopN)
	if err != nil {
		return err
	}
	cs, err := bench.DialN(srv.Addr, 2)
	if err != nil {
		return err
	}
	defer bench.CloseAll(cs)

	app := &bench.Appender{Path: filepath.Join(dir, "live.log"), Sessions: in.Sessions,
		Tracker: tracker, Seed: r.seed}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var appendErr error
	ph := bench.Phase{Conns: cs, Reqs: reqs, CtxOf: in.CtxOf}
	_, cpu, err := r.measure(srv, ph,
		func(p *bench.Phase) { p.Open, p.Dur = t.Warm, bench.Warmup },
		func(p *bench.Phase) {
			p.Open, p.Dur, p.Pick, p.Observe = t.Fixed, r.dur, tracker.Pick, tracker.Observe
			wg.Add(1)
			go func() {
				defer wg.Done()
				appendErr = app.Run(stop, r.dur)
			}()
		},
		"serve_route_suggest_us", oracle, false, func(s bench.Sample) bool { return tracker.IsProbe(s.Req) })
	if err == nil {
		// CPU per context is taken at the fixed rates, where the appended
		// records' recompiles are charged against a fixed read load.
		r.metric("cpu_us_per_ctx", "us", cpu)
		sp := ph
		sp.Pick, sp.Observe = tracker.Pick, tracker.Observe
		var c float64
		if c, _, err = r.capacity(srv, sp, pick, nil); err == nil {
			err = r.ladder(sp, pick, c, getLimit)
		}
	}
	close(stop)
	wg.Wait()
	if err != nil {
		return err
	}
	if appendErr != nil {
		return appendErr
	}
	var st ingestStatus
	if err := srv.GetJSON("/v1/ingest", &st); err != nil {
		return err
	}
	r.m.Counts["appended_records"] = app.Records
	r.m.Counts["run_pushes"] = int(st.Pushes - last.Pushes)
	r.m.Counts["push_errors"] = int(st.PushErrors)
	if st.PushErrors > 0 {
		r.invalid("%d ingest pushes failed", st.PushErrors)
	}
	secs, published, unseen := tracker.Freshness()
	r.m.Counts["probes_published"] = published
	r.m.Counts["probes_unseen"] = unseen
	if len(secs) < 2 || unseen > 0 {
		r.invalid("%d of %d probes served, %d never", len(secs), published, unseen)
	}
	if len(secs) == 0 {
		return fmt.Errorf("no probe served")
	}
	r.metric("freshness_s", "s", bench.Median(secs))
	r.m.SetSpread("freshness_s", secs)
	r.m.Config["freshness_path"] = "log append -> tail -> recompile -> push -> GET"
	return r.finish(srv)
}
