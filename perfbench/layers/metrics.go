package main

import (
	"bytes"
	"io"
	"os"
	"sort"

	"perfbench/bench"
)

// metricOrder lists the per-layer metrics in print order. Each is printed
// on every workload; a layer the workload does not exercise reads 0.
var metricOrder = []string{
	"loadgen.lag_p99_ms", "loadgen.sent",
	"net.self_us_mean",
	"serve.self_us_mean", "serve.handler_us_p99",
	"cache.hit_ratio", "cache.misses",
	"core.suggest_calls", "core.suggest_us_mean", "core.suggest_us_p99",
	"core.batch_calls", "core.batch_ctx_mean", "core.batch_us_per_ctx",
	"core.load_ms", "core.server_share",
	"fleet.exchange_calls", "fleet.exchange_ctx_mean", "fleet.exchange_us_p50", "fleet.exchange_us_p99", "fleet.exchange_fail",
	"fleet.router_self_us_mean", "fleet.swap_ms", "fleet.server_share",
	"stream.step_us_p50", "stream.recompile_ms_mean", "stream.records_per_s", "stream.pushes",
	"recon.server_us_mean", "recon.unexplained_us_mean",
}

// tail returns the p-quantile of xs, or their maximum when too few samples
// lie beyond it; 0 for no samples.
func tail(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	v, _ := bench.PercentileOrMax(s, p)
	return v
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// metrics computes every per-layer metric from the fixed phase's spans
// and samples.
func (h *harness) metrics(all []span) {
	set := func(name, unit string, v float64) { h.out.Metrics[name] = bench.Metric{Value: v, Unit: unit} }
	us := func(ns int64) float64 { return float64(ns) / 1e3 }

	// Spans of the fixed phase, by name.
	var spans []span
	for _, s := range all {
		if s.Start >= h.from && s.Start < h.to {
			spans = append(spans, s)
		}
	}
	by := map[string][]float64{} // durations in µs
	ctxs := map[string]float64{}
	var outer []span
	for _, s := range spans {
		by[s.Name] = append(by[s.Name], us(s.dur()))
		ctxs[s.Name] += float64(s.N)
		if s.Name == spanRouter || (s.Name == spanServe && s.Req != 0) {
			outer = append(outer, s)
		}
	}

	// Load generator and network.
	var lags, rtts []float64
	requested := 0.0
	for _, ss := range h.res.Samples {
		for _, s := range ss {
			lags = append(lags, float64(s.Lag)/1e6)
			if s.OK {
				rtts = append(rtts, us(int64(s.Done-s.Send)))
				requested += float64(len(h.reqs[s.Req].Items))
			}
		}
	}
	sent, _ := h.res.Counts()
	lag := tail(lags, 0.99)
	set("loadgen.lag_p99_ms", "ms", lag)
	if lag > bench.LagBoundMs {
		h.invalid("generator lag p99 %.3f ms exceeds %.1f ms", lag, bench.LagBoundMs)
	}
	set("loadgen.sent", "count", float64(sent))
	var outerUs []float64
	for _, s := range outer {
		outerUs = append(outerUs, us(s.dur()))
	}
	client := bench.Mean(rtts)
	set("net.self_us_mean", "us", client-bench.Mean(outerUs))

	// Serving handler: its time minus the recommender calls inside it.
	// Every recommender call happens inside a serve span, so the sums
	// subtract exactly.
	coreUs := sum(by[spanSuggest]) + sum(by[spanBatch])
	if n := len(by[spanServe]); n > 0 {
		set("serve.self_us_mean", "us", (sum(by[spanServe])-coreUs)/float64(n))
	} else {
		set("serve.self_us_mean", "us", 0)
	}
	set("serve.handler_us_p99", "us", tail(by[spanServe], 0.99))

	// Result cache, counted from outside: contexts the recommender had to
	// compute over contexts the serve handlers were asked for.
	misses := float64(len(by[spanSuggest])) + ctxs[spanBatch]
	asked := requested
	if len(by[spanExchange]) > 0 {
		asked = ctxs[spanExchange] // batch-ring: the shards' caches see the fanned-out contexts
	}
	hit := 0.0
	if asked > 0 {
		hit = 1 - misses/asked
	}
	set("cache.hit_ratio", "ratio", hit)
	set("cache.misses", "count", misses)

	// Trie descent behind the core.Recommender seam.
	set("core.suggest_calls", "count", float64(len(by[spanSuggest])))
	set("core.suggest_us_mean", "us", bench.Mean(by[spanSuggest]))
	set("core.suggest_us_p99", "us", tail(by[spanSuggest], 0.99))
	set("core.batch_calls", "count", float64(len(by[spanBatch])))
	batchCtxMean, perCtx := 0.0, 0.0
	if n := len(by[spanBatch]); n > 0 {
		batchCtxMean = ctxs[spanBatch] / float64(n)
		perCtx = sum(by[spanBatch]) / max(ctxs[spanBatch], 1)
	}
	set("core.batch_ctx_mean", "count", batchCtxMean)
	set("core.batch_us_per_ctx", "us", perCtx)
	set("core.load_ms", "ms", h.loadMs)
	server := sum(outerUs)
	share := func(x float64) float64 {
		if server == 0 {
			return 0
		}
		return x / server
	}
	set("core.server_share", "ratio", share(coreUs))

	// Fleet: shard exchanges, the router's own time, slot swaps.
	ex := by[spanExchange]
	fails := 0.0
	for _, s := range spans {
		if s.Name == spanExchange && s.Fail {
			fails++
		}
	}
	set("fleet.exchange_calls", "count", float64(len(ex)))
	exCtx := 0.0
	if len(ex) > 0 {
		exCtx = ctxs[spanExchange] / float64(len(ex))
	}
	set("fleet.exchange_ctx_mean", "count", exCtx)
	set("fleet.exchange_us_p50", "us", tail(ex, 0.50))
	set("fleet.exchange_us_p99", "us", tail(ex, 0.99))
	set("fleet.exchange_fail", "count", fails)
	children := map[int32][]bench.Interval{}
	index := map[int64]int32{} // router span start -> position in all
	for i, s := range all {
		if s.Name == spanExchange && s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], interval(s))
		}
		if s.Name == spanRouter {
			index[s.Start] = int32(i)
		}
	}
	var routerSelf []float64
	for _, s := range outer {
		if s.Name == spanRouter {
			routerSelf = append(routerSelf, us(bench.SelfTime(interval(s), children[index[s.Start]])))
		}
	}
	set("fleet.router_self_us_mean", "us", bench.Mean(routerSelf))
	set("fleet.swap_ms", "ms", bench.Mean(by[spanSwap])/1e3)
	set("fleet.server_share", "ratio", share(sum(ex)))

	// Streaming ingestion: productive steps, and for the steps that pushed,
	// the recompile (the step minus the push inside it).
	var recompile []float64
	pushes := 0.0
	for _, s := range spans {
		if s.Name != spanStep || !s.Pushed {
			continue
		}
		pushes++
		inner := int64(0)
		for _, w := range spans {
			if w.Name == spanSwap && w.Start >= s.Start && w.End <= s.End {
				inner += w.dur()
			}
		}
		recompile = append(recompile, float64(s.dur()-inner)/1e6)
	}
	steps := by[spanStep]
	set("stream.step_us_p50", "us", tail(steps, 0.50))
	set("stream.recompile_ms_mean", "ms", bench.Mean(recompile))
	set("stream.records_per_s", "1/s", float64(h.records)/(float64(h.to-h.from)/1e9))
	set("stream.pushes", "count", pushes)

	// Reconciliation with the server's own histograms.
	route, n := bench.RouteMean(h.before, h.after, h.route)
	set("recon.server_us_mean", "us", route)
	set("recon.unexplained_us_mean", "us", client-route)
	h.m.Counts["route_requests"] = int(n)
}

// countLines counts the records between two byte offsets of a log.
func countLines(path string, from, to int64) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	b, err := io.ReadAll(io.NewSectionReader(f, from, to-from))
	if err != nil {
		return 0, err
	}
	return bytes.Count(b, []byte("\n")), nil
}
