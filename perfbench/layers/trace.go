package main

import (
	"bufio"
	"context"
	"fmt"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"perfbench/bench"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/query"
)

// Span names, one per layer boundary the harness decorates.
const (
	spanServe    = "serve"          // serve.Handler.ServeHTTP
	spanRouter   = "fleet.router"   // fleet.ShardRouter.ServeHTTP (batch-ring's outer handler)
	spanExchange = "fleet.exchange" // fleet.Transport.Exchange
	spanSuggest  = "core.suggest"   // core.Recommender.AppendSuggestions
	spanBatch    = "core.batch"     // core.Recommender.RecommendBatchIDs
	spanSwap     = "fleet.swap"     // the slot reload inside stream.Config.Push
	spanStep     = "stream.step"    // stream.Ingester.Step
)

// span is one timed call at a layer boundary. Times are nanoseconds since
// the recorder's origin. Parent is the index of the enclosing span, or -1;
// Req is the HTTP request the span served, or 0.
type span struct {
	Name       string
	Start, End int64
	Parent     int32
	Req        uint64
	N          int  // contexts carried (batch and exchange spans)
	Fail       bool // the call failed
	Pushed     bool // a Step that recompiled and pushed
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory until the run ends.
type recorder struct {
	origin time.Time
	nextID atomic.Uint64
	mu     sync.Mutex
	spans  []span
}

func newRecorder() *recorder {
	return &recorder{origin: time.Now(), spans: make([]span, 0, 1<<18)}
}

func (r *recorder) now() int64 { return int64(time.Since(r.origin)) }

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// snapshot returns the spans recorded so far, sorted by start, with
// parents linked.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	out := append([]span(nil), r.spans...)
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	link(out)
	return out
}

// link sets each span's parent. An exchange span knows its request from the
// context the router passed it and links to that request's router span.
// Spans below the transport and the recommender carry no request context
// (the loopback transport builds a fresh request, the Recommender seam takes
// none), so a serve or core span links to the latest-starting span of its
// parent layer that contains it in time, and inherits its request.
func link(spans []span) {
	byReq := map[uint64]int32{}
	for i := range spans {
		spans[i].Parent = -1
		if spans[i].Name == spanRouter || (spans[i].Name == spanServe && spans[i].Req != 0) {
			byReq[spans[i].Req] = int32(i)
		}
	}
	parentKind := map[string]string{
		spanServe:   spanExchange,
		spanSuggest: spanServe,
		spanBatch:   spanServe,
	}
	for i := range spans {
		s := &spans[i]
		if s.Name == spanExchange {
			if p, ok := byReq[s.Req]; ok {
				s.Parent = p
			}
			continue
		}
		kind, ok := parentKind[s.Name]
		if !ok || (s.Name == spanServe && s.Req != 0) {
			continue
		}
		for j := i - 1; j >= 0 && j >= i-4096; j-- {
			p := &spans[j]
			if p.Name == kind && p.Start <= s.Start && p.End >= s.End {
				s.Parent, s.Req = int32(j), p.Req
				break
			}
		}
	}
}

// write saves the spans as tab-separated lines.
func write(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tname\tstart_ns\tend_ns\tparent\treq\tn\tfail")
	for i, s := range spans {
		fmt.Fprintf(w, "%d\t%s\t%d\t%d\t%d\t%d\t%d\t%v\n", i, s.Name, s.Start, s.End, s.Parent, s.Req, s.N, s.Fail)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

type reqKey struct{}

// tracedHandler times an http.Handler. The outermost one gives each request
// its identifier and hands it down in the request context.
type tracedHandler struct {
	name  string
	next  http.Handler
	rec   *recorder
	outer bool
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	var id uint64
	if h.outer {
		id = h.rec.nextID.Add(1)
		r = r.WithContext(context.WithValue(r.Context(), reqKey{}, id))
	}
	start := h.rec.now()
	h.next.ServeHTTP(w, r)
	h.rec.add(span{Name: h.name, Start: start, End: h.rec.now(), Req: id})
}

// tracedRec times the two serving calls of a core.Recommender.
type tracedRec struct {
	core.Recommender
	rec *recorder
}

func (t tracedRec) AppendSuggestions(dst []core.Suggestion, ctx query.Seq, n int) []core.Suggestion {
	start := t.rec.now()
	out := t.Recommender.AppendSuggestions(dst, ctx, n)
	t.rec.add(span{Name: spanSuggest, Start: start, End: t.rec.now(), N: 1})
	return out
}

func (t tracedRec) RecommendBatchIDs(ctxs []query.Seq, ns []int) [][]core.Suggestion {
	start := t.rec.now()
	out := t.Recommender.RecommendBatchIDs(ctxs, ns)
	t.rec.add(span{Name: spanBatch, Start: start, End: t.rec.now(), N: len(ctxs)})
	return out
}

// tracedTransport times fleet.Transport.Exchange.
type tracedTransport struct {
	fleet.Transport
	rec *recorder
}

func (t tracedTransport) Exchange(ctx context.Context, shard int, method, path string, body, respBuf []byte) (int, []byte, error) {
	start := t.rec.now()
	status, resp, err := t.Transport.Exchange(ctx, shard, method, path, body, respBuf)
	id, _ := ctx.Value(reqKey{}).(uint64)
	t.rec.add(span{Name: spanExchange, Start: start, End: t.rec.now(), Req: id,
		N: countContexts(body), Fail: err != nil || status != http.StatusOK})
	return status, resp, err
}

// countContexts counts the contexts in a batch body (1 for a GET).
func countContexts(body []byte) int {
	if len(body) == 0 {
		return 1
	}
	n := 0
	for i := 0; i+10 <= len(body); i++ {
		if string(body[i:i+10]) == `"context":` {
			n++
		}
	}
	return n
}

// interval converts a span to the arithmetic package's interval.
func interval(s span) bench.Interval { return bench.Interval{Start: s.Start, End: s.End} }
