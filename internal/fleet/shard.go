package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/jsonspan"
	"repro/internal/obs"
)

// Transport carries a routed request to a shard replica. Implementations
// must be safe for concurrent use.
type Transport interface {
	// Exchange sends method + path (query string included) to the given
	// shard under ctx — the deadline/cancellation carrier of the failover
	// and hedging machinery. body may be nil (GETs). The response body is
	// appended to respBuf (which may be a recycled pooled buffer, possibly
	// nil) and returned; the caller owns it and the transport must not
	// retain or reuse it after returning.
	Exchange(ctx context.Context, shard int, method, path string, body, respBuf []byte) (status int, resp []byte, err error)
	// Shards returns the number of replicas the transport can reach.
	Shards() int
}

// LoopbackTransport routes to in-process shard handlers — N serving handlers
// (typically sharing one loaded model) behind one router in a single
// process. It is the zero-infrastructure deployment of the ring: the routing
// behaviour, stickiness and cache partitioning are identical to the HTTP
// transport, so a single process can validate a sharding plan before it is
// distributed.
type LoopbackTransport struct {
	handlers []http.Handler
	scratch  sync.Pool // *loopbackScratch
}

// NewLoopbackTransport builds a loopback transport over in-process handlers,
// one per shard.
func NewLoopbackTransport(handlers ...http.Handler) *LoopbackTransport {
	return &LoopbackTransport{handlers: handlers}
}

// Shards implements Transport.
func (t *LoopbackTransport) Shards() int { return len(t.handlers) }

// loopbackScratch is one pooled synthetic request/response pair: the
// http.Request, its URL, the body reader and the response recorder are all
// built once and reset per exchange, so the steady-state loopback fan-out
// allocates nothing per sub-request.
type loopbackScratch struct {
	req  http.Request
	url  url.URL
	rd   bytes.Reader
	resp bufferedResponse
}

// nopCloseReader adapts the scratch body reader to http.Request.Body.
type nopCloseReader struct{ *bytes.Reader }

func (nopCloseReader) Close() error { return nil }

// Exchange implements Transport by synthesising an in-process request from a
// pooled scratch. Loopback calls run the handler synchronously in the
// calling goroutine; ctx deadlines are not enforced mid-handler (in-process
// handlers are trusted not to hang), but a ctx already cancelled on entry
// short-circuits so expired hedge losers never run.
func (t *LoopbackTransport) Exchange(ctx context.Context, shard int, method, path string, body, respBuf []byte) (int, []byte, error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return 0, respBuf, err
		}
	}
	s, _ := t.scratch.Get().(*loopbackScratch)
	if s == nil {
		s = &loopbackScratch{}
		s.req.Proto = "HTTP/1.1"
		s.req.ProtoMajor, s.req.ProtoMinor = 1, 1
		s.req.Header = http.Header{"Content-Type": {"application/json"}}
		s.req.URL = &s.url
		s.req.Body = nopCloseReader{&s.rd}
		s.resp.header = make(http.Header, 4)
	}
	s.req.Method = method
	s.url.Path = path
	s.url.RawQuery = ""
	if i := strings.IndexByte(path, '?'); i >= 0 {
		s.url.Path, s.url.RawQuery = path[:i], path[i+1:]
	}
	s.rd.Reset(body)
	s.req.ContentLength = int64(len(body))
	s.resp.code = 0
	s.resp.body = respBuf
	clear(s.resp.header)
	// Propagate the router's trace ID so the shard's own trace adopts it and
	// a request can be followed across layers. The scratch header is pooled:
	// the value must be removed again before the scratch is recycled, or a
	// later un-traced exchange would replay a stale ID.
	if hv := obs.TraceHeaderFromContext(ctx); hv != nil {
		s.req.Header["X-Trace-Id"] = hv
	}
	t.handlers[shard].ServeHTTP(&s.resp, &s.req)
	delete(s.req.Header, "X-Trace-Id")
	status, out := s.resp.status(), s.resp.body
	s.resp.body = nil // caller owns the buffer now
	t.scratch.Put(s)
	return status, out, nil
}

// bufferedResponse is a minimal in-memory http.ResponseWriter for loopback
// exchanges; the body accumulates in a caller-owned byte slice.
type bufferedResponse struct {
	code   int
	header http.Header
	body   []byte
}

func (r *bufferedResponse) Header() http.Header { return r.header }

func (r *bufferedResponse) WriteHeader(code int) {
	if r.code == 0 {
		r.code = code
	}
}

func (r *bufferedResponse) Write(p []byte) (int, error) {
	if r.code == 0 {
		r.code = http.StatusOK
	}
	r.body = append(r.body, p...)
	return len(p), nil
}

func (r *bufferedResponse) status() int {
	if r.code == 0 {
		return http.StatusOK
	}
	return r.code
}

// HTTPTransport routes to shard replicas over HTTP — the distributed
// deployment, where each shard is a `cmd/serve -role shard` process.
type HTTPTransport struct {
	bases  []*url.URL
	client *http.Client
}

// DefaultTransportTimeout bounds a whole shard exchange (dial, request,
// response read) when NewHTTPTransport builds its own client. Per-attempt
// deadlines from RouterOptions.ShardTimeout cut it shorter via ctx.
const DefaultTransportTimeout = 5 * time.Second

// defaultHTTPClient is the client NewHTTPTransport uses when the caller
// passes nil: bounded dial and response-header timeouts and a sized idle
// connection pool, so a black-holed shard ties up a connection attempt for
// seconds, not forever, and the fan-out reuses connections instead of
// re-dialing per sub-batch.
func defaultHTTPClient() *http.Client {
	return &http.Client{
		Timeout: DefaultTransportTimeout,
		Transport: &http.Transport{
			DialContext: (&net.Dialer{
				Timeout:   2 * time.Second,
				KeepAlive: 30 * time.Second,
			}).DialContext,
			ResponseHeaderTimeout: DefaultTransportTimeout,
			MaxIdleConns:          256,
			MaxIdleConnsPerHost:   64,
			IdleConnTimeout:       90 * time.Second,
		},
	}
}

// NewHTTPTransport builds an HTTP transport over shard base URLs (e.g.
// "http://shard-0:8080"). client nil selects a default client with sane
// dial/response timeouts and a sized connection pool (see
// DefaultTransportTimeout); production routers may still pass their own.
func NewHTTPTransport(bases []string, client *http.Client) (*HTTPTransport, error) {
	if len(bases) == 0 {
		return nil, fmt.Errorf("fleet: no shard URLs")
	}
	if client == nil {
		client = defaultHTTPClient()
	}
	t := &HTTPTransport{client: client}
	for _, b := range bases {
		u, err := url.Parse(strings.TrimSuffix(b, "/"))
		if err != nil {
			return nil, fmt.Errorf("fleet: shard URL %q: %w", b, err)
		}
		if u.Scheme == "" || u.Host == "" {
			return nil, fmt.Errorf("fleet: shard URL %q needs a scheme and host", b)
		}
		t.bases = append(t.bases, u)
	}
	return t, nil
}

// Shards implements Transport.
func (t *HTTPTransport) Shards() int { return len(t.bases) }

// Exchange implements Transport with one HTTP request to the shard under
// ctx, reading the response into the caller's recycled buffer.
func (t *HTTPTransport) Exchange(ctx context.Context, shard int, method, path string, body, respBuf []byte) (int, []byte, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, t.bases[shard].String()+path, rd)
	if err != nil {
		return 0, respBuf, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if hv := obs.TraceHeaderFromContext(ctx); hv != nil {
		req.Header["X-Trace-Id"] = hv
	}
	resp, err := t.client.Do(req)
	if err != nil {
		return 0, respBuf, err
	}
	defer resp.Body.Close()
	raw, err := appendReadAll(respBuf, resp.Body)
	if err != nil {
		return 0, raw, err
	}
	return resp.StatusCode, raw, nil
}

// appendReadAll reads rd to EOF, appending to buf — io.ReadAll with a
// recycled destination.
func appendReadAll(buf []byte, rd io.Reader) ([]byte, error) {
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := rd.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// MaxReplicas caps RouterOptions.Replicas: preference lists and per-item
// attempt masks are fixed-width 8 entries, far beyond any useful replication
// factor for this workload.
const MaxReplicas = 8

// RouterOptions is the ShardRouter's failure policy: how many replicas each
// key range maps to and how the router walks them when attempts fail.
type RouterOptions struct {
	// Replicas is R, the preference-list length per key range: each context
	// maps to an ordered list of R distinct shards (Ring.LookupN) and the
	// router walks it on failure. <= 1 disables replication (the pre-R
	// behaviour); capped at min(MaxReplicas, ring size).
	Replicas int
	// ShardTimeout is the per-attempt deadline. 0 leaves attempts bounded
	// only by the transport's own client timeout.
	ShardTimeout time.Duration
	// HedgeAfter controls hedged GET requests: after this delay without an
	// answer from the primary, the next replica is fired too and the first
	// success wins (the loser is cancelled). 0 disables hedging; negative
	// derives the delay from the live attempt-latency p99 (clamped to
	// [200µs, 50ms]).
	HedgeAfter time.Duration
	// RetryBackoff is the base jittered sleep before a failover retry
	// (doubling per attempt, ±50% jitter). 0 selects 2ms; negative disables
	// the sleep.
	RetryBackoff time.Duration
	// FailThreshold is the consecutive-failure count that ejects a shard
	// from the preference walk (0 selects DefaultFailThreshold).
	FailThreshold int
	// ProbeAfter is the ejection cool-down before a half-open probe
	// (0 selects DefaultProbeAfter).
	ProbeAfter time.Duration
	// Obs, when non-nil, is the metrics registry the router records into;
	// nil gives the router a private registry. Sharing one registry with
	// in-process shard handlers (loopback deployments) merges both layers
	// into a single Prometheus exposition.
	Obs *obs.Registry
	// Tracer, when non-nil, is the request tracer the router samples into;
	// nil gives the router a private 256-trace tracer fed by its own
	// request-latency histogram.
	Tracer *obs.Tracer
}

func (o RouterOptions) withDefaults(shards int) RouterOptions {
	if o.Replicas < 1 {
		o.Replicas = 1
	}
	if o.Replicas > MaxReplicas {
		o.Replicas = MaxReplicas
	}
	if o.Replicas > shards {
		o.Replicas = shards
	}
	if o.RetryBackoff == 0 {
		o.RetryBackoff = 2 * time.Millisecond
	}
	return o
}

// ShardRouter fans suggestion traffic out to N replicas of the same model by
// consistent hash of the request context: GET /suggest forwards whole to one
// shard, POST /suggest/batch splits the batch by shard, forwards the
// sub-batches concurrently and reassembles the results in request order.
// Every replica serves the identical model, so routing choices never change
// answers — they partition the context keyspace so each replica's result
// cache and faulted-in trie pages cover only its arc.
//
// With RouterOptions.Replicas R > 1 each key range maps to an ordered
// preference list of R distinct shards and the router walks it on failure:
// per-attempt deadline, bounded retry with jittered backoff on the next
// replica, optional hedged GETs. Shard health is tracked from live traffic
// (consecutive-failure ejection, half-open probe recovery — see health.go)
// and unhealthy shards are skipped in the walk, so the ring self-heals with
// no config change and one shard down costs zero availability at R >= 2.
type ShardRouter struct {
	ring *Ring
	tr   Transport
	opts RouterOptions
	hcfg healthConfig

	health []shardHealth
	admin  *AdminState

	peerMu     sync.Mutex
	peers      []string
	peerClient *http.Client

	// shardHeader[i] is the pre-built X-Serve-Shard value for shard i;
	// attemptHeader[k] the X-Serve-Attempts value for k+1 attempts.
	shardHeader   [][]string
	attemptHeader [MaxReplicas][]string

	scratch sync.Pool // *batchScratch
	calls   sync.Pool // *shardCall
	bufs    sync.Pool // *[]byte, GET-path response buffers

	requests  atomic.Uint64
	batches   atomic.Uint64
	fanouts   atomic.Uint64 // shard sub-requests issued by batch fan-out
	retries   atomic.Uint64 // failed attempts that moved work to another replica
	failovers atomic.Uint64 // requests/items answered by a non-primary replica
	hedges    atomic.Uint64 // hedge attempts fired
	hedgesWon atomic.Uint64 // hedge attempts whose answer was served
	perShard  []atomic.Uint64

	reg        *obs.Registry
	tracer     *obs.Tracer
	attemptLat *obs.Histogram // successful attempt latencies, feeds auto hedge delay
	hedgeWait  *obs.Histogram // delays waited before firing a hedge
	reqLat     *obs.Histogram // end-to-end routed request latencies
	// hedgeCache is the cached auto hedge delay in nanoseconds, refreshed
	// from attemptLat's p99 every hedgeRefreshEvery hedgeTick increments so
	// the GET hot path never scans histogram buckets.
	hedgeCache atomic.Int64
	hedgeTick  atomic.Uint64

	maxBatch    int
	maxBodySize int64
}

// NewShardRouter builds the router over a ring and a transport of matching
// size with the default (replication-off) failure policy.
func NewShardRouter(ring *Ring, tr Transport) (*ShardRouter, error) {
	return NewShardRouterOpts(ring, tr, RouterOptions{})
}

// NewShardRouterOpts builds the router with an explicit failure policy.
func NewShardRouterOpts(ring *Ring, tr Transport, opts RouterOptions) (*ShardRouter, error) {
	if ring.Shards() != tr.Shards() {
		return nil, fmt.Errorf("fleet: ring has %d shards but transport %d", ring.Shards(), tr.Shards())
	}
	s := &ShardRouter{
		ring:        ring,
		tr:          tr,
		opts:        opts.withDefaults(ring.Shards()),
		hcfg:        healthConfig{failThreshold: int32(opts.FailThreshold), probeAfter: opts.ProbeAfter}.withDefaults(),
		health:      make([]shardHealth, ring.Shards()),
		admin:       NewAdminState(),
		shardHeader: make([][]string, ring.Shards()),
		perShard:    make([]atomic.Uint64, ring.Shards()),
		// Matches the shard handlers' default MaxBatch: the router must never
		// advertise a batch size a sub-batch could exceed (in the worst case
		// every item hashes to one shard), or valid requests turn into 502s.
		maxBatch:    256,
		maxBodySize: 1 << 22,
	}
	for i := range s.shardHeader {
		s.shardHeader[i] = []string{strconv.Itoa(i)}
	}
	for k := range s.attemptHeader {
		s.attemptHeader[k] = []string{strconv.Itoa(k + 1)}
	}
	s.reg = opts.Obs
	if s.reg == nil {
		s.reg = obs.NewRegistry()
	}
	s.attemptLat = s.reg.Histogram("router_attempt_us")
	s.hedgeWait = s.reg.Histogram("router_hedge_wait_us")
	s.reqLat = s.reg.Histogram("router_request_us")
	s.tracer = opts.Tracer
	if s.tracer == nil {
		s.tracer = obs.NewTracer(256, s.reqLat)
	}
	s.reg.CounterFunc("router_requests_total", s.requests.Load)
	s.reg.CounterFunc("router_batch_requests_total", s.batches.Load)
	s.reg.CounterFunc("router_batch_fanouts_total", s.fanouts.Load)
	s.reg.CounterFunc("router_retries_total", s.retries.Load)
	s.reg.CounterFunc("router_failovers_total", s.failovers.Load)
	s.reg.CounterFunc("router_hedges_total", s.hedges.Load)
	s.reg.CounterFunc("router_hedges_won_total", s.hedgesWon.Load)
	return s, nil
}

// Obs returns the router's metrics registry (rendered by
// /v1/metrics?format=prometheus).
func (s *ShardRouter) Obs() *obs.Registry { return s.reg }

// Tracer returns the router's request tracer (rendered by /v1/traces).
func (s *ShardRouter) Tracer() *obs.Tracer { return s.tracer }

// Ring returns the router's consistent-hash ring.
func (s *ShardRouter) Ring() *Ring { return s.ring }

// Replicas returns the effective replication factor R (after capping to the
// ring size).
func (s *ShardRouter) Replicas() int { return s.opts.Replicas }

// Admin returns the router's reconciled fleet admin state (see
// antientropy.go).
func (s *ShardRouter) Admin() *AdminState { return s.admin }

// ServeHTTP implements http.Handler: suggestion traffic is routed by context
// hash; /healthz, /metrics, /route and /fleet answer from the router itself.
// Admin endpoints live under /v1/ with the legacy unversioned paths
// redirecting, mirroring the serving layer's surface.
func (s *ShardRouter) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/suggest":
		s.suggest(w, r)
	case "/suggest/batch", "/v1/suggest/batch":
		s.batch(w, r)
	case "/healthz":
		s.healthz(w)
	case "/v1/metrics":
		if wantsPrometheusFormat(r) {
			s.prometheus(w)
			return
		}
		s.metrics(w)
	case "/v1/traces":
		s.traces(w, r)
	case "/v1/route":
		s.route(w, r)
	case "/v1/reload":
		s.reload(w, r)
	case "/v1/fleet":
		s.fleetState(w, r)
	case "/metrics":
		// Prometheus scrapers conventionally hit bare /metrics and do not
		// follow redirects: serve the exposition directly in that case.
		if wantsPrometheusFormat(r) {
			s.prometheus(w)
			return
		}
		redirectV1(w, r)
	case "/route", "/fleet":
		redirectV1(w, r)
	case "/reload":
		// POST cannot follow a 301 without changing semantics: alias it.
		s.reload(w, r)
	default:
		writeErrorJSON(w, http.StatusNotFound, "not_found", "no such endpoint")
	}
}

// ShardReloadResult is one shard's slice of the router's /reload broadcast.
type ShardReloadResult struct {
	Shard    int             `json:"shard"`
	Status   int             `json:"status"`
	Response json.RawMessage `json:"response,omitempty"`
	Error    string          `json:"error,omitempty"`
}

// ShardReloadResponse is the router's POST /reload payload: the broadcast's
// per-shard outcomes.
type ShardReloadResponse struct {
	Shards []ShardReloadResult `json:"shards"`
}

// reload broadcasts POST /reload (query string included, so model= and
// force= pass through) to every shard and reports each outcome. The overall
// status is 200 only when every shard answered 200; otherwise the worst
// shard status (502 for transport failures) so automation notices partial
// rollouts. A successful broadcast refreshes the router's reconciled admin
// state, so the new generations are visible on /v1/fleet (and, via
// anti-entropy, on every peer router) immediately.
func (s *ShardRouter) reload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErrorJSON(w, http.StatusMethodNotAllowed, "method_not_allowed", "use POST")
		return
	}
	path := "/reload"
	if r.URL.RawQuery != "" {
		path += "?" + r.URL.RawQuery
	}
	resp := ShardReloadResponse{Shards: make([]ShardReloadResult, s.ring.Shards())}
	overall := http.StatusOK
	for shard := range resp.Shards {
		res := ShardReloadResult{Shard: shard}
		status, body, err := s.tr.Exchange(r.Context(), shard, http.MethodPost, path, nil, nil)
		if err != nil {
			res.Status = http.StatusBadGateway
			res.Error = err.Error()
		} else {
			res.Status = status
			if json.Valid(body) {
				res.Response = json.RawMessage(bytes.Clone(body))
			} else {
				res.Error = string(bytes.TrimSpace(body))
			}
		}
		if res.Status > overall {
			overall = res.Status
		}
		resp.Shards[shard] = res
	}
	s.RefreshAdmin(r.Context())
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(overall)
	_ = json.NewEncoder(w).Encode(resp)
}

// getBuf leases a pooled GET-path response buffer.
func (s *ShardRouter) getBuf() []byte {
	if p, _ := s.bufs.Get().(*[]byte); p != nil {
		return (*p)[:0]
	}
	return make([]byte, 0, 1024)
}

// putBuf returns a GET-path response buffer to the pool.
func (s *ShardRouter) putBuf(b []byte) {
	if cap(b) == 0 {
		return
	}
	b = b[:0]
	s.bufs.Put(&b)
}

// attemptContext derives the per-attempt context: a ShardTimeout deadline
// when configured, always cancellable so hedge losers stop early.
func (s *ShardRouter) attemptContext(parent context.Context) (context.Context, context.CancelFunc) {
	if s.opts.ShardTimeout > 0 {
		return context.WithTimeout(parent, s.opts.ShardTimeout)
	}
	return context.WithCancel(parent)
}

// backoffSleep sleeps the jittered failover backoff before retry attempt
// k >= 1: base doubling per attempt with ±50% jitter, so replicas of a
// struggling ring do not retry in lockstep.
func (s *ShardRouter) backoffSleep(k int) {
	base := s.opts.RetryBackoff
	if base <= 0 {
		return
	}
	d := base << (k - 1)
	d = d/2 + time.Duration(rand.Int63n(int64(d))) // [d/2, 3d/2)
	time.Sleep(d)
}

// hedgeRefreshEvery is how many auto-mode hedgeDelay resolutions share one
// cached p99 scan of the attempt-latency histogram.
const hedgeRefreshEvery = 64

// hedgeDelay resolves the live hedging delay: the configured fixed value, or
// the attempt-latency p99 clamped to [200µs, 50ms] in auto mode (negative
// HedgeAfter). The auto value is cached and refreshed every
// hedgeRefreshEvery resolutions, so the hot path reads one atomic instead
// of scanning histogram buckets per request. 0 means hedging is off.
func (s *ShardRouter) hedgeDelay() time.Duration {
	ha := s.opts.HedgeAfter
	if ha >= 0 {
		return ha
	}
	if cached := s.hedgeCache.Load(); cached != 0 && s.hedgeTick.Add(1)%hedgeRefreshEvery != 0 {
		return time.Duration(cached)
	}
	d := time.Duration(s.attemptLat.Quantile(0.99)) * time.Microsecond
	const lo, hi = 200 * time.Microsecond, 50 * time.Millisecond
	if d < lo {
		d = lo
	}
	if d > hi {
		d = hi
	}
	s.hedgeCache.Store(int64(d))
	return d
}

// retryable reports whether an attempt outcome should fail over to the next
// replica: transport errors and shard-side 5xx. Sub-5xx statuses are the
// shard's deterministic answer (including 4xx) — retrying cannot change
// them, and they must not poison the shard's health.
func retryable(status int, err error) bool {
	return err != nil || status >= http.StatusInternalServerError
}

// getAttempt is one in-flight GET attempt's result.
type getAttempt struct {
	pref   int // index into the preference list
	li     int // launch index: keys the attempt's cancel func and trace span
	shard  int
	status int
	body   []byte
	err    error
	hedge  bool
}

// suggest forwards the GET to the owning shard, walking the preference list
// on failure. The shard key is the FNV-1a hash of the percent-decoded q
// values (decoded streaming, no buffer), so it agrees with the batch path's
// hash of the same context strings. Responses carry X-Serve-Shard (the
// replica that answered), X-Serve-Attempts, X-Serve-Hedge (won when a
// hedged attempt's answer was served) and X-Trace-Id.
//
// Every attempt is a child span on the request trace: opened in launch (on
// the request goroutine — Trace is single-goroutine by contract), closed
// when its result is consumed, and closed as "cancelled" at finish for
// attempts whose results were abandoned to the drain goroutine. Breaker
// skips and hedge firings appear as point events, so a retained trace
// reconstructs the whole failover story: which replicas were tried, in what
// order, and why.
func (s *ShardRouter) suggest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErrorJSON(w, http.StatusMethodNotAllowed, "method_not_allowed", "use GET")
		return
	}
	s.requests.Add(1)
	tr := s.tracer.Start()
	if id := r.Header.Get("X-Trace-Id"); id != "" {
		tr.SetID(id)
	}
	w.Header()["X-Trace-Id"] = tr.HeaderValue()
	// The propagated header value is cloned: hedge losers may still sit in a
	// transport after this trace is finished and its pooled storage reused.
	ctx := obs.ContextWithTraceHeader(r.Context(), []string{strings.Clone(tr.ID())})
	var prefArr [MaxReplicas]int
	prefs := s.ring.LookupN(hashRawQueryContext(r.URL.RawQuery), s.opts.Replicas, prefArr[:0])
	s.perShard[prefs[0]].Add(1)

	uri := r.URL.RequestURI()
	resCh := make(chan getAttempt, len(prefs)+1)
	var cancels [MaxReplicas + 1]context.CancelFunc
	var spanIdx [MaxReplicas + 1]int
	var spanOpen [MaxReplicas + 1]bool
	var tried, skipNoted [MaxReplicas]bool
	launched, inflight := 0, 0

	// pick chooses the next untried preference, healthy shards first and
	// failing open to ejected ones when nothing healthy remains (an answer
	// from a sick replica beats a guaranteed 502). Returns -1 when the whole
	// list has been tried. A shard passed over because its breaker is open
	// is annotated once on the trace.
	pick := func() int {
		now := time.Now()
		for i, sh := range prefs {
			if tried[i] {
				continue
			}
			if s.health[sh].available(s.hcfg, now) {
				tried[i] = true
				return i
			}
			if !skipNoted[i] {
				skipNoted[i] = true
				tr.Event("breaker-skip", sh, "skipped")
			}
		}
		for i := range prefs {
			if !tried[i] {
				tried[i] = true
				return i
			}
		}
		return -1
	}
	launch := func(pref int, hedge bool) {
		actx, cancel := s.attemptContext(ctx)
		li := launched
		cancels[li] = cancel
		spanIdx[li] = tr.Begin("shard")
		spanOpen[li] = true
		tr.SetShard(spanIdx[li], prefs[pref])
		launched++
		inflight++
		shard := prefs[pref]
		go func() {
			start := time.Now()
			status, body, err := s.tr.Exchange(actx, shard, http.MethodGet, uri, nil, s.getBuf())
			if !retryable(status, err) {
				s.attemptLat.Record(time.Since(start).Microseconds())
			}
			resCh <- getAttempt{pref: pref, li: li, shard: shard, status: status, body: body, err: err, hedge: hedge}
		}()
	}
	// closeSpan closes the attempt span for a consumed result; finish closes
	// the rest as cancelled. Both run on the request goroutine.
	closeSpan := func(li int, outcome string) {
		if spanOpen[li] {
			spanOpen[li] = false
			tr.End(spanIdx[li], outcome)
		}
	}
	finish := func() {
		for i := 0; i < launched; i++ {
			cancels[i]()
			closeSpan(i, "cancelled")
		}
		if inflight > 0 {
			// Drain attempts still landing (hedge losers). A loser that
			// genuinely answered still closes its shard's breaker; a
			// cancelled or failed loser may be carrying the shard's
			// half-open probe claim, which must be handed back — otherwise
			// the breaker strands in "probing" and the shard never sees
			// traffic again. The drain goroutine never touches the trace:
			// its spans were already closed above, on the request goroutine.
			n := inflight
			go func() {
				for i := 0; i < n; i++ {
					res := <-resCh
					if !retryable(res.status, res.err) {
						s.health[res.shard].recordSuccess()
					} else {
						s.health[res.shard].releaseProbe()
					}
					s.putBuf(res.body)
				}
			}()
		}
	}

	hedge := s.hedgeDelay()
	if len(prefs) < 2 {
		hedge = 0
	}
	launch(pick(), false)
	var lastErr getAttempt
	for inflight > 0 {
		var res getAttempt
		if hedge > 0 && launched == 1 {
			t := time.NewTimer(hedge)
			select {
			case res = <-resCh:
				t.Stop()
			case <-t.C:
				if next := pick(); next >= 0 {
					s.hedges.Add(1)
					s.hedgeWait.Record(hedge.Microseconds())
					tr.Event("hedge-fire", prefs[next], "fired")
					launch(next, true)
				} else {
					hedge = 0
				}
				continue
			}
		} else {
			res = <-resCh
		}
		inflight--
		if !retryable(res.status, res.err) {
			if res.hedge {
				closeSpan(res.li, "hedge-won")
			} else {
				closeSpan(res.li, "ok")
			}
			s.health[res.shard].recordSuccess()
			if res.pref > 0 {
				s.failovers.Add(1)
			}
			if res.hedge {
				s.hedgesWon.Add(1)
			}
			finish()
			w.Header()["X-Serve-Shard"] = s.shardHeader[res.shard]
			w.Header()["X-Serve-Attempts"] = s.attemptHeader[min(launched, MaxReplicas)-1]
			if res.hedge {
				w.Header()["X-Serve-Hedge"] = hedgeWonHeaderValue
			}
			w.Header()["Content-Type"] = jsonHeaderValue
			w.WriteHeader(res.status)
			w.Write(res.body)
			s.putBuf(res.body)
			s.reqLat.Record(time.Since(tr.Start()).Microseconds())
			s.tracer.Finish(tr, false)
			return
		}
		if res.err != nil {
			closeSpan(res.li, "error")
		} else {
			closeSpan(res.li, "upstream-5xx")
		}
		s.health[res.shard].recordFailure(s.hcfg, time.Now())
		lastErr = res
		s.putBuf(res.body)
		if inflight == 0 {
			if next := pick(); next >= 0 {
				s.retries.Add(1)
				s.backoffSleep(launched)
				launch(next, false)
			}
		}
	}
	finish()
	msg := fmt.Sprintf("all %d replica(s) failed; shard %d last: ", launched, lastErr.shard)
	if lastErr.err != nil {
		msg += lastErr.err.Error()
	} else {
		msg += fmt.Sprintf("status %d", lastErr.status)
	}
	writeErrorJSON(w, http.StatusBadGateway, "bad_gateway", msg)
	s.reqLat.Record(time.Since(tr.Start()).Microseconds())
	s.tracer.Finish(tr, true)
}

// hedgeWonHeaderValue is the shared X-Serve-Hedge slice.
var hedgeWonHeaderValue = []string{"won"}

// batchScratch is the pooled working state of one batch fan-out: the raw
// body, the item spans, the per-item preference lists and attempt masks, the
// per-round scatter targets and the merged response builder. Everything is
// recycled, so a steady-state fan-out allocates only the per-shard
// goroutines.
type batchScratch struct {
	body    []byte
	spans   [][2]int // item spans within body
	prefs   []int    // stride-R preference list per item (R = effective replicas)
	tried   []uint8  // per-item bitmask over the preference list
	target  []int    // this round's shard per pending item (-1 = none)
	pending []int    // item indices awaiting service
	next    []int    // pending list being built for the next round
	failed  []int    // items that exhausted every replica
	counts  []int    // items per shard, this round
	avail   []bool   // per-shard availability, this round
	probes  []bool   // per-shard: availability was a half-open probe claim
	results [][]byte // per-item result bytes, aliasing the shardCall buffers
	calls   []*shardCall
	out     []byte // merged response body
	wg      sync.WaitGroup
}

// shardCall is one pooled sub-batch exchange: the items it carries, the
// sub-body sent to a shard, the shard's raw response, and the response's
// parsed result spans. The response buffer stays alive until the merge
// completes — results are scattered zero-copy. start/durMicros time the
// exchange; they are written by the call goroutine and read after wg.Wait
// on the request goroutine, which records the trace span retroactively.
type shardCall struct {
	shard     int
	items     []int // item indices, request order
	sub       []byte
	resp      []byte
	spans     [][2]int
	err       error
	start     time.Time
	durMicros int64
}

func (s *ShardRouter) getScratch() *batchScratch {
	b, _ := s.scratch.Get().(*batchScratch)
	if b == nil {
		b = &batchScratch{body: make([]byte, 0, 4096)}
	}
	n := s.ring.Shards()
	if len(b.counts) != n {
		b.counts = make([]int, n)
		b.avail = make([]bool, n)
		b.probes = make([]bool, n)
	}
	b.body = b.body[:0]
	b.spans = b.spans[:0]
	b.prefs = b.prefs[:0]
	b.tried = b.tried[:0]
	b.target = b.target[:0]
	b.pending = b.pending[:0]
	b.next = b.next[:0]
	b.failed = b.failed[:0]
	b.results = b.results[:0]
	b.calls = b.calls[:0]
	b.out = b.out[:0]
	return b
}

func (s *ShardRouter) putScratch(b *batchScratch) {
	for i := range b.results {
		b.results[i] = nil
	}
	s.putCalls(b)
	s.scratch.Put(b)
}

// putCalls recycles the scratch's outstanding shard calls (between rounds
// and at the end of the fan-out).
func (s *ShardRouter) putCalls(b *batchScratch) {
	for _, c := range b.calls {
		c.items = c.items[:0]
		c.sub = c.sub[:0]
		c.resp = c.resp[:0]
		c.spans = c.spans[:0]
		c.err = nil
		s.calls.Put(c)
	}
	b.calls = b.calls[:0]
}

// batch splits a POST /suggest/batch body across shards and merges the
// responses back into request order. Items travel as raw byte spans of the
// request body — the router never decodes them — and shard results are
// scattered into the merged response zero-copy from pooled per-shard
// buffers. The whole fan-out recycles its working state, which is what holds
// BenchmarkShardFanout64's alloc gate; per-item took_us values come from the
// shards and the top-level took_us stays 0 (clients sum per-result values).
//
// With replication (R > 1) the fan-out runs in rounds: round 0 groups items
// by their first healthy preference and fans out concurrently; items whose
// call failed re-group by their next untried replica for round 1, after a
// jittered backoff; and so on until served or every replica was tried. Only
// items that exhaust the whole preference list fail the request (buffered:
// 502) or degrade to error lines (streaming) — a single shard down at
// R >= 2 is absorbed invisibly, with byte-identical results, because every
// replica serves the same compiled blob.
//
// With ?stream=1 (or Accept: application/x-ndjson) the merge is skipped:
// each shard's sub-batch is written the moment it completes, one NDJSON
// line per item — {"index":N,"result":{...}} with the item bytes exactly as
// the buffered merge would have carried them — and the connection is
// flushed per sub-batch, so a client sees its first results at the latency
// of the fastest shard, not the slowest. Lines arrive in an arbitrary
// order; index is the item's position in the request.
func (s *ShardRouter) batch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErrorJSON(w, http.StatusMethodNotAllowed, "method_not_allowed", "use POST")
		return
	}
	sc := s.getScratch()
	defer s.putScratch(sc)
	tr := s.tracer.Start()
	if id := r.Header.Get("X-Trace-Id"); id != "" {
		tr.SetID(id)
	}
	w.Header()["X-Trace-Id"] = tr.HeaderValue()
	ctx := obs.ContextWithTraceHeader(r.Context(), []string{strings.Clone(tr.ID())})
	// Assume the worst until a success path flips it; the deferred finish
	// then tail-samples error traces without per-return bookkeeping.
	errored := true
	defer func() {
		s.reqLat.Record(time.Since(tr.Start()).Microseconds())
		s.tracer.Finish(tr, errored)
	}()
	var err error
	if sc.body, err = appendReadAll(sc.body, http.MaxBytesReader(w, r.Body, s.maxBodySize)); err != nil {
		writeErrorJSON(w, http.StatusBadRequest, "bad_request", "reading body: "+err.Error())
		return
	}
	arr, err := jsonspan.FindKey(sc.body, 0, "requests")
	if err == nil && arr < 0 {
		err = fmt.Errorf(`missing "requests" array`)
	}
	if err == nil {
		sc.spans, err = jsonspan.AppendArraySpans(sc.spans[:0], sc.body, arr)
	}
	if err != nil {
		writeErrorJSON(w, http.StatusBadRequest, "bad_request", "invalid JSON body: "+err.Error())
		return
	}
	if len(sc.spans) == 0 {
		writeErrorJSON(w, http.StatusBadRequest, "bad_request", "empty batch: requests must contain at least one context")
		return
	}
	if len(sc.spans) > s.maxBatch {
		writeErrorJSON(w, http.StatusBadRequest, "bad_request",
			fmt.Sprintf("batch of %d exceeds limit %d", len(sc.spans), s.maxBatch))
		return
	}

	// Assign each item its stride-R preference list by context hash; the
	// primary feeds the per-shard distribution counters.
	R := s.opts.Replicas
	for i, sp := range sc.spans {
		h, err := hashJSONContext(sc.body[sp[0]:sp[1]])
		if err != nil {
			writeErrorJSON(w, http.StatusBadRequest, "bad_request", fmt.Sprintf("requests[%d]: %v", i, err))
			return
		}
		sc.prefs = s.ring.LookupN(h, R, sc.prefs)
		s.perShard[sc.prefs[i*R]].Add(1)
		sc.tried = append(sc.tried, 0)
		sc.pending = append(sc.pending, i)
	}

	stream := wantsNDJSONStream(r)
	var streamMu sync.Mutex
	var flusher http.Flusher
	if stream {
		flusher, _ = w.(http.Flusher)
		w.Header()["Content-Type"] = ndjsonHeaderValue
		w.WriteHeader(http.StatusOK)
	}

	for len(sc.results) < len(sc.spans) {
		sc.results = append(sc.results, nil)
	}
	sc.results = sc.results[:len(sc.spans)]

	var failMsg string
	for round := 0; len(sc.pending) > 0 && round < R; round++ {
		if round > 0 {
			s.backoffSleep(round)
		}
		failMsg = s.fanoutRound(ctx, w, sc, tr, R, stream, &streamMu, flusher)
	}
	for _, i := range sc.pending {
		sc.failed = append(sc.failed, i)
	}

	if stream {
		if len(sc.failed) > 0 {
			// The 200 is already on the wire: per-item error lines are the
			// only way left to report items whose every replica failed.
			streamMu.Lock()
			s.writeFailedLines(w, sc, failMsg)
			if flusher != nil {
				flusher.Flush()
			}
			streamMu.Unlock()
		} else {
			errored = false
		}
		s.batches.Add(1)
		return
	}
	if len(sc.failed) > 0 {
		if failMsg == "" {
			failMsg = "all replicas failed"
		}
		writeErrorJSON(w, http.StatusBadGateway, "bad_gateway",
			fmt.Sprintf("%d item(s) failed on every replica: %s", len(sc.failed), failMsg))
		return
	}
	s.batches.Add(1)
	errored = false

	sc.out = append(sc.out, `{"results":[`...)
	for i, res := range sc.results {
		if i > 0 {
			sc.out = append(sc.out, ',')
		}
		sc.out = append(sc.out, res...)
	}
	sc.out = append(sc.out, `],"took_us":0}`...)
	if n := s.failoversOf(sc, R); n > 0 {
		w.Header()["X-Serve-Failovers"] = []string{strconv.Itoa(n)}
	}
	w.Header()["Content-Type"] = jsonHeaderValue
	w.Write(sc.out)
}

// failoversOf counts the batch's items that were answered by a non-primary
// replica (for the X-Serve-Failovers response header).
func (s *ShardRouter) failoversOf(sc *batchScratch, R int) int {
	if R < 2 {
		return 0
	}
	n := 0
	for _, c := range sc.calls {
		if c.err != nil {
			continue
		}
		for _, i := range c.items {
			if sc.prefs[i*R] != c.shard {
				n++
			}
		}
	}
	return n
}

// fanoutRound serves one failover round: pending items are grouped by their
// next untried preference (healthy shards first, failing open when none
// are), the groups fan out concurrently, successful calls scatter results
// (or stream their lines), and failed calls push their items into the next
// round's pending list. Each completed call is recorded retroactively as a
// "shard-batch" span on tr (after wg.Wait, on the request goroutine — the
// call goroutines only stamp timings into their own shardCall). Returns the
// last failed call's message, for the final error report.
func (s *ShardRouter) fanoutRound(ctx context.Context, w http.ResponseWriter, sc *batchScratch, tr *obs.Trace, R int, stream bool, streamMu *sync.Mutex, flusher http.Flusher) string {
	// Evaluate availability once per shard per round; remember half-open
	// probe claims so unclaimed ones (no traffic grouped onto them) can be
	// released instead of stranding the breaker.
	now := time.Now()
	for sh := range s.health {
		sc.avail[sh], sc.probes[sh] = false, false
		st := s.health[sh].state.Load()
		if s.health[sh].available(s.hcfg, now) {
			sc.avail[sh] = true
			sc.probes[sh] = st == healthOpen // claim happened via open → half-open
		}
	}
	clear(sc.counts)
	sc.target = sc.target[:0]
	for _, i := range sc.pending {
		t := -1
		for k := 0; k < R; k++ {
			if sc.tried[i]&(1<<k) == 0 && sc.avail[sc.prefs[i*R+k]] {
				t = k
				break
			}
		}
		if t < 0 {
			for k := 0; k < R; k++ {
				if sc.tried[i]&(1<<k) == 0 {
					t = k
					break
				}
			}
		}
		if t < 0 {
			sc.target = append(sc.target, -1)
			continue
		}
		sc.tried[i] |= 1 << t
		sh := sc.prefs[i*R+t]
		sc.target = append(sc.target, sh)
		sc.counts[sh]++
	}
	for sh, probe := range sc.probes {
		if probe && sc.counts[sh] == 0 {
			s.health[sh].releaseProbe()
		}
	}

	// Build and fan out this round's calls. Recycled calls from the previous
	// round were already returned to the pool by the caller's classification
	// pass — see below.
	callsBefore := len(sc.calls)
	for sh, count := range sc.counts {
		if count == 0 {
			continue
		}
		s.fanouts.Add(1)
		call, _ := s.calls.Get().(*shardCall)
		if call == nil {
			call = &shardCall{}
		}
		call.shard = sh
		call.sub = append(call.sub, `{"requests":[`...)
		first := true
		for j, i := range sc.pending {
			if sc.target[j] != sh {
				continue
			}
			call.items = append(call.items, i)
			if !first {
				call.sub = append(call.sub, ',')
			}
			first = false
			sp := sc.spans[i]
			call.sub = append(call.sub, sc.body[sp[0]:sp[1]]...)
		}
		call.sub = append(call.sub, `]}`...)
		sc.calls = append(sc.calls, call)
		sc.wg.Add(1)
		go func(call *shardCall) {
			defer sc.wg.Done()
			call.start = time.Now()
			call.err = s.exchangeSubBatch(ctx, call)
			call.durMicros = time.Since(call.start).Microseconds()
			if call.err == nil {
				s.health[call.shard].recordSuccess()
				if stream {
					// Write this sub-batch's lines as soon as it lands; the
					// mutex serialises writers, the flush pushes the lines to
					// the client while slower shards are still descending.
					streamMu.Lock()
					s.writeCallLines(w, sc, call)
					if flusher != nil {
						flusher.Flush()
					}
					streamMu.Unlock()
				}
			} else {
				s.health[call.shard].recordFailure(s.hcfg, time.Now())
			}
		}(call)
	}
	sc.wg.Wait()

	// Classify: successes scatter (buffered mode), failures re-queue their
	// items for the next round.
	failMsg := ""
	sc.next = sc.next[:0]
	for j, i := range sc.pending {
		if sc.target[j] < 0 {
			sc.next = append(sc.next, i) // exhausted; caller moves it to failed
		}
	}
	for _, call := range sc.calls[callsBefore:] {
		off := call.start.Sub(tr.Start()).Microseconds()
		if call.err != nil {
			tr.Record("shard-batch", off, call.durMicros, call.shard, "error")
			failMsg = fmt.Sprintf("shard %d: %v", call.shard, call.err)
			s.retries.Add(uint64(len(call.items)))
			sc.next = append(sc.next, call.items...)
			continue
		}
		tr.Record("shard-batch", off, call.durMicros, call.shard, "ok")
		if !stream {
			for j, i := range call.items {
				sp := call.spans[j]
				sc.results[i] = call.resp[sp[0]:sp[1]]
			}
		}
	}
	sc.pending, sc.next = sc.next, sc.pending[:0]
	// Exhausted items re-queued above will find no untried preference next
	// round and fall through to failed; simpler than a second list here.
	return failMsg
}

// parseResults splits the shard response's "results" array into element
// spans inside the call's recycled span buffer.
func (c *shardCall) parseResults() error {
	arr, err := jsonspan.FindKey(c.resp, 0, "results")
	if err == nil && arr < 0 {
		err = fmt.Errorf(`missing "results" array`)
	}
	if err == nil {
		c.spans, err = jsonspan.AppendArraySpans(c.spans[:0], c.resp, arr)
	}
	if err != nil {
		return fmt.Errorf("decoding shard response: %w", err)
	}
	if len(c.spans) != len(c.items) {
		return fmt.Errorf("shard answered %d results for %d items", len(c.spans), len(c.items))
	}
	return nil
}

// exchangeSubBatch posts one shard's sub-batch and parses the result spans
// out of its response, all into the call's recycled buffers.
func (s *ShardRouter) exchangeSubBatch(ctx context.Context, call *shardCall) error {
	actx, cancel := s.attemptContext(ctx)
	defer cancel()
	status, resp, err := s.tr.Exchange(actx, call.shard, http.MethodPost, "/suggest/batch", call.sub, call.resp)
	call.resp = resp
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("status %d: %s", status, bytes.TrimSpace(resp))
	}
	return call.parseResults()
}

// writeCallLines writes one completed sub-batch as NDJSON lines, one per
// item the call carried, each tagged with the item's index in the original
// request. Result bytes are the shard's item spans verbatim — the same
// bytes the buffered merge scatters — so streamed and buffered responses
// agree item for item, whichever replica answered. Callers hold the stream
// mutex, so reusing sc.out as the line builder is race-free.
func (s *ShardRouter) writeCallLines(w io.Writer, sc *batchScratch, call *shardCall) {
	sc.out = sc.out[:0]
	for j, i := range call.items {
		sp := call.spans[j]
		sc.out = append(sc.out, `{"index":`...)
		sc.out = strconv.AppendInt(sc.out, int64(i), 10)
		sc.out = append(sc.out, `,"result":`...)
		sc.out = append(sc.out, call.resp[sp[0]:sp[1]]...)
		sc.out = append(sc.out, '}', '\n')
	}
	w.Write(sc.out)
}

// writeFailedLines reports items whose every replica failed as NDJSON error
// lines — the stream's 200 is already committed, so per-item errors are the
// only channel left. Callers hold the stream mutex.
func (s *ShardRouter) writeFailedLines(w io.Writer, sc *batchScratch, failMsg string) {
	if failMsg == "" {
		failMsg = "all replicas failed"
	}
	sc.out = sc.out[:0]
	for _, i := range sc.failed {
		sc.out = append(sc.out, `{"index":`...)
		sc.out = strconv.AppendInt(sc.out, int64(i), 10)
		sc.out = append(sc.out, `,"error":{"code":"bad_gateway","message":`...)
		sc.out = strconv.AppendQuote(sc.out, failMsg)
		sc.out = append(sc.out, `}}`...)
		sc.out = append(sc.out, '\n')
	}
	w.Write(sc.out)
}

// wantsNDJSONStream reports whether a batch request opted into the
// streaming NDJSON response: ?stream=1 in the query string or an Accept
// header naming application/x-ndjson. The query string is scanned in place
// (url.Query would allocate on the hot path for every buffered request
// too).
func wantsNDJSONStream(r *http.Request) bool {
	raw := r.URL.RawQuery
	for len(raw) > 0 {
		var seg string
		if i := strings.IndexByte(raw, '&'); i >= 0 {
			seg, raw = raw[:i], raw[i+1:]
		} else {
			seg, raw = raw, ""
		}
		if seg == "stream=1" {
			return true
		}
	}
	return strings.Contains(r.Header.Get("Accept"), "application/x-ndjson")
}

// jsonHeaderValue is the shared Content-Type slice for allocation-free
// header assignment.
var jsonHeaderValue = []string{"application/json"}

// ndjsonHeaderValue is its application/x-ndjson counterpart for streamed
// batch responses.
var ndjsonHeaderValue = []string{"application/x-ndjson"}

// redirectV1 301s a legacy unversioned admin path to its /v1/ home.
func redirectV1(w http.ResponseWriter, r *http.Request) {
	target := "/v1" + r.URL.Path
	if r.URL.RawQuery != "" {
		target += "?" + r.URL.RawQuery
	}
	http.Redirect(w, r, target, http.StatusMovedPermanently)
}

// writeErrorJSON answers a non-2xx with the consistent error envelope
// {"error":{"code","message"}} every handler in the repository uses.
func writeErrorJSON(w http.ResponseWriter, status int, code, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	var buf [256]byte
	b := append(buf[:0], `{"error":{"code":`...)
	b = strconv.AppendQuote(b, code)
	b = append(b, `,"message":`...)
	b = strconv.AppendQuote(b, msg)
	b = append(b, `}}`...)
	b = append(b, '\n')
	w.Write(b)
}

// ShardRouterHealth is the shard router's /healthz payload: liveness plus
// the replication factor and every shard breaker's live state.
type ShardRouterHealth struct {
	Status        string             `json:"status"`
	Role          string             `json:"role"`
	Shards        int                `json:"shards"`
	Replicas      int                `json:"replicas"`
	ShardsHealthy int                `json:"shards_healthy"`
	ShardHealth   []ShardHealthStats `json:"shard_health"`
}

func (s *ShardRouter) healthz(w http.ResponseWriter) {
	resp := ShardRouterHealth{
		Status:   "ok",
		Role:     "router",
		Shards:   s.ring.Shards(),
		Replicas: s.opts.Replicas,
	}
	for i := range s.health {
		hs := s.health[i].snapshot(i)
		if hs.State == "healthy" {
			resp.ShardsHealthy++
		}
		resp.ShardHealth = append(resp.ShardHealth, hs)
	}
	if resp.ShardsHealthy == 0 {
		resp.Status = "degraded"
	}
	writeJSON(w, resp)
}

// ShardRouterMetrics is the shard router's /metrics payload: routed request
// counters, the per-shard distribution (contexts routed to each replica —
// near-even by construction of the ring), and the failure-policy counters:
// retries (failed attempts moved to another replica), failovers (requests
// answered by a non-primary), hedges fired/won, and each shard breaker's
// state.
type ShardRouterMetrics struct {
	Role          string `json:"role"`
	Shards        int    `json:"shards"`
	Replicas      int    `json:"replicas"`
	Requests      uint64 `json:"requests"`
	BatchRequests uint64 `json:"batch_requests"`
	BatchFanouts  uint64 `json:"batch_fanouts"`
	Retries       uint64 `json:"retries"`
	Failovers     uint64 `json:"failovers"`
	Hedges        uint64 `json:"hedges"`
	HedgesWon     uint64 `json:"hedges_won"`
	// Request* summarise end-to-end routed request latency (GET and batch);
	// Attempt* summarise successful individual shard attempts, the
	// distribution that drives the auto hedge delay.
	RequestP50Micros  int64              `json:"request_p50_us"`
	RequestP99Micros  int64              `json:"request_p99_us"`
	RequestP999Micros int64              `json:"request_p999_us"`
	RequestMaxMicros  int64              `json:"request_max_us"`
	AttemptP50Micros  int64              `json:"attempt_p50_us"`
	AttemptP99Micros  int64              `json:"attempt_p99_us"`
	AttemptP999Micros int64              `json:"attempt_p999_us"`
	AttemptMaxMicros  int64              `json:"attempt_max_us"`
	ContextsPerShard  []uint64           `json:"contexts_per_shard"`
	ShardHealth       []ShardHealthStats `json:"shard_health"`
	AntiEntropy       *AdminStateStats   `json:"anti_entropy,omitempty"`
}

func (s *ShardRouter) metrics(w http.ResponseWriter) {
	m := ShardRouterMetrics{
		Role:          "router",
		Shards:        s.ring.Shards(),
		Replicas:      s.opts.Replicas,
		Requests:      s.requests.Load(),
		BatchRequests: s.batches.Load(),
		BatchFanouts:  s.fanouts.Load(),
		Retries:       s.retries.Load(),
		Failovers:     s.failovers.Load(),
		Hedges:        s.hedges.Load(),
		HedgesWon:     s.hedgesWon.Load(),
	}
	if s.reqLat.Count() > 0 {
		m.RequestP50Micros = s.reqLat.Quantile(0.50)
		m.RequestP99Micros = s.reqLat.Quantile(0.99)
		m.RequestP999Micros = s.reqLat.Quantile(0.999)
		m.RequestMaxMicros = s.reqLat.Max()
	}
	if s.attemptLat.Count() > 0 {
		m.AttemptP50Micros = s.attemptLat.Quantile(0.50)
		m.AttemptP99Micros = s.attemptLat.Quantile(0.99)
		m.AttemptP999Micros = s.attemptLat.Quantile(0.999)
		m.AttemptMaxMicros = s.attemptLat.Max()
	}
	for i := range s.perShard {
		m.ContextsPerShard = append(m.ContextsPerShard, s.perShard[i].Load())
	}
	for i := range s.health {
		m.ShardHealth = append(m.ShardHealth, s.health[i].snapshot(i))
	}
	st := s.admin.Stats()
	m.AntiEntropy = &st
	writeJSON(w, m)
}

// RouteResponse is the /route admin payload: where a context would go,
// without serving it — the whole preference list under replication.
type RouteResponse struct {
	Hash     string `json:"context_hash"`
	Shard    int    `json:"shard"`
	Replicas []int  `json:"replicas,omitempty"`
}

// route reports the shard assignment for the context in the query string —
// the debugging endpoint for "which replicas own this context?".
func (s *ShardRouter) route(w http.ResponseWriter, r *http.Request) {
	h := hashRawQueryContext(r.URL.RawQuery)
	prefs := s.ring.LookupN(h, s.opts.Replicas, nil)
	resp := RouteResponse{Hash: fmt.Sprintf("%016x", h), Shard: prefs[0]}
	if len(prefs) > 1 {
		resp.Replicas = prefs
	}
	writeJSON(w, resp)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

// wantsPrometheusFormat reports whether the request asked for the
// Prometheus text exposition via ?format=prometheus.
func wantsPrometheusFormat(r *http.Request) bool {
	return strings.Contains(r.URL.RawQuery, "format=prometheus")
}

// routerPromContentType is the Prometheus text exposition content type,
// shared for allocation-free header assignment.
var routerPromContentType = []string{"text/plain; version=0.0.4; charset=utf-8"}

// prometheus renders the router's registry in the Prometheus text format.
func (s *ShardRouter) prometheus(w http.ResponseWriter) {
	w.Header()["Content-Type"] = routerPromContentType
	_ = s.reg.WritePrometheus(w)
}

// traces serves GET /v1/traces: the router's tail-sampled retained traces,
// newest first, filterable with ?min_us=N, ?error=1 and ?limit=N. Each
// trace shows the request's failover story: per-attempt shard spans with
// outcomes, breaker skips and hedge firings.
func (s *ShardRouter) traces(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErrorJSON(w, http.StatusMethodNotAllowed, "method_not_allowed", "use GET")
		return
	}
	var minMicros int64
	var onlyErrors bool
	limit := 0
	q := r.URL.Query()
	if v := q.Get("min_us"); v != "" {
		if n, err := strconv.ParseInt(v, 10, 64); err == nil {
			minMicros = n
		}
	}
	if v := q.Get("error"); v == "1" || v == "true" {
		onlyErrors = true
	}
	if v := q.Get("limit"); v != "" {
		if n, err := strconv.Atoi(v); err == nil {
			limit = n
		}
	}
	views := s.tracer.Snapshot(minMicros, onlyErrors, limit)
	resp := struct {
		SlowThresholdMicros int64           `json:"slow_threshold_us,omitempty"`
		Count               int             `json:"count"`
		Traces              []obs.TraceView `json:"traces"`
	}{Count: len(views), Traces: views}
	if th := s.tracer.SlowThresholdMicros(); th < math.MaxInt64 {
		resp.SlowThresholdMicros = th
	}
	writeJSON(w, resp)
}

// hashRawQueryContext hashes the q values of a raw query string: each value
// is percent-decoded ('+' is space) streaming into the hash — no buffer —
// and terminated with a 0xFF separator so value boundaries cannot alias.
// Undecodable escapes hash the raw bytes instead (still deterministic).
// The result matches hashStringContext of the decoded values, so GET and
// batch traffic for the same context agree on the owning shard.
func hashRawQueryContext(raw string) uint64 {
	h := uint64(fnvOffset64)
	mix := func(c byte) {
		h ^= uint64(c)
		h *= fnvPrime64
	}
	for len(raw) > 0 {
		var seg string
		if i := strings.IndexByte(raw, '&'); i >= 0 {
			seg, raw = raw[:i], raw[i+1:]
		} else {
			seg, raw = raw, ""
		}
		key, val := seg, ""
		if i := strings.IndexByte(seg, '='); i >= 0 {
			key, val = seg[:i], seg[i+1:]
		}
		if key != "q" {
			continue
		}
		for i := 0; i < len(val); i++ {
			switch c := val[i]; c {
			case '+':
				mix(' ')
			case '%':
				if i+2 < len(val) {
					hi, okHi := unhexDigit(val[i+1])
					lo, okLo := unhexDigit(val[i+2])
					if okHi && okLo {
						mix(hi<<4 | lo)
						i += 2
						continue
					}
				}
				mix(c)
			default:
				mix(c)
			}
		}
		mix(0xFF)
	}
	return h
}

// hashStringContext hashes a decoded context — the GET path's
// hashRawQueryContext counterpart for contexts already held as strings.
func hashStringContext(context []string) uint64 {
	h := uint64(fnvOffset64)
	for _, q := range context {
		for i := 0; i < len(q); i++ {
			h ^= uint64(q[i])
			h *= fnvPrime64
		}
		h ^= 0xFF
		h *= fnvPrime64
	}
	return h
}

func unhexDigit(c byte) (byte, bool) {
	switch {
	case '0' <= c && c <= '9':
		return c - '0', true
	case 'a' <= c && c <= 'f':
		return c - 'a' + 10, true
	case 'A' <= c && c <= 'F':
		return c - 'A' + 10, true
	}
	return 0, false
}
