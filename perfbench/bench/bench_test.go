package bench

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestOpenLoopCountsStallAgainstLaterRequests stalls the server for 50 ms
// once and checks that the requests due during the stall carry the wait in
// their latency, though each of them, once sent, was answered quickly.
func TestOpenLoopCountsStallAgainstLaterRequests(t *testing.T) {
	const stall = 50 * time.Millisecond
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) == 100 {
			time.Sleep(stall)
		}
		w.Write([]byte(`{"context":["a"],"suggestions":[],"took_us":0}`))
	}))
	defer srv.Close()
	c, err := Dial(strings.TrimPrefix(srv.URL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// One request due every millisecond for 300 ms.
	var sched []Slot
	for i := range 300 {
		sched = append(sched, Slot{At: time.Duration(i) * time.Millisecond})
	}
	ph := Phase{
		Conns: []*Conn{c},
		Reqs:  []Request{{Bytes: EncodeGET("x", "/suggest?q=a"), Items: []int32{0}}},
		Open:  [][]Slot{sched},
		Dur:   300 * time.Millisecond,
		CtxOf: []int32{0},
	}
	res, err := ph.Run()
	if err != nil {
		t.Fatal(err)
	}
	slowServe, slowLatency := 0, 0
	for _, s := range res.Samples[0] {
		if !s.OK {
			t.Fatalf("op failed: %+v", s)
		}
		if s.Done-s.Send > stall/2 {
			slowServe++
		}
		if s.Latency() > stall/2 {
			slowLatency++
		}
	}
	if slowServe != 1 {
		t.Errorf("%d requests took over %s once sent, want the one stalled request", slowServe, stall/2)
	}
	// About stall/2 requests fall due in the first half of the stall; each
	// waits over stall/2 counted from its due time.
	if slowLatency < 20 {
		t.Errorf("only %d requests show over %s latency from their due time; the stall was not counted against them", slowLatency, stall/2)
	}
}

func TestConnReadsChunkedBodies(t *testing.T) {
	body := strings.Repeat("x", 10000)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		for i := 0; i < len(body); i += 1000 {
			w.Write([]byte(body[i : i+1000]))
			w.(http.Flusher).Flush() // force chunked transfer encoding
		}
	}))
	defer srv.Close()
	c, err := Dial(strings.TrimPrefix(srv.URL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for range 2 { // the connection stays usable
		status, got, err := c.Do(EncodeGET("x", "/"), nil)
		if err != nil || status != 200 || string(got) != body {
			t.Fatalf("status %d, %d bytes, err %v", status, len(got), err)
		}
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	for _, tc := range []struct {
		n    int
		q    float64
		want float64 // 0: refused
	}{
		{1000, 0.99, 990},
		{999, 0.99, 0},
		{20, 0.50, 10},
		{19, 0.50, 0},
		{0, 0.50, 0},
	} {
		got, err := Percentile(seq(tc.n), tc.q)
		if tc.want == 0 {
			if err == nil {
				t.Errorf("p%g of %d samples = %g, want refusal", 100*tc.q, tc.n, got)
			}
			continue
		}
		if err != nil || got != tc.want {
			t.Errorf("p%g of %d samples = %g, %v; want %g", 100*tc.q, tc.n, got, err, tc.want)
		}
	}
}

// TestNDCG5SingleRelevant checks NDCG@5 against the paper's Eq. 11 with
// one relevant item of rating r: (2^r-1)/log10(1+j) over the ideal
// (2^r-1)/log10(2).
func TestNDCG5SingleRelevant(t *testing.T) {
	answer := []string{"a", "b", "c", "d", "e", "f"}
	for j, truth := range answer {
		want := 0.0
		if j < 5 {
			const r = 5.0
			want = ((math.Pow(2, r) - 1) / math.Log10(float64(j+2))) / ((math.Pow(2, r) - 1) / math.Log10(2))
		}
		if got := NDCG5(answer, truth); math.Abs(got-want) > 1e-12 {
			t.Errorf("truth at position %d: NDCG5 = %g, want %g", j+1, got, want)
		}
	}
	if got := NDCG5(answer, "zz"); got != 0 {
		t.Errorf("absent truth: NDCG5 = %g, want 0", got)
	}
	if got := NDCG5(nil, "a"); got != 0 {
		t.Errorf("empty answer: NDCG5 = %g, want 0", got)
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	parent := Interval{0, 100}
	for _, tc := range []struct {
		children []Interval
		want     int64
	}{
		{nil, 100},
		{[]Interval{{10, 40}}, 70},
		{[]Interval{{10, 40}, {30, 60}}, 50},            // overlap counted once
		{[]Interval{{30, 60}, {10, 40}, {15, 20}}, 50},  // unsorted, nested
		{[]Interval{{10, 40}, {30, 60}, {90, 120}}, 40}, // clipped at the parent's end
		{[]Interval{{-5, 5}, {40, 50}, {50, 60}}, 75},   // clipped at the start; adjacent children
		{[]Interval{{0, 100}, {20, 30}}, 0},             // fully covered
		{[]Interval{{100, 120}, {-20, 0}}, 100},         // outside the parent
	} {
		if got := SelfTime(parent, tc.children); got != tc.want {
			t.Errorf("SelfTime(%v, %v) = %d, want %d", parent, tc.children, got, tc.want)
		}
	}
}

// syntheticLog is a small log in the program's record format.
func syntheticLog() string {
	var b strings.Builder
	t0 := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	for s := range 200 {
		m := fmt.Sprintf("m%03d", s%50)
		t := t0.Add(time.Duration(s) * 2 * time.Hour)
		for q := range 2 + s%3 {
			b.WriteString(LogLine(m, fmt.Sprintf("q%d w%d", (s*7+q)%23, q), t.Add(time.Duration(q)*time.Minute)))
		}
	}
	return b.String()
}

// inputsDigest hashes everything a run sends, in order.
func inputsDigest(t *testing.T, seed uint64) [32]byte {
	sessions, err := ReadSessions(strings.NewReader(syntheticLog()))
	if err != nil {
		t.Fatal(err)
	}
	in := NewInputs(sessions)
	in.AddProbes(MakeProbes(seed, 4))
	h := sha256.New()
	g := in.NewGetTraffic("perfbench", RNG(seed, 1), in.HotItems(10), 2*time.Second)
	for _, sched := range [][][]Slot{g.Warm, g.Fixed} {
		for _, ss := range sched {
			for _, s := range ss {
				fmt.Fprintf(h, "%d %s|", s.At, g.Reqs[s.Req].Bytes)
			}
		}
	}
	for _, r := range in.BatchRequests("perfbench", RNG(seed, 2), 16) {
		h.Write(r.Bytes)
	}
	var sum [32]byte
	copy(sum[:], h.Sum(nil))
	return sum
}

func TestSameSeedSameInputs(t *testing.T) {
	a, b := inputsDigest(t, 7), inputsDigest(t, 7)
	if a != b {
		t.Fatal("the same seed produced different inputs")
	}
	if c := inputsDigest(t, 8); c == a {
		t.Fatal("different seeds produced identical inputs")
	}
}

func TestReadSessionsSplitsOnMachineAndGap(t *testing.T) {
	t0 := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	log := LogLine("m1", "a", t0) + LogLine("m1", "b", t0.Add(time.Minute)) +
		LogLine("m1", "c", t0.Add(2*time.Hour)) + LogLine("m2", "d", t0.Add(2*time.Hour))
	got, err := ReadSessions(strings.NewReader(log))
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != "[[a b] [c] [d]]" {
		t.Fatalf("sessions = %v", got)
	}
}

func TestSuggestionSpans(t *testing.T) {
	body := []byte(`{"results":[{"context":["suggestions\"]"],"suggestions":[{"query":"x]","score":0.5}],"took_us":1},` +
		`{"context":["b"],"suggestions":[],"took_us":2}],"took_us":3}`)
	spans, ok := suggestionSpans(nil, body)
	if !ok || len(spans) != 2 {
		t.Fatalf("spans = %v, ok = %v", spans, ok)
	}
	if got := string(body[spans[0][0]:spans[0][1]]); got != `[{"query":"x]","score":0.5}]` {
		t.Errorf("first span = %s", got)
	}
	if got := string(body[spans[1][0]:spans[1][1]]); got != `[]` {
		t.Errorf("second span = %s", got)
	}
	if _, ok := suggestionSpans(nil, []byte(`{"suggestions":[{"query":"x"`)); ok {
		t.Error("truncated body scanned as well-formed")
	}
}

func TestParseOracle(t *testing.T) {
	out := "1. b                                        0.5\n2. c d                                      0.0125\n-- session reset --\n" +
		"(no suggestions for context of 1 queries)\n-- session reset --\n" +
		"1. x                                        1e-05\n1. y                                        0.25\n-- session reset --\n"
	o, err := parseOracle(bytes.NewBufferString(out), [][]string{{"a"}, {"zz"}, {"p", "q"}})
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(o[CtxKey([]string{"a"})]); got != "[{b 0.5} {c d 0.0125}]" {
		t.Errorf("a: %s", got)
	}
	if got := o[CtxKey([]string{"zz"})]; got != nil {
		t.Errorf("zz: %v", got)
	}
	if got := fmt.Sprint(o[CtxKey([]string{"p", "q"})]); got != "[{y 0.25}]" {
		t.Errorf("p q: %s (want the answer printed after the last query)", got)
	}
	if !Match([]Suggestion{{"y", 0.2500001}}, o[CtxKey([]string{"p", "q"})]) {
		t.Error("scores equal at four significant digits do not match")
	}
	if Match([]Suggestion{{"y", 0.2512}}, o[CtxKey([]string{"p", "q"})]) {
		t.Error("scores differing in the fourth digit match")
	}
}
