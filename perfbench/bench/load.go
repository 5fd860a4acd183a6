package bench

import (
	"fmt"
	"math/rand/v2"
	"sync"
	"time"
)

// Request is one pre-encoded request and the pool items it asks about, in
// the order their answers come back.
type Request struct {
	Bytes []byte
	Items []int32
}

// Slot is one scheduled send of an open loop.
type Slot struct {
	At  time.Duration // offset from the phase start
	Req int32
}

// Sample is one completed operation. Times are offsets from the phase
// start. Latency is Done-Sched: an open-loop request is timed from when it
// was due, so a stall that delays later sends counts against them.
type Sample struct {
	Sched, Send, Done time.Duration
	// Lag is how late the generator itself sent the request: the send time
	// minus the later of its due time and the end of the sender's previous
	// operation. Waiting caused by a slow server is not lag.
	Lag     time.Duration
	Req     int32
	Status  int
	OK      bool
	HashOff int32 // offset of this op's answer hashes in the sender's Hashes
}

// Latency returns the sample's latency.
func (s Sample) Latency() time.Duration { return s.Done - s.Sched }

// Result holds one phase's samples and answer hashes per sender.
type Result struct {
	Samples [][]Sample
	Hashes  [][]uint64
	// Answers maps (context, answer hash) to the first answer bytes seen.
	Answers map[AnswerKey][]byte
	Elapsed time.Duration
}

// AnswerKey identifies one distinct answer to one context.
type AnswerKey struct {
	Ctx  int32
	Hash uint64
}

// Phase is one measured stretch of load over a fixed set of connections,
// one sending goroutine per connection.
type Phase struct {
	Conns []*Conn
	Reqs  []Request
	// Open holds each sender's schedule for an open loop. When nil the
	// phase is a closed loop: sender i sends Closed[i] in order (cycling)
	// until Dur has passed.
	Open   [][]Slot
	Closed [][]int32
	Dur    time.Duration
	// CtxOf maps a pool item to its distinct context, so identical answers
	// are stored once.
	CtxOf []int32
	// Pick, when set, may replace the request planned for a sender's k-th
	// send (the ingest workload's probes).
	Pick func(sender, k int, planned int32) int32
	// Observe, when set, sees every answered request's body as it arrives.
	Observe func(req int32, at time.Time, body []byte)
}

// Run executes the phase and returns its samples.
func (p *Phase) Run() (*Result, error) {
	n := len(p.Conns)
	res := &Result{Samples: make([][]Sample, n), Hashes: make([][]uint64, n)}
	answers := make([]map[AnswerKey][]byte, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	t0 := time.Now()
	for i := range n {
		answers[i] = make(map[AnswerKey][]byte)
		wg.Add(1)
		go func() {
			defer wg.Done()
			res.Samples[i], res.Hashes[i], errs[i] = p.send(i, t0, answers[i])
		}()
	}
	wg.Wait()
	res.Elapsed = time.Since(t0)
	res.Answers = answers[0]
	for _, m := range answers[1:] {
		for k, v := range m {
			if _, ok := res.Answers[k]; !ok {
				res.Answers[k] = v
			}
		}
	}
	for _, err := range errs {
		if err != nil {
			return res, err
		}
	}
	return res, nil
}

// send is one sender's loop.
func (p *Phase) send(i int, t0 time.Time, answers map[AnswerKey][]byte) ([]Sample, []uint64, error) {
	conn := p.Conns[i]
	var (
		samples []Sample
		hashes  []uint64
		buf     = make([]byte, 0, 64<<10)
		spans   [][2]int
		ready   time.Duration // end of the previous operation
	)
	closed := p.Open == nil
	total := 0
	if closed {
		samples = make([]Sample, 0, 1<<14)
	} else {
		total = len(p.Open[i])
		samples = make([]Sample, 0, total)
	}
	for k := 0; closed || k < total; k++ {
		var due time.Duration
		var req int32
		if closed {
			due = time.Since(t0)
			if due >= p.Dur {
				break
			}
			req = p.Closed[i][k%len(p.Closed[i])]
		} else {
			due = p.Open[i][k].At
			req = p.Open[i][k].Req
			for d := due - time.Since(t0); d > 0; d = due - time.Since(t0) {
				sleepFor(d)
			}
		}
		if p.Pick != nil {
			req = p.Pick(i, k, req)
		}
		send := time.Since(t0)
		s := Sample{Sched: due, Send: send, Lag: send - max(due, ready), Req: req, HashOff: int32(len(hashes))}
		status, body, err := conn.Do(p.Reqs[req].Bytes, buf)
		s.Done = time.Since(t0)
		buf = body
		s.Status = status
		if err != nil {
			// The connection is unusable after a transport error; the op
			// fails and the sender carries on over a fresh connection.
			conn.Close()
			nc, derr := Dial(conn.addr)
			if derr != nil {
				return samples, hashes, fmt.Errorf("redial after %v: %w", err, derr)
			}
			conn, p.Conns[i] = nc, nc
		}
		if err == nil && status == 200 {
			if p.Observe != nil {
				p.Observe(req, time.Now(), body)
			}
			var ok bool
			spans, ok = suggestionSpans(spans[:0], body)
			items := p.Reqs[req].Items
			if ok && len(spans) == len(items) {
				s.OK = true
				for j, sp := range spans {
					a := body[sp[0]:sp[1]]
					key := AnswerKey{Ctx: p.CtxOf[items[j]], Hash: hash64(a)}
					if _, seen := answers[key]; !seen {
						answers[key] = append([]byte(nil), a...)
					}
					hashes = append(hashes, key.Hash)
				}
			}
		}
		samples = append(samples, s)
		ready = time.Since(t0)
	}
	return samples, hashes, nil
}

// Poisson returns an open-loop schedule of Poisson arrivals at rate per
// second over dur, each slot's request drawn by pick.
func Poisson(rng *rand.Rand, rate float64, dur time.Duration, pick func() int32) []Slot {
	var out []Slot
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		at := time.Duration(t * float64(time.Second))
		if at >= dur {
			return out
		}
		out = append(out, Slot{At: at, Req: pick()})
	}
}
