package compiled

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/markov"
	"repro/internal/model"
	"repro/internal/query"
)

// quantTol is the asserted ceiling on quantisation error. The format bound
// is qstep/2 ≤ 1/(2·65535) ≈ 7.7e-6 per node, and mixture weights and
// escape chains multiply to ≤ 1, so scores and probabilities stay within
// it; the ceiling leaves slack for float32 step rounding.
const quantTol = 2e-5

// mustCompact round-trips a compiled model through the CPS5 encoding.
func mustCompact(t testing.TB, c *Model) *Model {
	t.Helper()
	blob, err := c.AppendFlat5(nil)
	if err != nil {
		t.Fatalf("AppendFlat5: %v", err)
	}
	m, err := FromBytes(blob)
	if err != nil {
		t.Fatalf("FromBytes: %v", err)
	}
	if !m.Quantised() {
		t.Fatal("CPS5 load did not produce a quantised model")
	}
	return m
}

// wideTestModel compiles a mixture that needs every wide array variant:
// more than 16 components (uint64 evidence masks) and session counts above
// 2^32 (uint64 occurrence counts).
func wideTestModel(t testing.TB) *Model {
	t.Helper()
	big := []query.Session{
		{Queries: query.Seq{1, 2}, Count: 1 << 33},
		{Queries: query.Seq{1, 3}, Count: 7},
		{Queries: query.Seq{2, 3, 4}, Count: 1 << 34},
	}
	eps := make([]float64, 18)
	for i := range eps {
		eps[i] = float64(i) * 0.005
	}
	c, err := Compile(markov.NewMVMMFromEpsilons(big, eps, 6, markov.MVMMOptions{NewtonIters: 3}))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// assertQuantParity checks the quantised model against the exact one under
// the CPS5 error contract: probabilities within quantTol, prediction lists
// of identical length whose rank disagreements only involve candidates
// whose exact scores are within 2·quantTol of each other (near-ties), and
// identical coverage.
func assertQuantParity(t *testing.T, exact, quant *Model, ctxs []query.Seq, vocab int, rng *rand.Rand) {
	t.Helper()
	for _, ctx := range ctxs {
		for _, n := range []int{1, 5, 10} {
			want := exact.Predict(ctx, n)
			got := quant.Predict(ctx, n)
			if len(want) != len(got) {
				t.Fatalf("ctx %v n=%d: exact %d predictions, quantised %d", ctx, n, len(want), len(got))
			}
			for i := range want {
				if got[i].Query != want[i].Query {
					pw := exact.Prob(ctx, want[i].Query)
					pg := exact.Prob(ctx, got[i].Query)
					if diff := math.Abs(pw - pg); diff > 2*quantTol {
						t.Fatalf("ctx %v n=%d rank %d: quantised ranked %d over %d but exact scores differ by %g (not a near-tie)",
							ctx, n, i, got[i].Query, want[i].Query, diff)
					}
				}
				if diff := math.Abs(got[i].Score - exact.Prob(ctx, got[i].Query)); diff > quantTol {
					t.Fatalf("ctx %v n=%d rank %d: quantised score off by %g (> %g)", ctx, n, i, diff, quantTol)
				}
			}
		}
		if exact.Covers(ctx) != quant.Covers(ctx) {
			t.Fatalf("ctx %v: coverage mismatch exact=%v quantised=%v", ctx, exact.Covers(ctx), quant.Covers(ctx))
		}
		for i := 0; i < 5; i++ {
			q := query.ID(rng.Intn(vocab + 2))
			pw, pg := exact.Prob(ctx, q), quant.Prob(ctx, q)
			if diff := math.Abs(pw - pg); diff > quantTol {
				t.Fatalf("ctx %v q=%d: prob diff %g (exact %v, quantised %v)", ctx, q, diff, pw, pg)
			}
		}
	}
}

// TestQuantParityRandomCorpora is the CPS5 correctness property: across
// seeded random corpora, the decoded model must stay within the bounded
// error contract of the Compile model — top-10 rank agreement modulo
// near-ties, probabilities within quantTol.
func TestQuantParityRandomCorpora(t *testing.T) {
	for seed := int64(101); seed <= 104; seed++ {
		rng := rand.New(rand.NewSource(seed))
		vocab := 20 + rng.Intn(60)
		sessions := randomCorpus(rng, vocab, 300+rng.Intn(1200))
		m := markov.NewMVMMFromEpsilons(sessions, []float64{0.0, 0.01, 0.05, 0.1}, vocab,
			markov.MVMMOptions{TrainSample: 200, NewtonIters: 8})
		c, err := Compile(m)
		if err != nil {
			t.Fatalf("seed %d: compile: %v", seed, err)
		}
		assertQuantParity(t, c, mustCompact(t, c), parityContexts(rng, sessions, vocab), vocab, rng)
	}
}

// TestQuantRoundTripStable: re-quantising the dequantised probabilities
// must reproduce the stored fixed-point codes exactly, so a decoded model
// re-encodes to the byte-identical blob on every corpus shape, wide arrays
// included, and nothing drifts across save/load generations.
func TestQuantRoundTripStable(t *testing.T) {
	models := []*Model{wideTestModel(t)}
	for seed := int64(211); seed <= 214; seed++ {
		c, _, _, _ := flatTestModel(t, seed)
		models = append(models, c)
	}
	for i, c := range models {
		blob, err := c.AppendFlat5(nil)
		if err != nil {
			t.Fatal(err)
		}
		m := c
		for gen := 1; gen <= 3; gen++ {
			if m, err = FromBytes(blob); err != nil {
				t.Fatalf("model %d generation %d: %v", i, gen, err)
			}
			again, err := m.AppendFlat5(nil)
			if err != nil {
				t.Fatalf("model %d generation %d: re-encode: %v", i, gen, err)
			}
			if !bytes.Equal(blob, again) {
				t.Fatalf("model %d generation %d: re-encode is not byte-identical", i, gen)
			}
		}
	}
}

// TestQuantBatchParity: the batched descent must be bit-identical to single
// Predict calls on a decoded model too (shared scratch, same arrays).
func TestQuantBatchParity(t *testing.T) {
	c, sessions, vocab, rng := flatTestModel(t, 223)
	assertBatchParity(t, mustCompact(t, c), parityContexts(rng, sessions, vocab), rng)
}

// TestQuantSizeReduction: the CPS5 blob must be far smaller than the exact
// arrays it decodes into — the reason it is the stored form.
func TestQuantSizeReduction(t *testing.T) {
	for seed := int64(301); seed <= 303; seed++ {
		c, _, _, _ := flatTestModel(t, seed)
		blob, err := c.AppendFlat5(nil)
		if err != nil {
			t.Fatal(err)
		}
		exact := 4*(len(c.childStart)+len(c.childKey)+len(c.folStart)+len(c.folIDRanked)+len(c.folIDSorted)) +
			8*(len(c.evidence)+len(c.occ)+len(c.startOcc)+len(c.floor)+len(c.folPSorted))
		if ratio := float64(len(blob)) / float64(exact); ratio > 0.5 {
			t.Fatalf("seed %d: CPS5 %d bytes is %.1f%% of the %d-byte exact arrays, want <= 50%%",
				seed, len(blob), 100*ratio, exact)
		}
	}
}

// TestQuantWideWidths exercises the wide variants of the narrow arrays: a
// mixture with more than 16 components keeps uint64 evidence masks, and
// session counts above 2^32 keep uint64 occurrence arrays.
func TestQuantWideWidths(t *testing.T) {
	rng := rand.New(rand.NewSource(401))
	vocab := 25
	sessions := randomCorpus(rng, vocab, 400)
	eps := make([]float64, 18)
	for i := range eps {
		eps[i] = float64(i) * 0.005
	}
	m := markov.NewMVMMFromEpsilons(sessions, eps, vocab,
		markov.MVMMOptions{TrainSample: 100, NewtonIters: 4})
	c, err := Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	if evW, _ := c.quantWidths(); evW != 8 {
		t.Fatalf("evidence width %d for %d components, want 8", evW, c.Components())
	}
	assertQuantParity(t, c, mustCompact(t, c), parityContexts(rng, sessions, vocab)[:80], vocab, rng)

	cb := wideTestModel(t)
	if _, occW := cb.quantWidths(); occW != 8 {
		t.Fatalf("occurrence width %d for 2^34 counts, want 8", occW)
	}
	assertQuantParity(t, cb, mustCompact(t, cb), []query.Seq{{1}, {2}, {1, 2}, {3, 2, 1}, {4, 5}}, 6, rng)
}

// TestAppendFlat5Unquantisable: a node with more followers than a 16-bit
// rank index can address must fail with ErrUnquantisable and leave dst
// untouched (len 0 here) — core.Save keys its empty compiled section on it.
func TestAppendFlat5Unquantisable(t *testing.T) {
	const support = quantSteps + 1
	c := &Model{
		k: 1, vocab: support + 10, depth: 1, nodes: 2,
		sigma: []float64{1}, maxLen: []int{0},
		childStart: []int32{0, 1, 1}, childKey: []uint32{1},
		evidence: []uint64{0, 1}, occ: []uint64{0, 0}, startOcc: []uint64{0, 0},
		floor:    []float64{0, 1e-6},
		folStart: []int32{0, 0, support},
	}
	c.folIDSorted = make([]uint32, support)
	c.folIDRanked = make([]uint32, support)
	c.folPSorted = make([]float64, support)
	for i := range c.folIDSorted {
		c.folIDSorted[i] = uint32(i)
		c.folIDRanked[i] = uint32(i)
		c.folPSorted[i] = 1.0 / support
	}
	blob, err := c.AppendFlat5(nil)
	if !errors.Is(err, ErrUnquantisable) {
		t.Fatalf("err = %v, want ErrUnquantisable", err)
	}
	if len(blob) != 0 {
		t.Fatalf("failed AppendFlat5 returned %d bytes, want the untouched dst", len(blob))
	}
}

// TestQuantRejectsCorruption: random byte damage behind a re-stamped CRC
// must either be refused by structural validation or yield a model that
// serves — single, batched and probability queries — without panicking.
func TestQuantRejectsCorruption(t *testing.T) {
	c, sessions, vocab, rng := flatTestModel(t, 409)
	good, err := c.AppendFlat5(nil)
	if err != nil {
		t.Fatal(err)
	}
	ctxs := parityContexts(rng, sessions, vocab)[:20]
	ns := make([]int, len(ctxs))
	for i := range ns {
		ns[i] = 5
	}
	loaded := 0
	for trial := 0; trial < 400; trial++ {
		bad := append([]byte(nil), good...)
		for flips := 1 + rng.Intn(3); flips > 0; flips-- {
			bad[flatHeaderSize+rng.Intn(len(bad)-flatHeaderSize)] ^= byte(1 + rng.Intn(255))
		}
		restampCRC(bad)
		m, err := FromBytes(bad)
		if err != nil {
			continue
		}
		loaded++
		for _, ctx := range ctxs {
			m.Predict(ctx, 5)
			if len(ctx) > 0 {
				m.Prob(ctx, ctx[len(ctx)-1])
			}
		}
		m.PredictBatch(ctxs, ns, func(int, []model.Prediction) {})
	}
	t.Logf("%d of 400 damaged blobs passed structural validation and served", loaded)
}

// TestQuantZeroAllocs: the batched descent over a decoded model must stay
// allocation-free, like the single-context path (TestFlat5ZeroAllocs).
func TestQuantZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts are meaningless")
	}
	c, sessions, vocab, rng := flatTestModel(t, 421)
	q := mustCompact(t, c)
	ctxs := parityContexts(rng, sessions, vocab)[:64]
	ns := make([]int, len(ctxs))
	for i := range ns {
		ns[i] = 5
	}
	sink := 0
	emit := func(i int, preds []model.Prediction) { sink += len(preds) }
	q.PredictBatch(ctxs, ns, emit) // warm the pool to steady state
	allocs := testing.AllocsPerRun(100, func() {
		q.PredictBatch(ctxs, ns, emit)
	})
	if allocs > 0.05 {
		t.Fatalf("steady-state decoded batch predict allocates %.2f times per op, want 0 (sink %d)", allocs, sink)
	}
}
