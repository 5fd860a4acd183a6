package compiled

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"repro/internal/model"
	"repro/internal/query"
	"repro/internal/store"
)

// TestFlat5ParityVsExact pins the end-to-end error contract against the
// float64 model: probabilities within quantTol, rank inversions only at
// near-ties.
func TestFlat5ParityVsExact(t *testing.T) {
	for seed := int64(511); seed <= 513; seed++ {
		c, sessions, vocab, rng := flatTestModel(t, seed)
		ctxs := parityContexts(rng, sessions, vocab)
		assertQuantParity(t, c, mustCompact(t, c), ctxs, vocab, rng)
	}
}

// TestFlat5RoundTripStable: a decoded model re-encodes to the byte-identical
// blob, and the model decoded from that re-encoding serves bit-identically
// to the first — nothing drifts across save/load generations.
func TestFlat5RoundTripStable(t *testing.T) {
	c, sessions, vocab, rng := flatTestModel(t, 531)
	blob, err := c.AppendFlat5(nil)
	if err != nil {
		t.Fatal(err)
	}
	first, err := FromBytes(blob)
	if err != nil {
		t.Fatal(err)
	}
	again, err := first.AppendFlat5(nil)
	if err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	if !bytes.Equal(blob, again) {
		t.Fatalf("CPS5 re-encode is not byte-identical (%d vs %d bytes)", len(blob), len(again))
	}
	second, err := FromBytes(again)
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, "generation 2", first, second, parityContexts(rng, sessions, vocab), vocab, rng)
}

// TestFlat5SizeReduction: delta+varint edges must undercut the same blob
// with fixed-width uint32 follower IDs, child keys and CSR offsets on every
// seeded corpus.
func TestFlat5SizeReduction(t *testing.T) {
	for _, seed := range []int64{541, 547, 557} {
		c, _, _, _ := flatTestModel(t, seed)
		blob, err := c.AppendFlat5(nil)
		if err != nil {
			t.Fatal(err)
		}
		varint := 0
		for i := f5ChildCntV; i <= f5FolIDV; i++ {
			varint += int(binary.LittleEndian.Uint64(blob[flatHeaderSize+16*i+8:]))
		}
		fixed := len(blob) - varint + 4*(len(c.folIDSorted)+len(c.childKey)+len(c.childStart)+len(c.folStart))
		if len(blob) >= fixed {
			t.Fatalf("seed %d: CPS5 %d bytes >= fixed-width %d bytes", seed, len(blob), fixed)
		}
		t.Logf("seed %d: cps5/fixed-width = %.3f (%d / %d bytes)", seed, float64(len(blob))/float64(fixed), len(blob), fixed)
	}
}

// TestFlat5Probs8Refusal: the retired uint8 probability tier is refused as
// corrupt — a blob declaring one-byte probabilities no longer decodes.
func TestFlat5Probs8Refusal(t *testing.T) {
	c, _, _, _ := flatTestModel(t, 561)
	blob, err := c.AppendFlat5(nil)
	if err != nil {
		t.Fatal(err)
	}
	blob[54] = 1
	restampCRC(blob)
	if _, err := FromBytes(blob); !errors.Is(err, store.ErrCorrupt) {
		t.Fatalf("uint8-tier blob: err = %v, want store.ErrCorrupt", err)
	}
}

// TestFlat5BatchParity: batched descent over a decoded model must match
// per-context Predict calls bit for bit, with exactly one emit per index.
func TestFlat5BatchParity(t *testing.T) {
	c, sessions, vocab, rng := flatTestModel(t, 577)
	assertBatchParity(t, mustCompact(t, c), parityContexts(rng, sessions, vocab), rng)
}

// TestFlat5RejectsCorruption: truncations fail, and random byte flips fail —
// the CRC covers the payload and the decoder validates the header fields.
func TestFlat5RejectsCorruption(t *testing.T) {
	c, _, _, rng := flatTestModel(t, 587)
	good, err := c.AppendFlat5(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 3, flatHeaderSize - 1, compactArraysStart - 1, len(good) / 3, len(good) - 1} {
		if _, err := FromBytes(good[:n]); err == nil {
			t.Fatalf("truncation to %d bytes went undetected", n)
		}
	}
	for trial := 0; trial < 200; trial++ {
		bad := append([]byte(nil), good...)
		bad[rng.Intn(len(bad))] ^= byte(1 + rng.Intn(255))
		if _, err := FromBytes(bad); err == nil {
			t.Fatalf("trial %d: corrupted blob decoded", trial)
		}
	}
}

// FuzzFlat5Decode: arbitrary bytes, with their CRC re-stamped so they reach
// structural validation, must error or serve — never panic — and a model
// that decodes must re-encode to a blob that decodes again.
func FuzzFlat5Decode(f *testing.F) {
	c, _, _, _ := flatTestModel(f, 593)
	good, err := c.AppendFlat5(nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add(good[:compactArraysStart+7])
	f.Add([]byte("CPS5 but nonsense"))
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		data = append([]byte(nil), data...)
		restampCRC(data)
		m, err := FromBytes(data)
		if err != nil {
			return
		}
		m.Predict(query.Seq{1, 2}, 5)
		m.Prob(query.Seq{2}, 1)
		m.PredictBatch([]query.Seq{{1}, {2, 1}, {1}}, []int{3, 5, 3}, func(int, []model.Prediction) {})
		if blob, err := m.AppendFlat5(nil); err == nil {
			if _, err := FromBytes(blob); err != nil {
				t.Fatalf("re-encoded model does not decode: %v", err)
			}
		}
	})
}

// TestFlat5ZeroAllocs: steady-state prediction on a decoded model must stay
// allocation-free.
func TestFlat5ZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts are meaningless")
	}
	c, sessions, vocab, rng := flatTestModel(t, 599)
	q5 := mustCompact(t, c)
	ctxs := parityContexts(rng, sessions, vocab)
	buf := make([]model.Prediction, 0, 32)
	for _, ctx := range ctxs {
		buf = q5.AppendPredictions(buf[:0], ctx, 5)
	}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		ctx := ctxs[i%len(ctxs)]
		buf = q5.AppendPredictions(buf[:0], ctx, 5)
		if len(ctx) > 0 {
			_ = q5.Prob(ctx, ctx[len(ctx)-1])
		}
		i++
	})
	if allocs > 0.05 {
		t.Fatalf("steady-state CPS5 predict allocates %.2f times per op, want 0", allocs)
	}
}
