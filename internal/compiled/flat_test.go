package compiled

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/markov"
	"repro/internal/query"
	"repro/internal/store"
)

func flatTestModel(t testing.TB, seed int64) (*Model, []query.Session, int, *rand.Rand) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	vocab := 25 + rng.Intn(30)
	sessions := randomCorpus(rng, vocab, 500+rng.Intn(600))
	m := markov.NewMVMMFromEpsilons(sessions, []float64{0.0, 0.02, 0.08}, vocab,
		markov.MVMMOptions{TrainSample: 120, NewtonIters: 5})
	c, err := Compile(m)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return c, sessions, vocab, rng
}

// restampCRC rewrites a CPS5 blob's CRC over its payload, so a deliberately
// corrupted blob reaches the decoder's structural validation.
func restampCRC(blob []byte) {
	if len(blob) >= flatHeaderSize {
		binary.LittleEndian.PutUint32(blob[48:], crc32.ChecksumIEEE(blob[flatHeaderSize:]))
	}
}

// assertBitIdentical checks two compiled models agree bit-for-bit on
// predictions and probabilities across the given contexts.
func assertBitIdentical(t *testing.T, label string, want, got *Model, ctxs []query.Seq, vocab int, rng *rand.Rand) {
	t.Helper()
	if want.Nodes() != got.Nodes() || want.Followers() != got.Followers() ||
		want.Depth() != got.Depth() || want.Components() != got.Components() || want.Vocab() != got.Vocab() {
		t.Fatalf("%s: shape differs: nodes %d/%d followers %d/%d", label,
			want.Nodes(), got.Nodes(), want.Followers(), got.Followers())
	}
	for _, ctx := range ctxs {
		a, b := want.Predict(ctx, 5), got.Predict(ctx, 5)
		if len(a) != len(b) {
			t.Fatalf("%s: ctx %v: %d vs %d predictions", label, ctx, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: ctx %v rank %d: %v vs %v", label, ctx, i, a[i], b[i])
			}
		}
		q := query.ID(rng.Intn(vocab + 2))
		if pa, pb := want.Prob(ctx, q), got.Prob(ctx, q); pa != pb {
			t.Fatalf("%s: ctx %v q=%d: prob %v vs %v", label, ctx, q, pa, pb)
		}
	}
}

// TestFlatRoundTrip: decoding a CPS5 blob must restore Compile's arrays —
// the trie, counts and both follower orders exactly, floors to float32 and
// every probability within half its node's quantisation step.
func TestFlatRoundTrip(t *testing.T) {
	for seed := int64(31); seed <= 33; seed++ {
		c, _, _, _ := flatTestModel(t, seed)
		m := mustCompact(t, c)
		if m.k != c.k || m.vocab != c.vocab || m.depth != c.depth || m.nodes != c.nodes ||
			!slices.Equal(m.sigma, c.sigma) || !slices.Equal(m.maxLen, c.maxLen) {
			t.Fatalf("seed %d: header fields differ", seed)
		}
		for name, eq := range map[string]bool{
			"childStart":  slices.Equal(m.childStart, c.childStart),
			"childKey":    slices.Equal(m.childKey, c.childKey),
			"evidence":    slices.Equal(m.evidence, c.evidence),
			"occ":         slices.Equal(m.occ, c.occ),
			"startOcc":    slices.Equal(m.startOcc, c.startOcc),
			"folStart":    slices.Equal(m.folStart, c.folStart),
			"folIDSorted": slices.Equal(m.folIDSorted, c.folIDSorted),
			"folIDRanked": slices.Equal(m.folIDRanked, c.folIDRanked),
		} {
			if !eq {
				t.Fatalf("seed %d: decoded %s differs from Compile's", seed, name)
			}
		}
		for v := 0; v < c.nodes; v++ {
			if m.floor[v] != float64(float32(c.floor[v])) {
				t.Fatalf("seed %d node %d: floor %v, want float32(%v)", seed, v, m.floor[v], c.floor[v])
			}
			lo, hi := c.folStart[v], c.folStart[v+1]
			if lo == hi {
				continue
			}
			halfStep := slices.Max(c.folPSorted[lo:hi]) / quantSteps / 2 * (1 + 1e-6)
			for j := lo; j < hi; j++ {
				if d := math.Abs(m.folPSorted[j] - c.folPSorted[j]); d > halfStep {
					t.Fatalf("seed %d node %d: probability off by %g (> half step %g)", seed, v, d, halfStep)
				}
			}
		}
	}
}

// TestFlatRejectsCorruption is the structural-validation table: each case
// damages one field of a valid blob and re-stamps the CRC, so only the
// decoder's own checks stand between the damage and serving.
func TestFlatRejectsCorruption(t *testing.T) {
	c, _, _, _ := flatTestModel(t, 57)
	good, err := c.AppendFlat5(nil)
	if err != nil {
		t.Fatal(err)
	}
	le := binary.LittleEndian
	region := func(b []byte, i int) []byte { // array i onwards
		return b[le.Uint64(b[flatHeaderSize+16*i:]):]
	}
	lastKeyByte := func(b []byte) *byte { // the child-key region's final byte
		i := flatHeaderSize + 16*f5ChildKeyV
		return &b[le.Uint64(b[i:])+le.Uint64(b[i+8:])-1]
	}
	cases := map[string]func(b []byte){
		"version":          func(b []byte) { le.PutUint32(b[4:], 2) },
		"zero components":  func(b []byte) { le.PutUint32(b[16:], 0) },
		"too many comps":   func(b []byte) { le.PutUint32(b[16:], maxComponents+1) },
		"zero vocab":       func(b []byte) { le.PutUint32(b[20:], 0) },
		"depth":            func(b []byte) { le.PutUint32(b[24:], le.Uint32(b[24:])+1) },
		"huge depth":       func(b []byte) { le.PutUint32(b[24:], math.MaxUint32) },
		"node count":       func(b []byte) { le.PutUint32(b[28:], le.Uint32(b[28:])+1) },
		"edge count":       func(b []byte) { le.PutUint64(b[32:], le.Uint64(b[32:])+1) },
		"follower count":   func(b []byte) { le.PutUint64(b[40:], le.Uint64(b[40:])+1) },
		"huge followers":   func(b []byte) { le.PutUint64(b[40:], 1<<40) },
		"evidence width":   func(b []byte) { b[52] = 4 },
		"occurrence width": func(b []byte) { b[53] = 2 },
		"reserved byte":    func(b []byte) { b[60] = 1 },
		"misaligned array": func(b []byte) {
			le.PutUint64(b[flatHeaderSize+16*f5Floor:], le.Uint64(b[flatHeaderSize+16*f5Floor:])+4)
		},
		"array escapes blob": func(b []byte) { le.PutUint64(b[flatHeaderSize+16*f5FolIDV+8:], uint64(len(b))) },
		"array count":        func(b []byte) { le.PutUint64(b[flatHeaderSize+16*f5Step+8:], 1) },
		"sigma not finite":   func(b []byte) { le.PutUint64(region(b, f5Sigma), math.Float64bits(math.Inf(1))) },
		"window bound":       func(b []byte) { le.PutUint64(region(b, f5MaxLen), 1<<40) },
		"child count":        func(b []byte) { region(b, f5ChildCntV)[0]++ },
		"child key order":    func(b []byte) { region(b, f5ChildKeyV)[1] = 0 },
		"child key varint":   func(b []byte) { *lastKeyByte(b) |= 0x80 },
		"follower count cut": func(b []byte) { region(b, f5FolCntV)[1]++ },
		"follower extent":    func(b []byte) { region(b, f5FolLenV)[1]++ },
		"follower ID order":  func(b []byte) { region(b, f5FolIDV)[1] = 0 },
		"evidence bits":      func(b []byte) { le.PutUint16(region(b, f5Evidence)[2:], 1<<15) },
		"rank index":         func(b []byte) { le.PutUint16(region(b, f5FolRank), math.MaxUint16) },
	}
	for name, damage := range cases {
		bad := append([]byte(nil), good...)
		damage(bad)
		restampCRC(bad)
		_, err := FromBytes(bad)
		if !errors.Is(err, store.ErrCorrupt) {
			t.Errorf("%s: err = %v, want store.ErrCorrupt", name, err)
		}
	}
	if _, err := FromBytes(good); err != nil {
		t.Fatalf("the undamaged blob fails: %v", err)
	}
}

// fuzzSeeds adds the decoder's seed corpus: valid blobs with narrow and wide
// array widths, truncations and a nonsense header.
func fuzzSeeds(f *testing.F) {
	c, _, _, _ := flatTestModel(f, 71)
	good, err := c.AppendFlat5(nil)
	if err != nil {
		f.Fatal(err)
	}
	wide, err := wideTestModel(f).AppendFlat5(nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add([]byte("CPS5 but nonsense"))
	f.Add(wide)
	f.Add(wide[:len(wide)/2])
	f.Add(wide[:compactArraysStart])
}

// FuzzFromBytes drives FromBytes with arbitrary bytes: any input must either
// decode or error — never panic.
func FuzzFromBytes(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		if m, err := FromBytes(data); err == nil {
			m.Predict(query.Seq{1, 2}, 5)
		}
	})
}
