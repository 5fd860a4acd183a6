package predictortest

import (
	"testing"

	"repro/internal/compiled"
	"repro/internal/model"
	"repro/internal/query"
)

// batchPredictor is the optional batched entry point some families expose
// (the compiled MVMM trie). emit is invoked exactly once per context index;
// preds is only valid for the duration of the call.
type batchPredictor interface {
	PredictBatch(ctxs []query.Seq, ns []int, emit func(i int, preds []model.Prediction))
}

// checkBatch verifies batched prediction against the one-context-at-a-time
// baseline. Every family runs the replay check (a second sequential pass
// over a batch-shaped workload matches the first); families exposing
// PredictBatch must additionally emit exactly once per index with answers
// bit-identical to PredictInto.
func checkBatch(t *testing.T, p compiled.Predictor, ctxs []query.Seq) {
	t.Helper()
	// A batch with repeated contexts (the dedup path) and varied n.
	var bctxs []query.Seq
	var ns []int
	for len(bctxs) < 48 {
		for i, ctx := range ctxs {
			bctxs = append(bctxs, ctx)
			ns = append(ns, 1+(len(bctxs)+i)%5)
		}
	}
	want := make([][]model.Prediction, len(bctxs))
	for i, ctx := range bctxs {
		want[i] = p.PredictInto(nil, ctx, ns[i])
	}

	// Replay parity: batch-shaped sequential serving is deterministic.
	for i, ctx := range bctxs {
		again := p.PredictInto(nil, ctx, ns[i])
		assertSamePreds(t, "replay", i, again, want[i])
	}

	collect := func(run func(emit func(i int, preds []model.Prediction))) [][]model.Prediction {
		got := make([][]model.Prediction, len(bctxs))
		emitted := make([]int, len(bctxs))
		run(func(i int, preds []model.Prediction) {
			emitted[i]++
			got[i] = append([]model.Prediction(nil), preds...)
		})
		for i, n := range emitted {
			if n != 1 {
				t.Fatalf("index %d emitted %d times, want exactly once", i, n)
			}
		}
		return got
	}

	if bp, ok := p.(batchPredictor); ok {
		got := collect(func(emit func(int, []model.Prediction)) { bp.PredictBatch(bctxs, ns, emit) })
		for i := range want {
			assertSamePreds(t, "PredictBatch", i, got[i], want[i])
		}
	}
}

// assertSamePreds requires bit-identical predictions — batched serving may
// not drift from the sequential answer by even an ulp.
func assertSamePreds(t *testing.T, label string, i int, got, want []model.Prediction) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: index %d answered %d predictions, want %d", label, i, len(got), len(want))
	}
	for j := range want {
		if got[j] != want[j] {
			t.Fatalf("%s: index %d rank %d: %+v, want %+v", label, i, j, got[j], want[j])
		}
	}
}
