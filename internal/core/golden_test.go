package core

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/markov"
	"repro/internal/model"
	"repro/internal/query"
)

// goldenFile holds the top-5 answers a QRECV005 file of the benchmark model
// served when CPS5 decoded follower IDs and dequantised probabilities per
// request. Its header pins the SHA-256 of that file; the remaining lines are
// "context IDs<TAB>queryID:float64-score-bits ...", one per context.
const goldenFile = "testdata/bench_v005_golden.txt"

// readGolden parses goldenFile into the pinned file hash, the contexts and
// the rendered answer line of each context.
func readGolden(t *testing.T) (sum string, ctxs []query.Seq, want []string) {
	t.Helper()
	data, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "# QRECV005 bench model: sha256 "); ok {
			sum, _, _ = strings.Cut(rest, ",")
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		ids, answers, ok := strings.Cut(line, "\t")
		if !ok {
			t.Fatalf("malformed golden line %q", line)
		}
		var ctx query.Seq
		for _, f := range strings.Fields(ids) {
			id, err := strconv.ParseUint(f, 10, 32)
			if err != nil {
				t.Fatalf("golden context %q: %v", ids, err)
			}
			ctx = append(ctx, query.ID(id))
		}
		ctxs = append(ctxs, ctx)
		want = append(want, answers)
	}
	if sum == "" || len(ctxs) < 500 {
		t.Fatalf("golden file holds hash %q and %d contexts", sum, len(ctxs))
	}
	return sum, ctxs, want
}

// renderAnswers formats predictions the way goldenFile stores them.
func renderAnswers(preds []model.Prediction) string {
	var b strings.Builder
	for i, p := range preds {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d:%016x", p.Query, math.Float64bits(p.Score))
	}
	return b.String()
}

// TestGoldenBenchAnswers rebuilds the benchmark model's QRECV005 file,
// checks it is byte-identical to the pinned one, and asserts that LoadPath,
// Load and the batched descent serve exactly the recorded answers: the same
// query IDs in the same order with the same float64 score bits.
func TestGoldenBenchAnswers(t *testing.T) {
	if testing.Short() {
		t.Skip("trains the benchmark model")
	}
	sum, ctxs, want := readGolden(t)

	c, err := experiments.BuildCorpus(experiments.SmallCorpusConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Epsilons = markov.DefaultEpsilons()
	cfg.Mixture.TrainSample = 500
	cfg.Mixture.NewtonIters = 10
	var file bytes.Buffer
	if err := TrainFromAggregated(c.Dict, c.TrainAgg, cfg).Save(&file); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(file.Bytes())); got != sum {
		t.Fatalf("rebuilt QRECV005 file hashes to %s, golden pins %s", got, sum)
	}
	path := filepath.Join(t.TempDir(), "bench.bin")
	if err := os.WriteFile(path, file.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	byPath, err := LoadPath(path)
	if err != nil {
		t.Fatal(err)
	}
	byStream, err := Load(bytes.NewReader(file.Bytes()))
	if err != nil {
		t.Fatal(err)
	}

	ns := make([]int, len(ctxs))
	for i := range ns {
		ns[i] = 5
	}
	for label, rec := range map[string]*Engine{"LoadPath": byPath, "Load": byStream} {
		cm := rec.CompiledModel()
		if cm == nil {
			t.Fatalf("%s: no compiled model", label)
		}
		for i, ctx := range ctxs {
			if got := renderAnswers(cm.AppendPredictions(nil, ctx, 5)); got != want[i] {
				t.Fatalf("%s: context %v serves\n  %s\nwant\n  %s", label, ctx, got, want[i])
			}
		}
		cm.PredictBatch(ctxs, ns, func(i int, preds []model.Prediction) {
			if got := renderAnswers(preds); got != want[i] {
				t.Errorf("%s PredictBatch: context %v serves\n  %s\nwant\n  %s", label, ctxs[i], got, want[i])
			}
		})
	}
}
