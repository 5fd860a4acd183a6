package core

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/logfmt"
	"repro/internal/query"
)

// buildLog writes a tiny raw log with two machines and repeated refinement
// sessions, repeated often enough to survive the default reduction.
func buildLog(t *testing.T) string {
	t.Helper()
	var sb strings.Builder
	w := logfmt.NewWriter(&sb)
	base := time.Date(2026, 3, 1, 8, 0, 0, 0, time.UTC)
	emit := func(machine string, start time.Time, queries ...string) {
		for i, q := range queries {
			err := w.Write(logfmt.Record{
				MachineID: machine,
				Query:     q,
				Time:      start.Add(time.Duration(i) * time.Minute),
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	// 20 repetitions across two machines, separated by > 30 min.
	for i := 0; i < 10; i++ {
		at := base.Add(time.Duration(i) * time.Hour)
		emit("m1", at, "nokia n73", "nokia n73 themes")
		emit("m2", at.Add(10*time.Minute), "nokia n73", "nokia n73 themes")
	}
	for i := 0; i < 8; i++ {
		at := base.Add(time.Duration(i)*time.Hour + 30*time.Minute)
		emit("m1", at, "kidney stones", "kidney stone symptoms")
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.Epsilons = []float64{0.0, 0.05}
	cfg.Mixture.TrainSample = 100
	cfg.Mixture.NewtonIters = 5
	return cfg
}

func TestTrainFromLogAndRecommend(t *testing.T) {
	rec, err := TrainFromLog(strings.NewReader(buildLog(t)), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	got := Recommend(rec, []string{"nokia n73"}, 5)
	if len(got) == 0 {
		t.Fatal("no recommendations")
	}
	if got[0].Query != "nokia n73 themes" {
		t.Fatalf("top recommendation = %q, want %q", got[0].Query, "nokia n73 themes")
	}
	if got[0].Score <= 0 {
		t.Fatalf("score = %v", got[0].Score)
	}
}

func TestRecommendEmptyOrUnknownContext(t *testing.T) {
	rec, err := TrainFromLog(strings.NewReader(buildLog(t)), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got := Recommend(rec, nil, 5); got != nil {
		t.Fatalf("empty context recommended %v", got)
	}
	if got := Recommend(rec, []string{"completely unknown query"}, 5); got != nil {
		t.Fatalf("unknown context recommended %v", got)
	}
}

func TestReductionThresholdDropsRareSessions(t *testing.T) {
	cfg := smallConfig()
	cfg.ReductionThreshold = 100 // everything is rare at this threshold
	rec, err := TrainFromLog(strings.NewReader(buildLog(t)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := Recommend(rec, []string{"nokia n73"}, 5); got != nil {
		t.Fatalf("recommendations survived full reduction: %v", got)
	}
	if rec.Stats().Sessions != 0 {
		t.Fatalf("stats sessions = %d after full reduction", rec.Stats().Sessions)
	}
}

func TestProbability(t *testing.T) {
	rec, err := TrainFromLog(strings.NewReader(buildLog(t)), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	p := rec.Probability([]string{"nokia n73"}, "nokia n73 themes")
	if p <= 0.5 {
		t.Fatalf("P(themes | n73) = %v, want dominant", p)
	}
	if q := rec.Probability([]string{"nokia n73"}, "never seen"); q != 0 {
		t.Fatalf("unknown target probability = %v", q)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	rec, err := TrainFromLog(strings.NewReader(buildLog(t)), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rec.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	a := Recommend(rec, []string{"kidney stones"}, 3)
	b := Recommend(loaded, []string{"kidney stones"}, 3)
	if len(a) != len(b) {
		t.Fatalf("recommendation counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Query != b[i].Query {
			t.Fatalf("recommendation %d differs: %q vs %q", i, a[i].Query, b[i].Query)
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(strings.NewReader("this is not a model file")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := Load(strings.NewReader("")); err == nil {
		t.Fatal("empty stream accepted")
	}
}

func TestTrainFromSessionsDirect(t *testing.T) {
	d := query.NewDict()
	a, b := d.Intern("smtp"), d.Intern("pop3")
	var sessions []query.Seq
	for i := 0; i < 10; i++ {
		sessions = append(sessions, query.Seq{a, b})
	}
	rec := TrainFromSessions(d, sessions, smallConfig())
	got := Recommend(rec, []string{"smtp"}, 1)
	if len(got) != 1 || got[0].Query != "pop3" {
		t.Fatalf("Recommend = %v", got)
	}
	if rec.Stats().Sessions != 10 {
		t.Fatalf("Sessions = %d, want 10", rec.Stats().Sessions)
	}
	if rec.Dict() != d {
		t.Fatal("Dict accessor broken")
	}
	if rec.Model() == nil {
		t.Fatal("Model accessor broken")
	}
}

func TestInternAndRecommendIDsEquivalence(t *testing.T) {
	rec, err := TrainFromLog(strings.NewReader(buildLog(t)), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	context := []string{"unknown filler", "nokia n73"}
	ctx := InternContext(rec.Dict(), context)
	if len(ctx) != 1 {
		t.Fatalf("InternContext kept %d IDs, want 1 (unknowns dropped)", len(ctx))
	}
	if got := AppendContext(rec.Dict(), nil, context); !got.Equal(ctx) {
		t.Fatalf("AppendContext = %v, InternContext = %v", got, ctx)
	}
	// Appending into a pre-sized buffer must reuse it.
	buf := make(query.Seq, 0, 8)
	if got := AppendContext(rec.Dict(), buf, context); &got[0] != &buf[:1][0] {
		t.Fatal("AppendContext reallocated despite spare capacity")
	}
	want := Recommend(rec, context, 5)
	got := RecommendIDs(rec, ctx, 5)
	if len(want) == 0 || len(got) != len(want) {
		t.Fatalf("RecommendIDs returned %d suggestions, Recommend %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("suggestion %d: RecommendIDs %+v vs Recommend %+v", i, got[i], want[i])
		}
	}
	if got := RecommendIDs(rec, nil, 5); got != nil {
		t.Fatalf("empty interned context recommended %v", got)
	}
}

// writeV1 emits the legacy QRECV001 layout (dictionary + mixture, no
// compiled section) — the format every pre-V002 model file on disk uses.
func writeV1(t *testing.T, rec *Engine) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := buf.WriteString(saveMagicV1); err != nil {
		t.Fatal(err)
	}
	if err := writeSection(&buf, "dictionary", rec.Dict()); err != nil {
		t.Fatal(err)
	}
	if err := writeSection(&buf, "model", rec.Model()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestLoadV1BackCompat(t *testing.T) {
	rec, err := TrainFromLog(strings.NewReader(buildLog(t)), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(bytes.NewReader(writeV1(t, rec)))
	if err != nil {
		t.Fatalf("loading V001 file: %v", err)
	}
	if loaded.CompiledModel() == nil {
		t.Fatal("V001 load did not compile the mixture")
	}
	for _, ctxs := range [][]string{{"nokia n73"}, {"kidney stones"}} {
		a, b := Recommend(rec, ctxs, 5), Recommend(loaded, ctxs, 5)
		if len(a) == 0 || len(a) != len(b) {
			t.Fatalf("ctx %v: %d vs %d suggestions", ctxs, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("ctx %v rank %d: %+v vs %+v", ctxs, i, a[i], b[i])
			}
		}
	}
	p := loaded.Probability([]string{"nokia n73"}, "nokia n73 themes")
	if p <= 0.5 {
		t.Fatalf("V001-loaded P(themes | n73) = %v, want dominant", p)
	}
}

func TestCompiledMatchesInterpretedThroughCore(t *testing.T) {
	rec, err := TrainFromLog(strings.NewReader(buildLog(t)), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if rec.CompiledModel() == nil {
		t.Fatal("no compiled model")
	}
	// Force the interpreted path on a clone sharing dict and mixture.
	interp := &Engine{dict: rec.dict, mix: rec.mix, stats: rec.stats, cfg: rec.cfg}
	for _, ctxs := range [][]string{
		{"nokia n73"}, {"kidney stones"},
		{"nokia n73", "nokia n73 themes"}, {"unknown", "nokia n73"},
	} {
		a, b := Recommend(rec, ctxs, 5), Recommend(interp, ctxs, 5)
		if len(a) != len(b) {
			t.Fatalf("ctx %v: compiled %d vs interpreted %d suggestions (%v vs %v)", ctxs, len(a), len(b), a, b)
		}
		for i := range a {
			if a[i].Query != b[i].Query {
				t.Fatalf("ctx %v rank %d: compiled %q vs interpreted %q", ctxs, i, a[i].Query, b[i].Query)
			}
		}
	}
}

func TestAppendSuggestionsReusesBuffer(t *testing.T) {
	rec, err := TrainFromLog(strings.NewReader(buildLog(t)), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctx := InternContext(rec.Dict(), []string{"nokia n73"})
	want := RecommendIDs(rec, ctx, 5)
	if len(want) == 0 {
		t.Fatal("no suggestions")
	}
	buf := make([]Suggestion, 0, 8)
	got := rec.AppendSuggestions(buf[:0], ctx, 5)
	if len(got) != len(want) {
		t.Fatalf("AppendSuggestions returned %d, RecommendIDs %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("suggestion %d: %+v vs %+v", i, got[i], want[i])
		}
	}
	if &got[0] != &buf[:1][0] {
		t.Fatal("AppendSuggestions reallocated despite spare capacity")
	}
}

func TestRecommendConcurrentReaders(t *testing.T) {
	rec, err := TrainFromLog(strings.NewReader(buildLog(t)), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	want := Recommend(rec, []string{"nokia n73"}, 5)
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				got := Recommend(rec, []string{"nokia n73"}, 5)
				if len(got) != len(want) || got[0].Query != want[0].Query {
					panic("concurrent recommendation diverged")
				}
			}
		}()
	}
	wg.Wait()
}
