package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/markov"
	"repro/internal/query"
)

// quantScoreTol is the asserted ceiling on V005 score drift: the CPS5
// format bounds the absolute probability error by the per-node
// quantisation step (≤ 1/65535), and mixture weights multiply to ≤ 1.
const quantScoreTol = 2e-5

func assertSameRecommendations(t *testing.T, label string, a, b *Engine) {
	t.Helper()
	for _, ctx := range [][]string{
		{"nokia n73"}, {"kidney stones"},
		{"nokia n73", "nokia n73 themes"}, {"unknown", "nokia n73"},
	} {
		x, y := Recommend(a, ctx, 5), Recommend(b, ctx, 5)
		if len(x) != len(y) {
			t.Fatalf("%s: ctx %v: %d vs %d suggestions", label, ctx, len(x), len(y))
		}
		for i := range x {
			if x[i] != y[i] {
				t.Fatalf("%s: ctx %v rank %d: %+v vs %+v", label, ctx, i, x[i], y[i])
			}
		}
	}
}

// assertCloseRecommendations compares two recommenders under the quantised
// contract: identical suggestion IDs in identical order (the test contexts
// have well-separated scores, so bounded error cannot reorder them) with
// scores within quantScoreTol.
func assertCloseRecommendations(t *testing.T, label string, exact, quant *Engine) {
	t.Helper()
	for _, ctx := range [][]string{
		{"nokia n73"}, {"kidney stones"},
		{"nokia n73", "nokia n73 themes"}, {"unknown", "nokia n73"},
	} {
		x, y := Recommend(exact, ctx, 5), Recommend(quant, ctx, 5)
		if len(x) != len(y) {
			t.Fatalf("%s: ctx %v: %d vs %d suggestions", label, ctx, len(x), len(y))
		}
		for i := range x {
			if x[i].Query != y[i].Query {
				t.Fatalf("%s: ctx %v rank %d: %q vs %q", label, ctx, i, x[i].Query, y[i].Query)
			}
			if diff := math.Abs(x[i].Score - y[i].Score); diff > quantScoreTol {
				t.Fatalf("%s: ctx %v rank %d: score drift %g > %g", label, ctx, i, diff, quantScoreTol)
			}
		}
	}
}

// saveBytes returns rec's QRECV005 file.
func saveBytes(t *testing.T, rec *Engine) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := rec.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// sectionsEnd returns the offset just past a file's dictionary and mixture
// sections, where the compiled framing begins.
func sectionsEnd(file []byte) int {
	off := len(saveMagicV5)
	for range 2 {
		off += 8 + int(binary.LittleEndian.Uint64(file[off:]))
	}
	return off
}

// writeLegacy hand-builds a container of the given version around a V005
// file's dictionary and mixture sections, with compiled as its compiled
// section in that version's framing (V001 has none).
func writeLegacy(v5 []byte, version string, compiled []byte) []byte {
	out := append([]byte(version), v5[len(version):sectionsEnd(v5)]...)
	switch version {
	case saveMagicV1:
		return out
	case saveMagicV2:
		out = binary.LittleEndian.AppendUint64(out, uint64(len(compiled)))
	default: // V003–V005: (pad length, pad, blob length, blob)
		out = binary.LittleEndian.AppendUint64(out, 5)
		out = append(out, "\xde\xad\xbe\xef\x00"...)
		out = binary.LittleEndian.AppendUint64(out, uint64(len(compiled)))
	}
	return append(out, compiled...)
}

// TestSaveWritesV5AndLoadRestores: Save writes V005 (the CPS5 compiled
// section) and the reader-based Load restores it within the bounded-error
// contract.
func TestSaveWritesV5AndLoadRestores(t *testing.T) {
	rec, err := TrainFromLog(strings.NewReader(buildLog(t)), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	file := saveBytes(t, rec)
	if got := string(file[:len(saveMagicV5)]); got != saveMagicV5 {
		t.Fatalf("header = %q, want %q", got, saveMagicV5)
	}
	loaded, err := Load(bytes.NewReader(file))
	if err != nil {
		t.Fatal(err)
	}
	cm := loaded.CompiledModel()
	if cm == nil || !cm.Quantised() {
		t.Fatalf("V005 load did not restore a quantised compiled model (%v)", cm)
	}
	if li := loaded.LoadInfo(); li.Mode != LoadModeHeap || li.Version != saveMagicV5 ||
		li.Format != "CPS5" || li.BlobBytes <= 0 {
		t.Fatalf("LoadInfo = %+v", li)
	}
	assertCloseRecommendations(t, "stream", rec, loaded)
	// A loaded model re-saves to the byte-identical file.
	if again := saveBytes(t, loaded); !bytes.Equal(file, again) {
		t.Fatal("re-saving a loaded model changed the file")
	}
}

// TestLoadPathV5: LoadPath on a V005 file decodes the CPS5 blob it reports,
// serves within the quantisation bound, and still exposes the mixture
// lazily.
func TestLoadPathV5(t *testing.T) {
	rec, err := TrainFromLog(strings.NewReader(buildLog(t)), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.bin")
	if err := os.WriteFile(path, saveBytes(t, rec), 0o644); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadPath(path)
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	li := loaded.LoadInfo()
	if li.Mode != LoadModeHeap || li.Version != saveMagicV5 || li.Format != "CPS5" ||
		li.BlobBytes <= 0 || li.Duration <= 0 {
		t.Fatalf("LoadInfo = %+v, want a CPS5 heap load", li)
	}
	if cm := loaded.CompiledModel(); cm == nil || !cm.Quantised() {
		t.Fatal("V005 LoadPath did not produce a quantised compiled model")
	}
	assertCloseRecommendations(t, "LoadPath", rec, loaded)
	if loaded.Model() == nil || len(loaded.Model().Components()) != len(rec.Model().Components()) {
		t.Fatal("lazy mixture load failed")
	}
}

// TestLoadPathFallsBackForOldVersions: hand-built V001–V004 containers —
// a V005 file's dictionary and mixture sections, garbage in the compiled
// section — and V005 files whose compiled section is empty or holds a
// retired encoding load through Load and LoadPath by compiling the mixture,
// answering exactly as Compile does.
func TestLoadPathFallsBackForOldVersions(t *testing.T) {
	rec, err := TrainFromLog(strings.NewReader(buildLog(t)), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	v5 := saveBytes(t, rec)
	garbage := []byte("CPS9 not a compiled blob, whatever its version once held")
	files := map[string][]byte{
		"V001":         writeLegacy(v5, saveMagicV1, nil),
		"V002":         writeLegacy(v5, saveMagicV2, garbage),
		"V003":         writeLegacy(v5, saveMagicV3, garbage),
		"V004":         writeLegacy(v5, saveMagicV4, garbage),
		"V005 empty":   writeLegacy(v5, saveMagicV5, nil),
		"V005 in CPS3": writeLegacy(v5, saveMagicV5, []byte("CPS3 retired exact layout")),
		"V005 in CPS4": writeLegacy(v5, saveMagicV5, []byte("CPS4 retired quantised layout")),
	}
	dir := t.TempDir()
	for name, file := range files {
		path := filepath.Join(dir, strings.ReplaceAll(name, " ", "_"))
		if err := os.WriteFile(path, file, 0o644); err != nil {
			t.Fatal(err)
		}
		byStream, err := Load(bytes.NewReader(file))
		if err != nil {
			t.Fatalf("%s: Load: %v", name, err)
		}
		byPath, err := LoadPath(path)
		if err != nil {
			t.Fatalf("%s: LoadPath: %v", name, err)
		}
		for how, loaded := range map[string]*Engine{"Load": byStream, "LoadPath": byPath} {
			li := loaded.LoadInfo()
			if li.Mode != LoadModeHeap || li.Version != string(file[:len(saveMagicV5)]) || li.Format != "" {
				t.Fatalf("%s %s: LoadInfo = %+v", name, how, li)
			}
			if cm := loaded.CompiledModel(); cm == nil || cm.Quantised() {
				t.Fatalf("%s %s: the mixture was not compiled", name, how)
			}
			assertSameRecommendations(t, name+" "+how, rec, loaded)
		}
	}
}

// TestLoadRejectsTruncatedFlat: cutting a V005 file anywhere in the
// compiled section must fail loudly on both load paths, never panic.
func TestLoadRejectsTruncatedFlat(t *testing.T) {
	rec, err := TrainFromLog(strings.NewReader(buildLog(t)), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	good := saveBytes(t, rec)
	dir := t.TempDir()
	for i, n := range []int{len(good) - 1, len(good) - 4097, len(good) - len(good)/4} {
		if n <= len(saveMagicV5) {
			continue
		}
		if _, err := Load(bytes.NewReader(good[:n])); err == nil {
			t.Fatalf("stream load of %d/%d bytes went undetected", n, len(good))
		}
		path := filepath.Join(dir, "trunc"+string(rune('a'+i))+".bin")
		if err := os.WriteFile(path, good[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadPath(path); err == nil {
			t.Fatalf("path load of %d/%d bytes went undetected", n, len(good))
		}
	}
}

// TestLoadRejectsLyingBlobLength: a stream whose compiled-section header
// claims a 512 GiB blob must fail at EOF without allocating the claim.
func TestLoadRejectsLyingBlobLength(t *testing.T) {
	rec, err := TrainFromLog(strings.NewReader(buildLog(t)), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	good := saveBytes(t, rec)
	end := sectionsEnd(good)
	pad := int(binary.LittleEndian.Uint64(good[end:]))
	lying := append([]byte(nil), good[:end+16+pad]...)
	binary.LittleEndian.PutUint64(lying[end+8+pad:], 1<<39)
	lying = append(lying, good[end+16+pad:]...) // the real blob, far short of the claim

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = Load(bytes.NewReader(lying))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a 1<<39-byte compiled-section claim loaded")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<20 {
		t.Fatalf("rejecting the claim allocated %d bytes", grew)
	}
}

// TestSaveRefusedModelWritesEmptySection: a model CPS5 cannot encode (a
// node with more than 65,535 followers) saves an empty compiled section and
// reloads serving the recompiled mixture through both load paths.
func TestSaveRefusedModelWritesEmptySection(t *testing.T) {
	const followers = 65536 + 8
	dict := query.NewDict()
	head := dict.Intern("head")
	var agg []query.Session
	for j := 0; j < followers; j++ {
		agg = append(agg, query.Session{Queries: query.Seq{head, dict.Intern(fmt.Sprintf("f%d", j))}, Count: 1})
	}
	query.SortSessions(agg)
	cfg := DefaultConfig()
	cfg.Epsilons = []float64{0}
	cfg.Mixture = markov.MVMMOptions{TrainSample: 20, NewtonIters: 2}
	rec := TrainFromAggregated(dict, agg, cfg)
	if rec.CompiledModel() == nil {
		t.Fatal("training did not compile")
	}
	file := saveBytes(t, rec)
	end := sectionsEnd(file)
	pad := int(binary.LittleEndian.Uint64(file[end:]))
	if n := binary.LittleEndian.Uint64(file[end+8+pad:]); n != 0 || len(file) != end+16+pad {
		t.Fatalf("compiled section holds %d bytes, want an empty section", n)
	}
	path := filepath.Join(t.TempDir(), "wide.bin")
	if err := os.WriteFile(path, file, 0o644); err != nil {
		t.Fatal(err)
	}
	byStream, err := Load(bytes.NewReader(file))
	if err != nil {
		t.Fatal(err)
	}
	byPath, err := LoadPath(path)
	if err != nil {
		t.Fatal(err)
	}
	want := Recommend(rec, []string{"head"}, 5)
	if len(want) != 5 {
		t.Fatalf("trained model suggests %v", want)
	}
	for how, loaded := range map[string]*Engine{"Load": byStream, "LoadPath": byPath} {
		if cm := loaded.CompiledModel(); cm == nil || cm.Quantised() {
			t.Fatalf("%s: the mixture was not recompiled", how)
		}
		got := Recommend(loaded, []string{"head"}, 5)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s: suggests %v, want %v", how, got, want)
		}
	}
}

// TestRecommendBatchIDsMatchesSingle: the batched core API must agree with
// per-context RecommendIDs, including nil results for uncovered contexts.
func TestRecommendBatchIDsMatchesSingle(t *testing.T) {
	rec, err := TrainFromLog(strings.NewReader(buildLog(t)), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctxs := []query.Seq{
		InternContext(rec.Dict(), []string{"nokia n73"}),
		InternContext(rec.Dict(), []string{"kidney stones"}),
		nil, // empty context
		InternContext(rec.Dict(), []string{"nokia n73", "nokia n73 themes"}),
	}
	ns := []int{5, 3, 5, 1}
	got := rec.RecommendBatchIDs(ctxs, ns)
	if len(got) != len(ctxs) {
		t.Fatalf("batch returned %d results for %d contexts", len(got), len(ctxs))
	}
	for i := range ctxs {
		want := RecommendIDs(rec, ctxs[i], ns[i])
		if len(got[i]) != len(want) {
			t.Fatalf("ctx %d: batch %d suggestions, single %d", i, len(got[i]), len(want))
		}
		for j := range want {
			if got[i][j] != want[j] {
				t.Fatalf("ctx %d rank %d: batch %+v, single %+v", i, j, got[i][j], want[j])
			}
		}
	}
}

// TestLoadPathLazyMixturePinsInode: replacing the model file on disk after
// LoadPath must not corrupt the lazy mixture load — Model() reads through
// the retained descriptor, so it decodes the file the compiled form was
// read from, not whatever now lives at the path.
func TestLoadPathLazyMixturePinsInode(t *testing.T) {
	rec, err := TrainFromLog(strings.NewReader(buildLog(t)), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.bin")
	if err := os.WriteFile(path, saveBytes(t, rec), 0o644); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadPath(path)
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	// A deploy replaces the file (rename-over semantics: the original inode
	// stays alive for existing opens) before Model() is first called.
	tmp := path + ".new"
	if err := os.WriteFile(tmp, altModelBytes(t), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(tmp, path); err != nil {
		t.Fatal(err)
	}
	mix := loaded.Model()
	if mix == nil {
		t.Fatal("lazy mixture load failed after file replacement")
	}
	if got, want := len(mix.Components()), len(rec.Model().Components()); got != want {
		t.Fatalf("lazy mixture has %d components, want %d (read the replacement file?)", got, want)
	}
	ctx := InternContext(rec.Dict(), []string{"nokia n73"})
	if got, want := fmt.Sprint(mix.Predict(ctx, 5)), fmt.Sprint(rec.Model().Predict(ctx, 5)); got != want {
		t.Fatalf("lazy mixture predicts %s, want %s", got, want)
	}
	assertCloseRecommendations(t, "pinned", rec, loaded)
}

// altModelBytes builds a structurally different model file to rename over
// the original.
func altModelBytes(t *testing.T) []byte {
	t.Helper()
	d := query.NewDict()
	a, b := d.Intern("smtp"), d.Intern("pop3")
	var sessions []query.Seq
	for i := 0; i < 10; i++ {
		sessions = append(sessions, query.Seq{a, b})
	}
	return saveBytes(t, TrainFromSessions(d, sessions, smallConfig()))
}
