// Package core is the public facade of the reproduction: an end-to-end
// query recommender that consumes raw search logs (or pre-segmented
// sessions), runs the paper's data pipeline (30-minute segmentation,
// aggregation, frequency-threshold reduction), trains the MVMM mixture, and
// serves ranked next-query recommendations online.
//
// Typical usage:
//
//	rec, err := core.TrainFromLog(logFile, core.DefaultConfig())
//	suggestions := core.Recommend(rec, []string{"nokia n73", "nokia n73 themes"}, 5)
//
// Serving is expressed over the Recommender interface: Engine (the trained
// MVMM pipeline) and FromPredictor adapters over any compiled.Predictor
// (HMM, cluster, pairwise fleet arms) implement the same seam, so cache,
// fleet and serve hold a Recommender and never know which family answers.
//
// Persistence: Save writes the QRECV005 container (dictionary, interpreted
// mixture, and the CPS5 compiled blob). Load reads every version back to
// QRECV001: a V005 compiled section is decoded once into the heap, and
// V001–V004 files (whose compiled sections used retired encodings) are
// served by compiling their mixture section. LoadPath is the production
// cold-start route: for V005 files it reads and decodes only the compiled
// blob and defers the interpreted-mixture decode until first Model() use;
// LoadInfo reports the route taken, the blob encoding served and its byte
// length.
//
// Invariants: an Engine is immutable after training or loading — the
// Recommender methods are safe for unbounded concurrent callers without
// locking, and the Append* variants are allocation-free with recycled
// buffers. Serving goes through the compiled single-PST form whenever it
// exists (always, for mixtures built by this pipeline); CPS5-loaded models
// serve with a bounded ≤ ~2e-5 absolute probability error.
package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"repro/internal/compiled"
	"repro/internal/logfmt"
	"repro/internal/markov"
	"repro/internal/model"
	"repro/internal/query"
	"repro/internal/session"
)

// Config controls training.
type Config struct {
	// SessionGap is the segmentation threshold; 0 applies the paper's
	// 30-minute rule.
	SessionGap time.Duration
	// ReductionThreshold drops aggregated sessions with frequency <= this
	// value (the paper uses 5). Negative disables reduction.
	ReductionThreshold int
	// Epsilons lists the mixture's VMM growth thresholds; nil uses the
	// paper's eleven values {0.0, 0.01, ..., 0.1}.
	Epsilons []float64
	// Mixture tunes σ learning and parallel component training.
	Mixture markov.MVMMOptions
}

// DefaultConfig mirrors the paper's experimental setup.
func DefaultConfig() Config {
	return Config{
		SessionGap:         session.DefaultGap,
		ReductionThreshold: 5,
		Epsilons:           markov.DefaultEpsilons(),
		Mixture:            markov.MVMMOptions{Parallel: true},
	}
}

// Suggestion is one recommended query with its mixture score.
type Suggestion struct {
	Query string
	Score float64
}

// Engine is the trained end-to-end MVMM recommendation system — the
// concrete Recommender behind the paper's main pipeline.
//
// After training (or loading) the mixture is compiled into a flat single-PST
// serving form (internal/compiled): AppendSuggestions and Probability run
// one trie descent with zero steady-state allocations instead of walking the
// K map-based component trees. The interpreted mixture is retained as the
// build artifact — evaluation code reads it via Model, and it is what Save
// persists alongside the compiled form. Should compilation ever fail (it
// cannot for mixtures built by this pipeline) the engine transparently
// serves from the interpreted model instead.
type Engine struct {
	dict  *query.Dict
	mix   *markov.MVMM
	comp  *compiled.Model // nil ⇒ interpreted fallback
	stats session.Stats
	cfg   Config
	info  LoadInfo

	// LoadPath defers decoding the interpreted mixture (serving only needs
	// the compiled form): Model() triggers mixLoad exactly once.
	mixOnce sync.Once
	mixLoad func() (*markov.MVMM, error)
	mixErr  error
}

// Model-provenance modes reported by LoadInfo.
const (
	LoadModeTrained = "trained" // built in-process by TrainFrom*
	LoadModeHeap    = "heap"    // decoded from a model file
)

// LoadInfo describes how the recommender's serving model materialised —
// surfaced through /healthz and cmd/serve logs so cold-start behaviour and
// the served memory footprint are observable in production.
type LoadInfo struct {
	Mode      string        // LoadModeTrained or LoadModeHeap
	Version   string        // save-format magic of the source file, "" if trained
	Format    string        // compiled-blob encoding served ("CPS5"); "" if compiled in-process
	BlobBytes int64         // byte length of the compiled blob decoded; 0 if compiled in-process
	Duration  time.Duration // wall time of the Load/LoadPath call
}

// LoadInfo reports the provenance of the serving model.
func (r *Engine) LoadInfo() LoadInfo { return r.info }

// predBufs pools prediction scratch for the zero-allocation serving path.
var predBufs = sync.Pool{New: func() any {
	b := make([]model.Prediction, 0, 64)
	return &b
}}

// TrainFromLog reads a raw search log (logfmt records), runs the full
// pipeline and trains the MVMM.
func TrainFromLog(r io.Reader, cfg Config) (*Engine, error) {
	dict := query.NewDict()
	sessions, err := session.SegmentReader(logfmt.NewReader(r), dict, cfg.SessionGap)
	if err != nil {
		return nil, fmt.Errorf("core: segmenting log: %w", err)
	}
	return TrainFromSessions(dict, sessions, cfg), nil
}

// TrainFromSessions trains from already-segmented sessions whose queries
// were interned into dict.
func TrainFromSessions(dict *query.Dict, sessions []query.Seq, cfg Config) *Engine {
	agg := session.Aggregate(sessions)
	if cfg.ReductionThreshold >= 0 {
		agg, _ = session.Reduce(agg, uint64(cfg.ReductionThreshold))
	}
	return TrainFromAggregated(dict, agg, cfg)
}

// TrainFromAggregated trains from aggregated (sequence, frequency) sessions.
// No further reduction is applied.
func TrainFromAggregated(dict *query.Dict, agg []query.Session, cfg Config) *Engine {
	eps := cfg.Epsilons
	if len(eps) == 0 {
		eps = markov.DefaultEpsilons()
	}
	mix := markov.NewMVMMFromEpsilons(agg, eps, dict.Len(), cfg.Mixture)
	r := &Engine{dict: dict, mix: mix, stats: session.Collect(agg), cfg: cfg,
		info: LoadInfo{Mode: LoadModeTrained}}
	r.comp, _ = compiled.Compile(mix)
	return r
}

// AppendSuggestions appends up to n ranked suggestions for the interned
// context to dst and returns the extended slice. With a recycled dst this is
// the zero-allocation serving path: the compiled model predicts into pooled
// scratch and suggestion strings are shared with the dictionary.
func (r *Engine) AppendSuggestions(dst []Suggestion, ctx query.Seq, n int) []Suggestion {
	if len(ctx) == 0 {
		return dst
	}
	if r.comp == nil { // interpreted fallback
		for _, p := range r.mix.Predict(ctx, n) {
			dst = append(dst, Suggestion{Query: r.dict.String(p.Query), Score: p.Score})
		}
		return dst
	}
	buf := predBufs.Get().(*[]model.Prediction)
	preds := r.comp.AppendPredictions((*buf)[:0], ctx, n)
	for _, p := range preds {
		dst = append(dst, Suggestion{Query: r.dict.String(p.Query), Score: p.Score})
	}
	*buf = preds[:0]
	predBufs.Put(buf)
	return dst
}

// RecommendBatchIDs scores many interned contexts through the shared-scratch
// batched trie descent (compiled.PredictBatch): contexts are grouped by
// shared suffix so sibling lookups amortise descents and cache-line loads,
// which is what makes POST /suggest/batch cheaper than n single requests.
// Results align 1:1 with ctxs; uncovered or empty contexts yield nil
// entries. Each non-nil result slice is freshly allocated (callers cache
// them).
func (r *Engine) RecommendBatchIDs(ctxs []query.Seq, ns []int) [][]Suggestion {
	out := make([][]Suggestion, len(ctxs))
	if r.comp == nil { // interpreted fallback: no batched descent available
		for i, ctx := range ctxs {
			out[i] = RecommendIDs(r, ctx, ns[i])
		}
		return out
	}
	r.comp.PredictBatch(ctxs, ns, func(i int, preds []model.Prediction) {
		if len(preds) == 0 {
			return
		}
		ss := make([]Suggestion, len(preds))
		for j, p := range preds {
			ss[j] = Suggestion{Query: r.dict.String(p.Query), Score: p.Score}
		}
		out[i] = ss
	})
	return out
}

// Probability returns the model's estimate that the user's next query is q
// given the context.
func (r *Engine) Probability(context []string, q string) float64 {
	ctx := r.internContext(context)
	id, ok := r.dict.Lookup(q)
	if !ok {
		return 0
	}
	if r.comp != nil {
		return r.comp.Prob(ctx, id)
	}
	return r.mix.Prob(ctx, id)
}

// internContext resolves context strings to IDs, dropping unknown queries.
func (r *Engine) internContext(context []string) query.Seq {
	return AppendContext(r.dict, make(query.Seq, 0, len(context)), context)
}

// Dict exposes the query dictionary.
func (r *Engine) Dict() *query.Dict { return r.dict }

// Model exposes the trained mixture (for evaluation and persistence). For
// recommenders loaded through LoadPath the mixture is decoded lazily on
// first call — cold starts that only serve never pay for it. Returns nil if
// the deferred decode fails (the error surfaces through Save).
func (r *Engine) Model() *markov.MVMM {
	if r.mixLoad != nil {
		r.mixOnce.Do(func() {
			m, err := r.mixLoad()
			if err != nil {
				r.mixErr = err
				return
			}
			r.mix = m
		})
	}
	return r.mix
}

// Close implements Recommender and releases nothing: the serving arrays are
// heap memory, and the file LoadPath keeps open for the lazy mixture decode
// is closed by that decode or by the garbage collector.
func (r *Engine) Close() error { return nil }

// CompiledModel exposes the flat serving form, or nil when the engine fell
// back to the interpreted mixture.
func (r *Engine) CompiledModel() *compiled.Model { return r.comp }

// Predictor implements Recommender: the compiled trie, or nil when the
// engine serves from the interpreted mixture (which predates the Predictor
// seam and has no zero-allocation contract).
func (r *Engine) Predictor() compiled.Predictor {
	if r.comp == nil {
		return nil
	}
	return r.comp
}

// Stats returns the training-collection statistics (Table IV shape).
func (r *Engine) Stats() session.Stats { return r.stats }

// Save-format magics. Every version starts with the magic and two
// length-prefixed sections, the query dictionary and the interpreted
// mixture. V001 stops there. V002 appends a length-prefixed compiled
// section (the retired varint CPS1 encoding). V003, V004 and V005 append the
// compiled blob framed as (uint64 pad length, pad, uint64 blob length,
// blob), padded so the blob starts on a compiledAlign file boundary; V003
// and V004 carried the retired CPS3 and CPS4 encodings, V005 carries CPS5.
// Save writes V005. Load and LoadPath serve a V005 blob directly and answer
// every other version — and a V005 file whose compiled section is empty or
// holds a retired encoding — by compiling the mixture section.
const (
	saveMagicV1 = "QRECV001"
	saveMagicV2 = "QRECV002"
	saveMagicV3 = "QRECV003"
	saveMagicV4 = "QRECV004"
	saveMagicV5 = "QRECV005"
)

// compiledAlign is the file alignment of the V003–V005 compiled blob.
const compiledAlign = 4096

// writeSection emits one length-prefixed section so Load can hand each
// decoder a bounded reader (decoders buffer internally and would otherwise
// read past their section).
func writeSection(w io.Writer, name string, wt io.WriterTo) error {
	var buf bytes.Buffer
	if _, err := wt.WriteTo(&buf); err != nil {
		return fmt.Errorf("core: saving %s: %w", name, err)
	}
	var hdr [8]byte
	binary.LittleEndian.PutUint64(hdr[:], uint64(buf.Len()))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(buf.Bytes())
	return err
}

// countWriter tracks the file offset so Save can pad the compiled blob to
// its alignment boundary.
type countWriter struct {
	w io.Writer
	n int64
}

func (cw *countWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	return n, err
}

// Save persists the recommender — dictionary, interpreted mixture (the build
// artifact) and compiled serving form — as a QRECV005 container. A
// recommender without a compiled model, or whose model CPS5 refuses (see
// compiled.ErrUnquantisable), writes an empty compiled section; Load
// recompiles.
func (r *Engine) Save(w io.Writer) error {
	mix := r.Model()
	if mix == nil {
		return fmt.Errorf("core: mixture unavailable for save: %w", r.mixErr)
	}
	var blob []byte
	if r.comp != nil {
		var err error
		blob, err = r.comp.AppendFlat5(nil)
		if err != nil && !errors.Is(err, compiled.ErrUnquantisable) {
			return fmt.Errorf("core: encoding compiled model: %w", err)
		}
	}
	cw := &countWriter{w: w}
	if _, err := io.WriteString(cw, saveMagicV5); err != nil {
		return err
	}
	if err := writeSection(cw, "dictionary", r.dict); err != nil {
		return err
	}
	if err := writeSection(cw, "model", mix); err != nil {
		return err
	}
	pad := int((compiledAlign - (cw.n+16)%compiledAlign) % compiledAlign)
	frame := make([]byte, 16+pad)
	binary.LittleEndian.PutUint64(frame, uint64(pad))
	binary.LittleEndian.PutUint64(frame[8+pad:], uint64(len(blob)))
	if _, err := cw.Write(frame); err != nil {
		return err
	}
	_, err := cw.Write(blob)
	return err
}

// maxSection bounds any section length read from a file header.
const maxSection = 1 << 40

// Load restores a recommender from a stream holding any save-format
// version (see the save-format magics for how each is served).
func Load(rd io.Reader) (*Engine, error) {
	start := time.Now()
	r, info, err := load(rd)
	if err != nil {
		return nil, err
	}
	info.Mode = LoadModeHeap
	info.Duration = time.Since(start)
	r.info = info
	return r, nil
}

func load(rd io.Reader) (*Engine, LoadInfo, error) {
	var info LoadInfo
	magic := make([]byte, len(saveMagicV1))
	if _, err := io.ReadFull(rd, magic); err != nil {
		return nil, info, fmt.Errorf("core: reading header: %w", err)
	}
	version := string(magic)
	info.Version = version
	switch version {
	case saveMagicV1, saveMagicV2, saveMagicV3, saveMagicV4, saveMagicV5:
	default:
		return nil, info, fmt.Errorf("core: unrecognised model file header %q", magic)
	}
	readLen := func(what string) (int64, error) {
		var hdr [8]byte
		if _, err := io.ReadFull(rd, hdr[:]); err != nil {
			return 0, fmt.Errorf("core: reading %s header: %w", what, err)
		}
		n := binary.LittleEndian.Uint64(hdr[:])
		if n > maxSection {
			return 0, fmt.Errorf("core: implausible %s of %d bytes", what, n)
		}
		return int64(n), nil
	}
	n, err := readLen("dictionary section")
	if err != nil {
		return nil, info, err
	}
	dict, err := query.ReadDict(io.LimitReader(rd, n))
	if err != nil {
		return nil, info, fmt.Errorf("core: loading dictionary: %w", err)
	}
	if n, err = readLen("model section"); err != nil {
		return nil, info, err
	}
	mix, err := markov.ReadMVMM(io.LimitReader(rd, n))
	if err != nil {
		return nil, info, fmt.Errorf("core: loading model: %w", err)
	}
	r := &Engine{dict: dict, mix: mix, cfg: DefaultConfig()}
	if version != saveMagicV1 {
		if version != saveMagicV2 {
			pad, err := readLen("compiled padding")
			if err != nil {
				return nil, info, err
			}
			if pad >= compiledAlign {
				return nil, info, fmt.Errorf("core: implausible compiled-section padding of %d bytes", pad)
			}
			if _, err := io.CopyN(io.Discard, rd, pad); err != nil {
				return nil, info, fmt.Errorf("core: skipping compiled padding: %w", err)
			}
		}
		if n, err = readLen("compiled section"); err != nil {
			return nil, info, err
		}
		// Read incrementally: a truncated or lying stream fails at EOF
		// instead of first allocating the length it claims.
		var blob bytes.Buffer
		if _, err := io.CopyN(&blob, rd, n); err != nil {
			return nil, info, fmt.Errorf("core: reading compiled section: %w", err)
		}
		if version == saveMagicV5 {
			comp, err := decodeCompiled(blob.Bytes())
			if err != nil {
				return nil, info, err
			}
			if comp != nil {
				r.comp = comp
				info.Format = compiledFormat
				info.BlobBytes = n
				return r, info, nil
			}
		}
	}
	r.comp, _ = compiled.Compile(mix)
	return r, info, nil
}

// compiledFormat is the one compiled-blob encoding Load and LoadPath serve.
const compiledFormat = "CPS5"

// decodeCompiled decodes a V005 compiled section. It returns nil without an
// error for an empty section or one holding a retired encoding (CPS3 or CPS4,
// which Save wrote in V005 files when CPS5 refused a model): the caller then
// compiles the mixture.
func decodeCompiled(blob []byte) (*compiled.Model, error) {
	if len(blob) == 0 || bytes.HasPrefix(blob, []byte("CPS3")) || bytes.HasPrefix(blob, []byte("CPS4")) {
		return nil, nil
	}
	comp, err := compiled.FromBytes(blob)
	if err != nil {
		return nil, fmt.Errorf("core: loading compiled model: %w", err)
	}
	return comp, nil
}

// LoadPath restores a recommender from a model file on disk, taking the
// fastest load path the file allows. For V005 files it reads the dictionary
// and the compiled blob with positioned reads, decodes the blob once, and
// decodes the interpreted mixture lazily on first Model() use, so a process
// that only serves never pays for it. Every other version, and V005 files
// whose compiled section Load would not serve, go through Load.
func LoadPath(path string) (*Engine, error) {
	start := time.Now()
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	// The descriptor is retained (not closed) on the successful V005 path:
	// the lazy mixture load below reads through it, which pins the inode the
	// compiled form was read from — a deploy replacing the file at this path
	// must not make Model() decode a different file's bytes.
	keepOpen := false
	defer func() {
		if !keepOpen {
			f.Close()
		}
	}()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	readU64At := func(off int64, what string) (int64, error) {
		var hdr [8]byte
		if _, err := f.ReadAt(hdr[:], off); err != nil {
			return 0, fmt.Errorf("core: reading %s: %w", what, err)
		}
		n := binary.LittleEndian.Uint64(hdr[:])
		if n > uint64(fi.Size()) {
			return 0, fmt.Errorf("core: %s of %d overruns the %d-byte file", what, n, fi.Size())
		}
		return int64(n), nil
	}
	heapLoad := func() (*Engine, error) {
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			return nil, err
		}
		return Load(f)
	}

	magic := make([]byte, len(saveMagicV5))
	if _, err := f.ReadAt(magic, 0); err != nil || string(magic) != saveMagicV5 {
		return heapLoad()
	}
	off := int64(len(magic))
	dictLen, err := readU64At(off, "dictionary section length")
	if err != nil {
		return nil, err
	}
	dict, err := query.ReadDict(io.NewSectionReader(f, off+8, dictLen))
	if err != nil {
		return nil, fmt.Errorf("core: loading dictionary: %w", err)
	}
	off += 8 + dictLen
	mixLen, err := readU64At(off, "model section length")
	if err != nil {
		return nil, err
	}
	mixOff := off + 8
	off = mixOff + mixLen
	pad, err := readU64At(off, "compiled padding")
	if err != nil {
		return nil, err
	}
	if pad >= compiledAlign {
		return nil, fmt.Errorf("core: implausible compiled-section padding of %d bytes", pad)
	}
	blobLen, err := readU64At(off+8+pad, "compiled section length")
	if err != nil {
		return nil, err
	}
	blobOff := off + 16 + pad
	if blobOff+blobLen > fi.Size() {
		return nil, fmt.Errorf("core: compiled section of %d bytes at offset %d overruns the %d-byte file",
			blobLen, blobOff, fi.Size())
	}
	blob := make([]byte, blobLen)
	if _, err := f.ReadAt(blob, blobOff); err != nil {
		return nil, fmt.Errorf("core: reading compiled section: %w", err)
	}
	comp, err := decodeCompiled(blob)
	if err != nil {
		return nil, err
	}
	if comp == nil {
		return heapLoad()
	}

	r := &Engine{dict: dict, comp: comp, cfg: DefaultConfig()}
	r.mixLoad = func() (*markov.MVMM, error) {
		defer f.Close() // runs at most once, under the Model() sync.Once
		mix, err := markov.ReadMVMM(io.NewSectionReader(f, mixOff, mixLen))
		if err != nil {
			return nil, fmt.Errorf("core: lazily loading mixture: %w", err)
		}
		return mix, nil
	}
	keepOpen = true
	r.info = LoadInfo{
		Mode:      LoadModeHeap,
		Version:   saveMagicV5,
		Format:    compiledFormat,
		BlobBytes: blobLen,
		Duration:  time.Since(start),
	}
	return r, nil
}

// LoadOptions is accepted by LoadAnyPath; it has no fields, since every
// model file loads one way.
type LoadOptions struct{}
