package compiled

import (
	"sort"

	"repro/internal/model"
	"repro/internal/query"
)

// ctxSorter orders a batch's context indices by the reversed (newest-first)
// lexicographic order of the contexts — the order the trie is descended in —
// so consecutive contexts share the longest possible descent prefix. It
// lives inside the pooled scratch so sorting allocates nothing.
type ctxSorter struct {
	order []int32
	ctxs  []query.Seq
}

func (cs *ctxSorter) Len() int { return len(cs.order) }
func (cs *ctxSorter) Swap(i, j int) {
	cs.order[i], cs.order[j] = cs.order[j], cs.order[i]
}
func (cs *ctxSorter) Less(i, j int) bool {
	return revLess(cs.ctxs[cs.order[i]], cs.ctxs[cs.order[j]])
}

// revLess compares two sequences in reversed (newest query first) order.
func revLess(a, b query.Seq) bool {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for j := 1; j <= n; j++ {
		qa, qb := a[len(a)-j], b[len(b)-j]
		if qa != qb {
			return qa < qb
		}
	}
	return len(a) < len(b)
}

// revCommon returns the number of leading symbols the reversed forms of a
// and b share — the descent-path depth the two contexts have in common.
func revCommon(a, b query.Seq) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for j := 1; j <= n; j++ {
		if a[len(a)-j] != b[len(b)-j] {
			return j - 1
		}
	}
	return n
}

// PredictBatch ranks up to ns[i] predictions for every ctxs[i] in one pass
// over shared scratch. Contexts are processed in descent order (sorted by
// their reversed form), so sibling contexts — "the same session one query
// later", near-duplicate heads of power-law traffic — reuse the descent path
// and the cache lines of the shared trie levels instead of re-walking them
// from the root. This is the serving engine behind POST /suggest/batch.
//
// emit is invoked exactly once per context index, in an implementation-
// chosen order. preds is only valid for the duration of the call (the buffer
// is recycled for the next context): consume or copy it before returning.
// Contexts that are empty, have ns[i] <= 0, or are uncovered emit nil.
// Predictions are identical to per-context AppendPredictions calls.
func (c *Model) PredictBatch(ctxs []query.Seq, ns []int, emit func(i int, preds []model.Prediction)) {
	if len(ctxs) == 0 {
		return
	}
	if len(ns) != len(ctxs) {
		panic("compiled: PredictBatch ns and ctxs lengths differ")
	}
	s := c.scratch.p.Get().(*scratch)
	defer c.scratch.p.Put(s)

	s.sorter.order = s.sorter.order[:0]
	for i := range ctxs {
		s.sorter.order = append(s.sorter.order, int32(i))
	}
	s.sorter.ctxs = ctxs
	sort.Sort(&s.sorter)

	// Each context redescends from the previous one's shared prefix.
	var prev query.Seq
	prevN := -1
	s.path = s.path[:0]
	for _, oi := range s.sorter.order {
		i := int(oi)
		ctx := ctxs[i]
		if len(ctx) == 0 || ns[i] <= 0 {
			emit(i, nil)
			continue
		}
		shared := revCommon(prev, ctx)
		// In-batch dedup: sorting made identical contexts adjacent, and
		// power-law traffic makes them common inside real batches (the result
		// cache only catches repeats across batches — inserts happen after
		// the whole batch is scored). Re-emit instead of re-scoring.
		if shared == len(ctx) && shared == len(prev) && ns[i] == prevN {
			if len(s.bpreds) == 0 {
				emit(i, nil)
			} else {
				emit(i, s.bpreds)
			}
			continue
		}
		c.redescend(s, ctx, shared)
		prev, prevN = ctx, ns[i]
		s.bpreds = c.appendRanked(s, s.bpreds[:0], len(ctx), ns[i])
		if len(s.bpreds) == 0 {
			emit(i, nil)
			continue
		}
		emit(i, s.bpreds)
	}
	s.sorter.ctxs = nil // do not retain caller slices in the pool
}

// redescend updates s.path — currently the descent of the previous context —
// to the descent of ctx, whose reversed form shares its first `shared`
// symbols with the previous one.
func (c *Model) redescend(s *scratch, ctx query.Seq, shared int) {
	if shared > len(s.path) {
		// The previous descent already fell out of the trie before reaching
		// depth `shared`, failing on a symbol ctx shares. ctx's descent stops
		// at the same node, so the (truncated) path is already complete.
		return
	}
	s.path = s.path[:shared]
	v := int32(0)
	if shared > 0 {
		v = s.path[shared-1]
	}
	for j := len(ctx) - 1 - shared; j >= 0; j-- {
		nxt := c.child(v, uint32(ctx[j]))
		if nxt < 0 {
			return
		}
		s.path = append(s.path, nxt)
		v = nxt
	}
}
