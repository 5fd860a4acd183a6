package compiled

import (
	"math/bits"
	"slices"
	"sync"

	"repro/internal/markov"
	"repro/internal/model"
	"repro/internal/query"
)

// scratch holds every per-request buffer Predict and Prob need, recycled
// through a sync.Pool so the steady-state prediction path performs zero heap
// allocations.
type scratch struct {
	path     []int32   // descent path; path[l-1] = node of the length-l suffix
	matched  []int32   // per component: matched suffix length (0 = uncovered)
	w        []float64 // per component: normalised Eq. (4) weight
	chain    []float64 // per component: Eq. (5) escape-chain product
	valIdx   []int32   // per component: index into the distinct-node arrays
	distLen  []int32   // distinct matched suffix lengths
	distNode []int32   // distinct matched node IDs
	vals     []float64 // per distinct node: smoothed P of the current candidate
	cands    []uint32  // pooled candidate IDs (sorted, deduplicated)
	scores   []float64 // candidate scores, parallel to cands
	heap     []int32   // bounded top-N selection heap (candidate indices)

	// Batch state (PredictBatch only).
	sorter ctxSorter          // descent-order permutation of the batch
	bpreds []model.Prediction // per-context output buffer, reused across emits
}

type scratchPool struct{ p sync.Pool }

func (c *Model) initScratch() {
	k, depth := c.k, c.depth
	c.scratch.p.New = func() any {
		return &scratch{
			path:     make([]int32, 0, depth),
			matched:  make([]int32, k),
			w:        make([]float64, k),
			chain:    make([]float64, k),
			valIdx:   make([]int32, k),
			distLen:  make([]int32, 0, k),
			distNode: make([]int32, 0, k),
			vals:     make([]float64, k),
			cands:    make([]uint32, 0, 256),
			scores:   make([]float64, 0, 256),
			heap:     make([]int32, 0, 64),
			bpreds:   make([]model.Prediction, 0, 16),
		}
	}
}

// child returns the node reached from v over edge symbol sym, or -1. Children
// are symbol-sorted, and the BFS layout guarantees edge e leads to node e+1.
func (c *Model) child(v int32, sym uint32) int32 {
	lo, hi := c.childStart[v], c.childStart[v+1]
	for lo < hi {
		mid := (lo + hi) / 2
		if c.childKey[mid] < sym {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < c.childStart[v+1] && c.childKey[lo] == sym {
		return lo + 1
	}
	return -1
}

// descend walks ctx newest-to-oldest from the root, filling s.path with the
// node of every stored suffix (path[l-1] = suffix of length l). The deepest
// entry is the longest suffix of ctx present in the merged trie.
func (c *Model) descend(s *scratch, ctx query.Seq) {
	s.path = s.path[:0]
	v := int32(0)
	for j := len(ctx) - 1; j >= 0; j-- {
		nxt := c.child(v, uint32(ctx[j]))
		if nxt < 0 {
			return
		}
		s.path = append(s.path, nxt)
		v = nxt
	}
}

// match assigns every component its deepest path node carrying that
// component's evidence bit — the MatchState of all K components in one
// reverse sweep of the descent path — and computes the normalised mixture
// weights. It reports whether any component matched with nonzero weight.
func (c *Model) match(s *scratch, ctxLen int) bool {
	for i := range s.matched {
		s.matched[i] = 0
	}
	var assigned uint64
	full := ^uint64(0) >> (64 - uint(c.k))
	for p := len(s.path); p >= 1 && assigned != full; p-- {
		ev := c.evidence[s.path[p-1]]
		fresh := ev &^ assigned
		for fresh != 0 {
			i := bits.TrailingZeros64(fresh)
			fresh &= fresh - 1
			s.matched[i] = int32(p)
		}
		assigned |= ev
	}
	var sum float64
	for i := 0; i < c.k; i++ {
		s.w[i] = 0
		if s.matched[i] == 0 {
			continue
		}
		s.w[i] = markov.Gaussian(float64(ctxLen-int(s.matched[i])), c.sigma[i])
		sum += s.w[i]
	}
	if sum <= 0 {
		return false
	}
	for i := range s.w {
		s.w[i] /= sum
	}
	return true
}

// escapeFactor is Eq. (6) for the length-l suffix of the context: the
// probability of escaping from it to the length-(l-1) suffix, read off the
// descent path. ml is the component's window-length bound — a bounded
// component never counted windows longer than ml, so those lengths behave as
// unobserved (occurrence zero ⇒ factor 1).
func (c *Model) escapeFactor(s *scratch, l, ml int) float64 {
	sl := l - 1 // the suffix being escaped to
	if sl > len(s.path) || (ml > 0 && sl > ml) {
		return 1
	}
	v := s.path[sl-1]
	occ := c.occ[v]
	if occ == 0 {
		return 1
	}
	start := c.startOcc[v]
	if start == 0 {
		return 1 / float64(occ+1)
	}
	return float64(start) / float64(occ)
}

// prepare runs the shared front half of Predict and Prob: descend, match,
// weight, build each weighted component's escape-chain product, and collect
// the distinct matched nodes. Returns false when the mixture has nothing to
// say about the context.
func (c *Model) prepare(s *scratch, ctx query.Seq) bool {
	c.descend(s, ctx)
	return c.prepareMatched(s, len(ctx))
}

// prepareMatched is prepare after the descent: PredictBatch descends
// incrementally (sharing path prefixes across the batch) and enters here.
func (c *Model) prepareMatched(s *scratch, ctxLen int) bool {
	if len(s.path) == 0 || !c.match(s, ctxLen) {
		return false
	}
	s.distLen = s.distLen[:0]
	s.distNode = s.distNode[:0]
	for i := 0; i < c.k; i++ {
		if s.w[i] == 0 {
			continue
		}
		// Escape chain: factors from just above the matched state up to the
		// full context, multiplied innermost-first to mirror the interpreted
		// recursion's association order.
		prod := 1.0
		for l := int(s.matched[i]) + 1; l <= ctxLen; l++ {
			prod = c.escapeFactor(s, l, c.maxLen[i]) * prod
		}
		s.chain[i] = prod
		idx := int32(-1)
		for j, dl := range s.distLen {
			if dl == s.matched[i] {
				idx = int32(j)
				break
			}
		}
		if idx < 0 {
			idx = int32(len(s.distLen))
			s.distLen = append(s.distLen, s.matched[i])
			s.distNode = append(s.distNode, s.path[s.matched[i]-1])
		}
		s.valIdx[i] = idx
	}
	return true
}

// smoothedAt is Dist.SmoothedP on the compiled node: binary search the
// ID-sorted followers, falling back to the node's precomputed uniform floor.
func (c *Model) smoothedAt(v int32, q uint32) float64 {
	lo, hi := c.folStart[v], c.folStart[v+1]
	for lo < hi {
		mid := (lo + hi) / 2
		if c.folIDSorted[mid] < q {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < c.folStart[v+1] && c.folIDSorted[lo] == q {
		return c.folPSorted[lo]
	}
	return c.floor[v]
}

// score computes the mixture score Σ_D w_D · P̂_D(q|ctx) for one candidate,
// accumulating per component in index order (the interpreted summation
// order) while sharing each distinct matched node's probability lookup.
func (c *Model) score(s *scratch, q uint32) float64 {
	for j, v := range s.distNode {
		s.vals[j] = c.smoothedAt(v, q)
	}
	var sum float64
	for i := 0; i < c.k; i++ {
		if s.w[i] == 0 {
			continue
		}
		sum += s.w[i] * (s.chain[i] * s.vals[s.valIdx[i]])
	}
	return sum
}

// better reports whether candidate a outranks candidate b under the output
// order: score descending, ID ascending on ties.
func (s *scratch) better(a, b int32) bool {
	if s.scores[a] != s.scores[b] {
		return s.scores[a] > s.scores[b]
	}
	return s.cands[a] < s.cands[b]
}

// siftDown restores the min-heap (worst candidate at the top) rooted at i.
func (s *scratch) siftDown(i int) {
	n := len(s.heap)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		worst := l
		if r := l + 1; r < n && s.better(s.heap[worst], s.heap[r]) {
			worst = r
		}
		if s.better(s.heap[worst], s.heap[i]) {
			return
		}
		s.heap[i], s.heap[worst] = s.heap[worst], s.heap[i]
		i = worst
	}
}

// AppendPredictions appends up to topN ranked predictions for ctx to dst and
// returns the extended slice. With a recycled dst it allocates nothing: all
// intermediate state comes from the model's scratch pool and the top-N
// selection uses a bounded heap rather than sorting every candidate.
func (c *Model) AppendPredictions(dst []model.Prediction, ctx query.Seq, topN int) []model.Prediction {
	if len(ctx) == 0 || topN <= 0 {
		return dst
	}
	s := c.scratch.p.Get().(*scratch)
	defer c.scratch.p.Put(s)
	c.descend(s, ctx)
	return c.appendRanked(s, dst, len(ctx), topN)
}

// appendRanked is the back half of AppendPredictions, entered with the
// descent path already in s.path (PredictBatch shares descents and calls in
// here directly): match, score the pooled candidates, select the top N.
func (c *Model) appendRanked(s *scratch, dst []model.Prediction, ctxLen, topN int) []model.Prediction {
	if !c.prepareMatched(s, ctxLen) {
		return dst
	}

	// Candidate pool: the top 4·topN ranked followers of every distinct
	// matched state (the interpreted Predict's TopN(topN*4) union), sorted
	// and deduplicated in place.
	s.cands = s.cands[:0]
	lim := int32(4 * topN)
	for _, v := range s.distNode {
		lo, hi := c.folStart[v], c.folStart[v+1]
		if hi-lo > lim {
			hi = lo + lim
		}
		s.cands = append(s.cands, c.folIDRanked[lo:hi]...)
	}
	if len(s.cands) == 0 {
		return dst
	}
	slices.Sort(s.cands)
	uniq := s.cands[:1]
	for _, q := range s.cands[1:] {
		if q != uniq[len(uniq)-1] {
			uniq = append(uniq, q)
		}
	}
	s.cands = uniq

	s.scores = s.scores[:0]
	for _, q := range s.cands {
		s.scores = append(s.scores, c.score(s, q))
	}

	// Bounded selection: a min-heap of the best topN seen so far, worst at
	// the root, then drain it back-to-front into rank order.
	s.heap = s.heap[:0]
	for i := range s.cands {
		idx := int32(i)
		if len(s.heap) < topN {
			s.heap = append(s.heap, idx)
			for j := len(s.heap) - 1; j > 0; {
				parent := (j - 1) / 2
				if s.better(s.heap[parent], s.heap[j]) {
					s.heap[parent], s.heap[j] = s.heap[j], s.heap[parent]
					j = parent
				} else {
					break
				}
			}
		} else if s.better(idx, s.heap[0]) {
			s.heap[0] = idx
			s.siftDown(0)
		}
	}
	base := len(dst)
	for range s.heap {
		dst = append(dst, model.Prediction{})
	}
	for out := len(s.heap) - 1; out >= 0; out-- {
		last := len(s.heap) - 1
		worst := s.heap[0]
		s.heap[0] = s.heap[last]
		s.heap = s.heap[:last]
		s.siftDown(0)
		dst[base+out] = model.Prediction{Query: query.ID(s.cands[worst]), Score: s.scores[worst]}
	}
	return dst
}

// Predict implements model.Predictor. Serving paths should prefer
// AppendPredictions with a recycled buffer; this convenience form allocates
// the result slice.
func (c *Model) Predict(ctx query.Seq, topN int) []model.Prediction {
	out := c.AppendPredictions(nil, ctx, topN)
	if len(out) == 0 {
		return nil
	}
	return out
}

// Prob implements model.Predictor: the weighted mixture of the components'
// escape-chain probabilities (Eq. 2), allocation-free.
func (c *Model) Prob(ctx query.Seq, q query.ID) float64 {
	if len(ctx) == 0 {
		return 0
	}
	s := c.scratch.p.Get().(*scratch)
	defer c.scratch.p.Put(s)
	if !c.prepare(s, ctx) {
		return 0
	}
	return c.score(s, uint32(q))
}

// Covers implements model.Predictor: whether any component stores a suffix
// of ctx with prediction evidence.
func (c *Model) Covers(ctx query.Seq) bool {
	if len(ctx) == 0 {
		return false
	}
	s := c.scratch.p.Get().(*scratch)
	defer c.scratch.p.Put(s)
	c.descend(s, ctx)
	for _, v := range s.path {
		if c.evidence[v] != 0 {
			return true
		}
	}
	return false
}

var _ model.Predictor = (*Model)(nil)
