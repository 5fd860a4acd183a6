// Package compiled turns a trained markov.MVMM mixture into a single flat
// Prediction Suffix Tree optimised for serving.
//
// The paper's deployment note (Table VII) observes that the mixture's K VMM
// components "can actually combine all into a single PST": every component is
// grown from the same candidate statistics, so whenever two components store
// the same suffix state they store the *same* follower distribution — the
// components differ only in which states they kept. Compile exploits that:
// it merges all component trees and escape tables into one suffix trie whose
// nodes live in flat slices (CSR child arrays indexed by dense node IDs, not
// string map keys), with
//
//   - a per-node K-bit presence bitmask recording which components hold the
//     node with prediction evidence,
//   - the escape-window occurrence counts of Eq. (6) stored on the node, so
//     the whole escape chain of a context is read off the descent path,
//   - followers precomputed twice per node: ranked (count-descending, the
//     frozen TopN order) for candidate pooling and ID-sorted with smoothed
//     probabilities for O(log f) score lookups.
//
// One trie descent then answers everything Predict needs — every component's
// matched state (deepest path node with the component's bit), the Eq. (4)
// mixture weights, the Eq. (5) escape-chain factors and the candidate
// scores — with zero heap allocations: scratch comes from a sync.Pool and
// top-N selection uses a bounded heap instead of sorting all candidates.
//
// The build phase (training, σ learning, KL pruning) keeps the mutable
// map-based representation; Compile freezes it into this read-optimised form,
// the same build-vs-serve split log-structured systems use. Predictions are
// numerically within 1e-12 of the interpreted mixture (the escape-chain and
// scoring sums are re-associated) and rank-identical on non-degenerate ties;
// the parity property test in this package enforces both.
//
// The compiled form has one persistent encoding, CPS5 (AppendFlat5 /
// FromBytes, see flat5.go): follower probabilities as fixed-point uint16
// against a per-node float32 step, follower-ID lists and CSR offsets as
// varint delta streams, node arrays narrowed to their needed width. FromBytes
// verifies the blob's CRC, validates its structure and decodes it once into
// the same arrays Compile fills — the dequantised probabilities
// float64(step)·float64(q) and the widened counts — so a loaded model serves
// through exactly the code path of a compiled one, within the quantisation
// bound (≤ qstep/2 per node, ≤ ~2e-5 absolute) of it.
//
// Serving invariants: prediction is allocation-free at steady state (pooled
// scratch, bounded top-N heap), models are immutable and safe for unbounded
// concurrent readers, and a blob that passes FromBytes can be served without
// any index escaping its arrays.
package compiled

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/markov"
	"repro/internal/query"
)

// maxComponents bounds the mixture size representable in the per-node
// presence bitmask. The paper's mixture uses 11 components.
const maxComponents = 64

// Model is the compiled single-PST form of an MVMM. It is immutable after
// Compile or FromBytes and safe for any number of concurrent predictors.
type Model struct {
	k     int // mixture components
	vocab int // |Q| for the stage-(c) smoothing
	depth int // deepest stored suffix length

	sigma  []float64 // per-component Gaussian widths (Eq. 4)
	maxLen []int     // per-component escape-window bound (0 / huge = unbounded)

	// Trie in CSR form. Node 0 is the root (empty context); an edge carries
	// the query ID that *prepends* the parent's suffix (descent consumes the
	// context newest-to-oldest). Children of node v occupy edge indices
	// childStart[v]..childStart[v+1], sorted by childKey; the nodes are laid
	// out in breadth-first edge order, so edge e always leads to node e+1 and
	// no child-node array is needed.
	childStart []int32
	childKey   []uint32

	// Per-node payload, indexed by node ID.
	evidence []uint64  // bit i set ⇔ component i stores this state with followers
	occ      []uint64  // Eq. (6) window occurrences |[·,s]| of the node's suffix
	startOcc []uint64  // session-start occurrences |[e,s]|
	floor    []float64 // smoothed probability of an unobserved follower

	// Followers, one CSR range per node. Ranked order is the frozen TopN
	// ranking (count descending, ID ascending) used for candidate pooling;
	// sorted order is ID-ascending with the smoothed probabilities, for
	// binary-search probability lookups.
	folStart    []int32
	folIDRanked []uint32
	folIDSorted []uint32
	folPSorted  []float64

	nodes     int  // node count including the root (len of the per-node arrays)
	quantised bool // true ⇔ decoded from a CPS5 blob (dequantised probabilities)

	scratch scratchPool
}

// Compile flattens a trained mixture into its serving form. It fails — and
// the caller should keep serving the interpreted mixture — when the mixture
// violates the shared-statistics invariants the flat form relies on: more
// than 64 components, differing smoothing vocabularies, components whose
// escape tables disagree, or a shared state stored with diverging follower
// counts. Mixtures trained (or loaded) through this repository's pipeline
// always compile.
func Compile(m *markov.MVMM) (*Model, error) {
	comps := m.Components()
	k := len(comps)
	if k == 0 {
		return nil, errors.New("compiled: mixture has no components")
	}
	if k > maxComponents {
		return nil, fmt.Errorf("compiled: %d components exceed the %d-bit presence mask", k, maxComponents)
	}
	vocab := comps[0].Config().Vocab
	for i, cmp := range comps {
		if v := cmp.Config().Vocab; v != vocab {
			return nil, fmt.Errorf("compiled: component %d smoothing vocab %d != %d", i, v, vocab)
		}
	}
	if vocab <= 0 {
		return nil, fmt.Errorf("compiled: non-positive smoothing vocab %d", vocab)
	}

	c := &Model{k: k, vocab: vocab, sigma: m.Sigmas(), maxLen: make([]int, k)}

	merged, err := c.mergeEscapes(comps)
	if err != nil {
		return nil, err
	}
	nodes, err := unionNodes(comps, merged)
	if err != nil {
		return nil, err
	}
	c.layout(nodes)
	return c, nil
}

// window is one merged escape-table entry.
type window struct {
	occ, start uint64
}

// mergeEscapes merges the per-component escape tables into one window map,
// verifying that the tables are projections of the same statistics: shared
// windows must carry identical counts, and each component's table must hold
// exactly the merged windows within its length bound (a mismatch means the
// components were not trained from the same sessions, and per-component
// escape chains cannot be answered from one merged table).
func (c *Model) mergeEscapes(comps []*markov.VMM) (map[string]window, error) {
	merged := make(map[string]window)
	seen := make(map[*markov.EscapeTable]bool, len(comps))
	var conflict string
	for i, cmp := range comps {
		t := cmp.Escape()
		c.maxLen[i] = t.MaxLen()
		if seen[t] { // training shares one table across equal-D components
			continue
		}
		seen[t] = true
		t.ForEachWindow(func(key string, occ, start uint64) {
			if w, ok := merged[key]; ok {
				if w.occ != occ || w.start != start {
					conflict = key
				}
				return
			}
			merged[key] = window{occ: occ, start: start}
		})
		if conflict != "" {
			return nil, fmt.Errorf("compiled: component %d escape counts diverge on window %v",
				i, query.SeqFromKey(conflict))
		}
	}
	// Coverage: component i must contain every merged window of length
	// <= maxLen[i] (and nothing else — the value check above covered those).
	maxWin := 0
	for key := range merged {
		if l := len(key) / 4; l > maxWin {
			maxWin = l
		}
	}
	cum := make([]int, maxWin+1) // cum[l] = merged windows of length <= l
	for key := range merged {
		cum[len(key)/4]++
	}
	for l := 1; l <= maxWin; l++ {
		cum[l] += cum[l-1]
	}
	for i, cmp := range comps {
		want := len(merged)
		if ml := c.maxLen[i]; ml > 0 && ml < maxWin {
			want = cum[ml]
		}
		if got := cmp.Escape().Len(); got != want {
			return nil, fmt.Errorf("compiled: component %d escape table holds %d windows, merged form implies %d",
				i, got, want)
		}
	}
	return merged, nil
}

// nodeInfo is the pre-layout view of one merged trie node.
type nodeInfo struct {
	dist  *markov.Dist // canonical follower distribution (nil: escape-only node)
	mask  uint64       // components storing this state with evidence
	occ   uint64
	start uint64
	id    int32 // assigned by layout
}

// unionNodes unions every component's evidence states with every escape
// window and suffix-closes the result so the merged structure is a valid
// trie. Components sharing a state must agree on its follower counts.
func unionNodes(comps []*markov.VMM, merged map[string]window) (map[string]*nodeInfo, error) {
	nodes := make(map[string]*nodeInfo, len(merged))
	get := func(key string) *nodeInfo {
		ni := nodes[key]
		if ni == nil {
			ni = &nodeInfo{}
			nodes[key] = ni
		}
		return ni
	}
	for i, cmp := range comps {
		var conflict string
		cmp.ForEachNode(func(key string, d *markov.Dist) {
			if d.Total() == 0 {
				return // suffix-closure filler states carry no evidence
			}
			ni := get(key)
			switch {
			case ni.dist == nil:
				ni.dist = d
			case ni.dist != d && !distEqual(ni.dist, d):
				conflict = key
			}
			ni.mask |= 1 << uint(i)
		})
		if conflict != "" {
			return nil, fmt.Errorf("compiled: components disagree on followers of state %v",
				query.SeqFromKey(conflict))
		}
	}
	for key, w := range merged {
		ni := get(key)
		ni.occ, ni.start = w.occ, w.start
	}
	// Suffix closure: every trailing sub-sequence of a stored key must be a
	// node so descent paths are connected.
	keys := make([]string, 0, len(nodes))
	for key := range nodes {
		keys = append(keys, key)
	}
	for _, key := range keys {
		for s := key[4:]; len(s) > 0; s = s[4:] {
			if _, ok := nodes[s]; !ok {
				nodes[s] = &nodeInfo{}
			}
		}
	}
	return nodes, nil
}

// distEqual reports whether two follower distributions carry identical
// counts. Components trained from shared statistics reference the same Dist
// (caught by the pointer check before this is called); deserialized mixtures
// hold structurally equal copies.
func distEqual(a, b *markov.Dist) bool {
	if a.Total() != b.Total() || a.Support() != b.Support() {
		return false
	}
	equal := true
	b.ForEachCount(func(q query.ID, c uint64) {
		if a.Count(q) != c {
			equal = false
		}
	})
	return equal
}

// layout assigns dense node IDs level by level — children of lower-ID
// parents first, siblings sorted by edge symbol — which makes the edge list
// globally parent-ordered so that edge e leads to node e+1, then fills every
// flat array.
func (c *Model) layout(nodes map[string]*nodeInfo) {
	byLen := make(map[int][]string)
	maxDepth := 0
	for key := range nodes {
		l := len(key) / 4
		byLen[l] = append(byLen[l], key)
		if l > maxDepth {
			maxDepth = l
		}
	}
	c.depth = maxDepth

	n := len(nodes) + 1 // + root
	c.childKey = make([]uint32, 0, n-1)
	edgeParent := make([]int32, 0, n-1)
	order := make([]*nodeInfo, 1, n) // order[v] = info of node v (order[0] = nil root)

	nextID := int32(1)
	for l := 1; l <= maxDepth; l++ {
		level := byLen[l]
		// Parent IDs are already assigned (level l-1); sort by (parent, symbol).
		sort.Slice(level, func(i, j int) bool {
			pi, pj := parentID(nodes, level[i]), parentID(nodes, level[j])
			if pi != pj {
				return pi < pj
			}
			return symbol(level[i]) < symbol(level[j])
		})
		for _, key := range level {
			ni := nodes[key]
			ni.id = nextID
			nextID++
			order = append(order, ni)
			// Edges arrive in (parent, symbol) order across the whole build
			// because every level-l parent ID is smaller than every
			// level-(l+1) parent ID — that global ordering is what makes the
			// "edge e leads to node e+1" layout invariant hold.
			c.childKey = append(c.childKey, symbol(key))
			edgeParent = append(edgeParent, parentID(nodes, key))
		}
	}
	// CSR offsets: count edges per parent, then prefix-sum. Edges are
	// parent-sorted, so each node's children form one contiguous range.
	c.childStart = make([]int32, n+1)
	for _, p := range edgeParent {
		c.childStart[p+1]++
	}
	for v := 1; v <= n; v++ {
		c.childStart[v] += c.childStart[v-1]
	}

	c.nodes = n
	c.evidence = make([]uint64, n)
	c.occ = make([]uint64, n)
	c.startOcc = make([]uint64, n)
	c.floor = make([]float64, n)
	c.folStart = make([]int32, 1, n+1)
	for v := 1; v < n; v++ {
		ni := order[v]
		c.evidence[v] = ni.mask
		c.occ[v] = ni.occ
		c.startOcc[v] = ni.start
		var ids []uint32
		var counts []uint64
		if ni.dist != nil {
			qs := ni.dist.Queries() // ascending ID
			ids = make([]uint32, len(qs))
			counts = make([]uint64, len(qs))
			for j, q := range qs {
				ids[j] = uint32(q)
				counts[j] = ni.dist.Count(q)
			}
		}
		c.appendFollowers(v, ids, counts)
	}
	c.folStart = append(c.folStart, int32(len(c.folIDSorted)))
	c.initScratch()
}

// parentID resolves a key's parent node (the key minus its oldest query).
func parentID(nodes map[string]*nodeInfo, key string) int32 {
	if len(key) == 4 {
		return 0
	}
	return nodes[key[4:]].id
}

// symbol is the edge label: the key's oldest query ID (leading 4 bytes).
func symbol(key string) uint32 {
	return uint32(key[0])<<24 | uint32(key[1])<<16 | uint32(key[2])<<8 | uint32(key[3])
}

// appendFollowers installs node v's follower arrays from its ID-ascending
// (ids, counts) pairs, reproducing Dist.SmoothedP's arithmetic exactly:
// z = 1 + u/|Q| with u unobserved queries, observed probability c/total/z,
// unobserved floor (1/|Q|)/z. Nodes must be appended in ID order.
func (c *Model) appendFollowers(v int, ids []uint32, counts []uint64) {
	if v != len(c.folStart) {
		panic("compiled: followers appended out of node order")
	}
	c.folStart = append(c.folStart, int32(len(c.folIDSorted))) // folStart[v]
	support := len(ids)
	if support == 0 {
		return
	}
	var total uint64
	for _, cnt := range counts {
		total += cnt
	}
	u := c.vocab - support
	if u < 0 {
		u = 0
	}
	z := 1 + float64(u)/float64(c.vocab)
	c.floor[v] = 1 / float64(c.vocab) / z

	c.folIDSorted = append(c.folIDSorted, ids...)
	for _, cnt := range counts {
		c.folPSorted = append(c.folPSorted, float64(cnt)/float64(total)/z)
	}
	// Ranked view: count descending, ID ascending — the frozen TopN order.
	perm := make([]int, support)
	for j := range perm {
		perm[j] = j
	}
	sort.Slice(perm, func(a, b int) bool {
		if counts[perm[a]] != counts[perm[b]] {
			return counts[perm[a]] > counts[perm[b]]
		}
		return ids[perm[a]] < ids[perm[b]]
	})
	for _, j := range perm {
		c.folIDRanked = append(c.folIDRanked, ids[j])
	}
}

// Name implements model.Predictor.
func (c *Model) Name() string {
	if c.Quantised() {
		return "MVMM (compiled, quantised)"
	}
	return "MVMM (compiled)"
}

// Components reports the number of mixture components baked in.
func (c *Model) Components() int { return c.k }

// Vocab reports the smoothing vocabulary size |Q|.
func (c *Model) Vocab() int { return c.vocab }

// Depth reports the deepest stored suffix length.
func (c *Model) Depth() int { return c.depth }

// Nodes reports the merged trie size excluding the root — the realised
// version of the paper's Table VII single-PST deployment estimate.
func (c *Model) Nodes() int { return c.nodes - 1 }

// Followers reports the total follower entries across all nodes.
func (c *Model) Followers() int { return int(c.folStart[len(c.folStart)-1]) }

// Quantised reports whether the model was decoded from a CPS5 blob, i.e.
// serves fixed-point probabilities dequantised at load (bounded error)
// rather than the exact float64 values Compile computes.
func (c *Model) Quantised() bool { return c.quantised }
