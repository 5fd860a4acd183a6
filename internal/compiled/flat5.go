package compiled

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"sort"

	"repro/internal/store"
)

// CPS5 — the compiled model's one persistent encoding.
//
// The paper's Table VII argues the merged single-PST stays small enough to
// deploy; CPS5 makes the stored blob small. It quantises and packs what
// dominates the exact in-memory arrays:
//
//   - smoothed probabilities: p ≈ qstep[v]·q with q = round(p/qstep[v]),
//     qstep[v] = maxP(v)/65535 stored as float32 and q as uint16. The
//     dequantisation p̂ = float64(qstep)·float64(q) is exact IEEE
//     arithmetic, so encode → decode → re-encode is byte-stable and every
//     platform reads identical probabilities. The absolute error per node
//     is bounded by qstep[v]/2 (≤ 1/131070 ≈ 7.7e-6), and since mixture
//     weights and escape chains multiply to ≤ 1, a candidate's final score
//     stays within that same bound of the Compile score. Quantisation is
//     monotone per node, so only cross-candidate near-ties may swap rank.
//   - the ranked (TopN candidate-pool) view: uint16 indices into the node's
//     ID-sorted follower range instead of repeating the IDs.
//   - follower-ID lists: a varint first ID followed by varint deltas (IDs
//     are ascending within a node and assigned by log frequency, so the
//     gaps are small); child edge keys likewise as first key + deltas.
//   - the CSR offset arrays as varint per-node count streams.
//   - unobserved-follower floors as float32, presence bitmasks as uint16
//     when the mixture has <= 16 components (the paper's has 11), window
//     occurrence counts as uint32 when every count fits.
//
// FromBytes verifies the CRC, validates the structure and decodes the blob
// once into the arrays Compile fills, so serving never touches the packed
// form.
//
// Layout (all integers little-endian, varints in Go's binary.Uvarint form):
//
//	  0  "CPS5" magic
//	  4  uint32 layout version (1)
//	  8  uint64 blob length (including this header)
//	 16  uint32 k, uint32 vocab
//	 24  uint32 depth, uint32 node count n (root included)
//	 32  uint64 edge count, uint64 follower count
//	 48  uint32 CRC-32 (IEEE) of blob[64:]
//	 52  uint8 evidence element width (2 or 8)
//	 53  uint8 occurrence element width (4 or 8)
//	 54  uint8 probability element width (2)
//	 55  9 reserved zero bytes
//	 64  array table: 14 x { uint64 byte offset, uint64 count }
//	288  the arrays, each 8-byte aligned
//
// For fixed-width arrays the table count is the element count; for the five
// varint regions it is the region's byte length.
const (
	flatHeaderSize     = 64
	compactMagic       = "CPS5"
	compactVersion     = 1
	compactArrayCount  = 14
	compactArraysStart = flatHeaderSize + compactArrayCount*16 // 288, 8-byte aligned
)

// Array-table indices of the CPS5 layout, in on-disk order. The *V entries
// are varint regions (table count = byte length).
const (
	f5Sigma = iota
	f5MaxLen
	f5Evidence
	f5Occ
	f5StartOcc
	f5Floor
	f5Step
	f5FolQ
	f5FolRank
	f5ChildCntV
	f5ChildKeyV
	f5FolCntV
	f5FolLenV
	f5FolIDV
)

// quantSteps is the fixed-point resolution: probabilities are stored on the
// grid {0, qstep, 2·qstep, ..., 65535·qstep} with qstep = maxP/quantSteps.
const quantSteps = 65535

// ErrUnquantisable reports a model whose statistics do not fit the CPS5
// layout (a node with more than 65535 followers, or a probability too small
// for a float32 step). core.Save then writes an empty compiled section and
// loads recompile from the mixture.
var ErrUnquantisable = errors.New("compiled: model does not fit the CPS5 quantised layout")

func compactCorrupt(format string, args ...any) error {
	return fmt.Errorf("%w: CPS5 %s", store.ErrCorrupt, fmt.Sprintf(format, args...))
}

// quantWidths picks the narrow-array element widths for this model's data:
// evidence masks shrink to uint16 when the mixture fits, occurrence counts
// to uint32 when every count fits. The choice is a pure function of the
// model's statistics, which keeps re-encoding byte-stable.
func (c *Model) quantWidths() (evW, occW int) {
	evW = 8
	if c.k <= 16 {
		evW = 2
	}
	occW = 4
	for v := range c.occ {
		if c.occ[v] > math.MaxUint32 || c.startOcc[v] > math.MaxUint32 {
			occW = 8
			break
		}
	}
	return evW, occW
}

// appendDeltas appends an ascending ID list as a varint first ID followed by
// varint deltas.
func appendDeltas(dst []byte, ids []uint32) []byte {
	prev := uint32(0)
	for _, id := range ids {
		dst = binary.AppendUvarint(dst, uint64(id-prev))
		prev = id
	}
	return dst
}

// compactRegions builds the five varint regions of the CPS5 layout, in
// array-table order: child counts, child keys, follower counts, follower-ID
// group byte lengths, follower IDs.
func (c *Model) compactRegions() (r [5][]byte) {
	for v := 0; v < c.nodes; v++ {
		cLo, cHi := c.childStart[v], c.childStart[v+1]
		fLo, fHi := c.folStart[v], c.folStart[v+1]
		r[0] = binary.AppendUvarint(r[0], uint64(cHi-cLo))
		r[1] = appendDeltas(r[1], c.childKey[cLo:cHi])
		r[2] = binary.AppendUvarint(r[2], uint64(fHi-fLo))
		before := len(r[4])
		r[4] = appendDeltas(r[4], c.folIDSorted[fLo:fHi])
		r[3] = binary.AppendUvarint(r[3], uint64(len(r[4])-before))
	}
	return r
}

// AppendFlat5 appends the model's CPS5 encoding to dst and returns the
// extended slice. Compiled models are quantised from their exact
// probabilities; models loaded by FromBytes re-quantise their dequantised
// values to the same fixed-point codes, so load → save round trips are
// byte-identical.
//
// Fails with ErrUnquantisable, returning dst unchanged, when the statistics
// do not fit: a node with more than 65535 followers (rank indices are
// 16-bit) or a float32 step underflow.
func (c *Model) AppendFlat5(dst []byte) ([]byte, error) {
	regions := c.compactRegions()
	f := c.Followers()
	evW, occW := c.quantWidths()
	counts := [compactArrayCount]int{
		c.k, c.k,
		c.nodes, c.nodes, c.nodes, c.nodes, c.nodes,
		f, f,
		len(regions[0]), len(regions[1]), len(regions[2]), len(regions[3]), len(regions[4]),
	}
	sizes := [compactArrayCount]int{8, 8, evW, occW, occW, 4, 4, 2, 2, 1, 1, 1, 1, 1}
	var offs [compactArrayCount]uint64
	total := uint64(compactArraysStart)
	for i := range counts {
		total = (total + 7) &^ 7
		offs[i] = total
		total += uint64(counts[i]) * uint64(sizes[i])
	}
	total = (total + 7) &^ 7

	base := len(dst)
	dst = append(dst, make([]byte, total)...)
	b := dst[base:]
	le := binary.LittleEndian

	copy(b, compactMagic)
	le.PutUint32(b[4:], compactVersion)
	le.PutUint64(b[8:], total)
	le.PutUint32(b[16:], uint32(c.k))
	le.PutUint32(b[20:], uint32(c.vocab))
	le.PutUint32(b[24:], uint32(c.depth))
	le.PutUint32(b[28:], uint32(c.nodes))
	le.PutUint64(b[32:], uint64(len(c.childKey)))
	le.PutUint64(b[40:], uint64(f))
	b[52] = byte(evW)
	b[53] = byte(occW)
	b[54] = 2
	for i := range offs {
		le.PutUint64(b[flatHeaderSize+16*i:], offs[i])
		le.PutUint64(b[flatHeaderSize+16*i+8:], uint64(counts[i]))
	}

	for i, v := range c.sigma {
		le.PutUint64(b[offs[f5Sigma]+8*uint64(i):], math.Float64bits(v))
	}
	for i, v := range c.maxLen {
		le.PutUint64(b[offs[f5MaxLen]+8*uint64(i):], uint64(v))
	}
	for v := 0; v < c.nodes; v++ {
		if evW == 2 {
			le.PutUint16(b[offs[f5Evidence]+2*uint64(v):], uint16(c.evidence[v]))
		} else {
			le.PutUint64(b[offs[f5Evidence]+8*uint64(v):], c.evidence[v])
		}
		if occW == 4 {
			le.PutUint32(b[offs[f5Occ]+4*uint64(v):], uint32(c.occ[v]))
			le.PutUint32(b[offs[f5StartOcc]+4*uint64(v):], uint32(c.startOcc[v]))
		} else {
			le.PutUint64(b[offs[f5Occ]+8*uint64(v):], c.occ[v])
			le.PutUint64(b[offs[f5StartOcc]+8*uint64(v):], c.startOcc[v])
		}
		le.PutUint32(b[offs[f5Floor]+4*uint64(v):], math.Float32bits(float32(c.floor[v])))
	}
	for i, r := range regions {
		copy(b[offs[f5ChildCntV+i]:], r)
	}
	if err := c.putQuantised(b, offs); err != nil {
		return dst[:base], err
	}

	le.PutUint32(b[48:], crc32.ChecksumIEEE(b[flatHeaderSize:]))
	return dst, nil
}

// putQuantised fills the step, fixed-point probability and rank-index
// arrays of a CPS5 blob from the model's probabilities and frozen ranked
// order.
func (c *Model) putQuantised(b []byte, offs [compactArrayCount]uint64) error {
	le := binary.LittleEndian
	for v := 0; v < c.nodes; v++ {
		lo, hi := c.folStart[v], c.folStart[v+1]
		support := int(hi - lo)
		if support == 0 {
			continue // step stays 0.0
		}
		if support > quantSteps {
			return fmt.Errorf("%w: node %d has %d followers, rank indices are 16-bit", ErrUnquantisable, v, support)
		}
		maxP := 0.0
		for _, p := range c.folPSorted[lo:hi] {
			maxP = max(maxP, p)
		}
		step := float32(maxP / quantSteps)
		if step == 0 && maxP > 0 {
			return fmt.Errorf("%w: node %d max probability %g underflows the float32 step", ErrUnquantisable, v, maxP)
		}
		le.PutUint32(b[offs[f5Step]+4*uint64(v):], math.Float32bits(step))
		for j := lo; j < hi; j++ {
			q := min(math.Round(c.folPSorted[j]/float64(step)), quantSteps)
			le.PutUint16(b[offs[f5FolQ]+2*uint64(j):], uint16(q))
		}
		// Ranked view as local indices: folIDRanked[j] is the (j-lo)-th best
		// follower; find it in the node's ID-sorted range.
		ids := c.folIDSorted[lo:hi]
		for j := lo; j < hi; j++ {
			id := c.folIDRanked[j]
			idx := sort.Search(support, func(i int) bool { return ids[i] >= id })
			le.PutUint16(b[offs[f5FolRank]+2*uint64(j):], uint16(idx))
		}
	}
	return nil
}

// uvarints reads a varint region value by value, remembering the first
// failure so callers check once per stream.
type uvarints struct {
	b    []byte
	what string
	err  error
}

func (u *uvarints) next() uint64 {
	if len(u.b) > 0 && u.b[0] < 0x80 { // one-byte values dominate every stream
		x := u.b[0]
		u.b = u.b[1:]
		return uint64(x)
	}
	if u.err != nil {
		return 0
	}
	x, n := binary.Uvarint(u.b)
	if n <= 0 {
		u.err = compactCorrupt("%s stream truncated or overlong", u.what)
		return 0
	}
	u.b = u.b[n:]
	return x
}

// ascending decodes cnt strictly ascending uint32 IDs (first value, then
// positive deltas) and appends them to dst.
func (u *uvarints) ascending(dst []uint32, cnt int) []uint32 {
	var id uint64
	for i := 0; i < cnt; i++ {
		d := u.next()
		if u.err == nil && ((i > 0 && d == 0) || d > math.MaxUint32-id) {
			u.err = compactCorrupt("%s stream is not strictly ascending uint32", u.what)
		}
		id += d
		dst = append(dst, uint32(id))
	}
	return dst
}

// end reports the stream's first failure, or leftover bytes after the last
// expected value.
func (u *uvarints) end() error {
	if u.err == nil && len(u.b) != 0 {
		u.err = compactCorrupt("%s stream carries %d trailing bytes", u.what, len(u.b))
	}
	return u.err
}

// prefixSums decodes n per-node counts into CSR offsets that must sum to
// exactly total.
func (u *uvarints) prefixSums(n int, total uint64) ([]int32, error) {
	offs := make([]int32, n+1)
	var sum uint64
	for v := 0; v < n; v++ {
		cnt := u.next()
		if cnt > total-sum {
			return nil, compactCorrupt("%s counts overflow %d entries at node %d", u.what, total, v)
		}
		sum += cnt
		offs[v+1] = int32(sum)
	}
	if err := u.end(); err != nil {
		return nil, err
	}
	if sum != total {
		return nil, compactCorrupt("%s counts cover %d of %d entries", u.what, sum, total)
	}
	return offs, nil
}

// FromBytes decodes a CPS5 blob produced by AppendFlat5 into a servable
// Model. The CRC is always verified and the structure validated, so a model
// it returns can be served without any index escaping its arrays; corrupted
// or truncated blobs fail with an error wrapping store.ErrCorrupt and never
// panic.
func FromBytes(data []byte) (*Model, error) {
	if len(data) < compactArraysStart {
		return nil, compactCorrupt("blob of %d bytes is shorter than the header", len(data))
	}
	if string(data[:4]) != compactMagic {
		return nil, compactCorrupt("magic %q", data[:4])
	}
	le := binary.LittleEndian
	if v := le.Uint32(data[4:]); v != compactVersion {
		return nil, compactCorrupt("unsupported layout version %d", v)
	}
	if bl := le.Uint64(data[8:]); bl != uint64(len(data)) {
		return nil, compactCorrupt("header claims %d bytes, blob has %d (truncated?)", bl, len(data))
	}
	if got, want := crc32.ChecksumIEEE(data[flatHeaderSize:]), le.Uint32(data[48:]); got != want {
		return nil, compactCorrupt("CRC mismatch %08x != %08x", got, want)
	}
	c := &Model{
		k:         int(le.Uint32(data[16:])),
		vocab:     int(le.Uint32(data[20:])),
		depth:     int(le.Uint32(data[24:])),
		quantised: true,
	}
	n := int(le.Uint32(data[28:]))
	edges := le.Uint64(data[32:])
	fols := le.Uint64(data[40:])
	evW, occW, probW := int(data[52]), int(data[53]), int(data[54])
	if c.k <= 0 || c.k > maxComponents {
		return nil, compactCorrupt("implausible component count %d", c.k)
	}
	if c.vocab <= 0 {
		return nil, compactCorrupt("implausible vocab %d", c.vocab)
	}
	if n <= 0 || uint64(n-1) != edges {
		return nil, compactCorrupt("%d edges for %d nodes", edges, n)
	}
	if fols > uint64(len(data)) { // each follower entry occupies >= 4 bytes
		return nil, compactCorrupt("implausible follower count %d", fols)
	}
	if (evW != 2 && evW != 8) || (evW == 2 && c.k > 16) {
		return nil, compactCorrupt("evidence width %d for %d components", evW, c.k)
	}
	if occW != 4 && occW != 8 {
		return nil, compactCorrupt("occurrence width %d", occW)
	}
	if probW != 2 {
		return nil, compactCorrupt("probability width %d", probW)
	}
	for _, b := range data[55:flatHeaderSize] {
		if b != 0 {
			return nil, compactCorrupt("reserved header bytes are not zero")
		}
	}
	c.nodes = n

	// Fixed-width arrays have a known element count; varint regions carry
	// their byte length in the table (bounded only by the blob). The table
	// check bounds every allocation below by the blob size.
	want := [compactArrayCount]uint64{
		uint64(c.k), uint64(c.k),
		uint64(n), uint64(n), uint64(n), uint64(n), uint64(n),
		fols, fols,
	}
	sizes := [compactArrayCount]int{8, 8, evW, occW, occW, 4, 4, 2, 2, 1, 1, 1, 1, 1}
	var arr [compactArrayCount][]byte
	for i := range arr {
		off := le.Uint64(data[flatHeaderSize+16*i:])
		cnt := le.Uint64(data[flatHeaderSize+16*i+8:])
		if i < f5ChildCntV && cnt != want[i] {
			return nil, compactCorrupt("array %d holds %d elements, header implies %d", i, cnt, want[i])
		}
		bytes := cnt * uint64(sizes[i])
		if off%8 != 0 || off < compactArraysStart || off > uint64(len(data)) || bytes > uint64(len(data))-off {
			return nil, compactCorrupt("array %d at [%d, %d+%d) escapes the %d-byte blob", i, off, off, bytes, len(data))
		}
		arr[i] = data[off : off+bytes]
	}

	c.sigma = make([]float64, c.k)
	c.maxLen = make([]int, c.k)
	for i := range c.sigma {
		c.sigma[i] = math.Float64frombits(le.Uint64(arr[f5Sigma][8*i:]))
		if math.IsNaN(c.sigma[i]) || math.IsInf(c.sigma[i], 0) {
			return nil, compactCorrupt("component %d sigma is not finite", i)
		}
		ml := le.Uint64(arr[f5MaxLen][8*i:])
		if ml > math.MaxInt32 {
			return nil, compactCorrupt("component %d window bound %d overflows", i, ml)
		}
		c.maxLen[i] = int(ml)
	}

	// CSR skeleton: count streams to prefix sums, delta streams to keys.
	var err error
	childCnt := uvarints{b: arr[f5ChildCntV], what: "child-count"}
	if c.childStart, err = childCnt.prefixSums(n, edges); err != nil {
		return nil, err
	}
	// Nodes are laid out breadth first (edge e leads to node e+1, and a
	// parent precedes its children), so the last node sits at the deepest
	// level; the header's depth sizes the descent scratch and must match it.
	depth := 0
	for v := n - 1; v > 0; depth++ {
		e := int32(v - 1)
		p := sort.Search(v, func(p int) bool { return c.childStart[p+1] > e })
		if p >= v {
			return nil, compactCorrupt("node %d is not preceded by its parent", v)
		}
		v = p
	}
	if depth != c.depth {
		return nil, compactCorrupt("header depth %d, trie depth %d", c.depth, depth)
	}
	childKeys := uvarints{b: arr[f5ChildKeyV], what: "child-key"}
	c.childKey = make([]uint32, 0, edges)
	for v := 0; v < n; v++ {
		c.childKey = childKeys.ascending(c.childKey, int(c.childStart[v+1]-c.childStart[v]))
	}
	if err := childKeys.end(); err != nil {
		return nil, err
	}
	folCnt := uvarints{b: arr[f5FolCntV], what: "follower-count"}
	if c.folStart, err = folCnt.prefixSums(n, fols); err != nil {
		return nil, err
	}
	// Follower IDs: each node's group must decode to exactly its follower
	// count within exactly its recorded byte extent.
	extents := uvarints{b: arr[f5FolLenV], what: "follower-extent"}
	region := arr[f5FolIDV]
	c.folIDSorted = make([]uint32, 0, fols)
	for v := 0; v < n; v++ {
		l := extents.next()
		if l > uint64(len(region)) {
			return nil, compactCorrupt("follower extents overflow the ID region at node %d", v)
		}
		ids := uvarints{b: region[:l], what: "follower-ID"}
		c.folIDSorted = ids.ascending(c.folIDSorted, int(c.folStart[v+1]-c.folStart[v]))
		if err := ids.end(); err != nil {
			return nil, err
		}
		region = region[l:]
	}
	if err := extents.end(); err != nil {
		return nil, err
	}
	if len(region) != 0 {
		return nil, compactCorrupt("follower extents leave %d ID-region bytes", len(region))
	}

	// Per-node payload, widened to the exact form's types.
	c.evidence = make([]uint64, n)
	c.occ = make([]uint64, n)
	c.startOcc = make([]uint64, n)
	c.floor = make([]float64, n)
	for v := 0; v < n; v++ {
		if evW == 2 {
			c.evidence[v] = uint64(le.Uint16(arr[f5Evidence][2*v:]))
		} else {
			c.evidence[v] = le.Uint64(arr[f5Evidence][8*v:])
		}
		if c.evidence[v]>>uint(c.k) != 0 {
			return nil, compactCorrupt("node %d evidence names components beyond %d", v, c.k)
		}
		if occW == 4 {
			c.occ[v] = uint64(le.Uint32(arr[f5Occ][4*v:]))
			c.startOcc[v] = uint64(le.Uint32(arr[f5StartOcc][4*v:]))
		} else {
			c.occ[v] = le.Uint64(arr[f5Occ][8*v:])
			c.startOcc[v] = le.Uint64(arr[f5StartOcc][8*v:])
		}
		c.floor[v] = float64(math.Float32frombits(le.Uint32(arr[f5Floor][4*v:])))
	}

	// Followers: dequantise once (the exact arithmetic serving used to
	// repeat per request) and resolve the ranked view to IDs.
	c.folPSorted = make([]float64, fols)
	c.folIDRanked = make([]uint32, fols)
	for v := 0; v < n; v++ {
		step := float64(math.Float32frombits(le.Uint32(arr[f5Step][4*v:])))
		lo, hi := c.folStart[v], c.folStart[v+1]
		for j := lo; j < hi; j++ {
			c.folPSorted[j] = step * float64(le.Uint16(arr[f5FolQ][2*j:]))
			r := int32(le.Uint16(arr[f5FolRank][2*j:]))
			if r >= hi-lo {
				return nil, compactCorrupt("node %d rank index %d outside its %d followers", v, r, hi-lo)
			}
			c.folIDRanked[j] = c.folIDSorted[lo+r]
		}
	}
	c.initScratch()
	return c, nil
}
