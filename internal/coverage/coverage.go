// Package coverage implements the compact edge-coverage map behind hybrid
// campaigns: an AFL-style fixed-size table of hashed edge counters with
// bucketed hit counts, deterministic signatures for input deduplication,
// and the merge/diff/rarity operations the mutational fuzzer's scheduler
// needs. A Map records one execution; a Global accumulates a whole corpus
// and remembers how many inputs reached each edge, which is what makes
// rare-edge-favoring scheduling cheap.
package coverage

import "slices"

// MapBits sizes the edge table; 2^16 counters keeps the map at 128 KiB and
// the collision rate negligible for per-instruction IR bodies.
const (
	MapBits = 16
	MapSize = 1 << MapBits
)

// Version participates in corpus cache keys: bump on any change to edge
// hashing, bucketing, or signatures so stale cached hybrid results are not
// replayed.
const Version = 1

// Map is one execution's edge-hit counters. It also lists the counters it
// has touched, so every operation but New works on the edges hit instead of
// scanning the whole table, and a Reset map is cheap to reuse. Reads sort
// that list in place, so a Map is not safe for concurrent use, even by
// readers.
type Map struct {
	counts  []uint16
	touched []uint32 // indexes with a nonzero counter
}

// Hit is one nonzero edge counter.
type Hit struct {
	Idx   uint32
	Count uint16
}

// New returns an empty coverage map.
func New() *Map { return &Map{counts: make([]uint16, MapSize)} }

// ProgID derives a stable 64-bit identity for an IR program from its name
// (FNV-1a), mixed into every edge index so identical (from, to) pairs in
// different programs land on different counters.
func ProgID(name string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return h
}

// mix64 is the splitmix64 finalizer: full-avalanche, so consecutive
// statement indexes spread across the whole table.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// EdgeIndex hashes one control-flow edge into the table.
func EdgeIndex(progID uint64, from, to int) uint32 {
	h := mix64(progID ^ mix64(uint64(int64(from))<<32|uint64(uint32(to))))
	return uint32(h) & (MapSize - 1)
}

// Add records one traversal of an edge (saturating at the counter maximum).
func (m *Map) Add(progID uint64, from, to int) {
	m.AddIndex(EdgeIndex(progID, from, to))
}

// AddIndex records one traversal of an already-hashed edge.
func (m *Map) AddIndex(idx uint32) {
	c := m.counts[idx]
	if c == 0 {
		m.touched = append(m.touched, idx)
	}
	if c != ^uint16(0) {
		m.counts[idx] = c + 1
	}
}

// edges sorts the touched indexes in place and returns them.
func (m *Map) edges() []uint32 {
	slices.Sort(m.touched)
	return m.touched
}

// Bucket maps a raw hit count onto its AFL-style power-of-two class
// (0 for never hit, then 1, 2, 3, 4-7, 8-15, 16-31, 32-127, 128+). Two
// executions differing only within a class produce equal signatures.
func Bucket(n uint16) uint8 {
	switch {
	case n == 0:
		return 0
	case n <= 3:
		return uint8(n)
	case n <= 7:
		return 4
	case n <= 15:
		return 5
	case n <= 31:
		return 6
	case n <= 127:
		return 7
	default:
		return 8
	}
}

// Count returns the number of distinct edges hit.
func (m *Map) Count() int { return len(m.touched) }

// Edges returns the hit edge indexes in ascending order.
func (m *Map) Edges() []uint32 { return slices.Clone(m.edges()) }

// Hits returns the nonzero counters in ascending index order: the compact
// copy of the map a caller keeps after Reset.
func (m *Map) Hits() []Hit {
	out := make([]Hit, len(m.touched))
	for i, idx := range m.edges() {
		out[i] = Hit{idx, m.counts[idx]}
	}
	return out
}

// Signature folds the bucketed map into a 64-bit fingerprint (FNV-1a over
// ascending (index, bucket) pairs). Deterministic: a pure function of the
// map contents, independent of insertion order, so it is safe to dedupe a
// corpus by signature across runs and worker counts.
func (m *Map) Signature() uint64 {
	h := uint64(14695981039346656037)
	step := func(b byte) {
		h ^= uint64(b)
		h *= 1099511628211
	}
	for _, i := range m.edges() {
		step(byte(i))
		step(byte(i >> 8))
		step(Bucket(m.counts[i]))
	}
	return h
}

// Merge folds another execution's counters into m (saturating add),
// returning how many edges were new to m.
func (m *Map) Merge(o *Map) int {
	newEdges := 0
	for _, i := range o.touched {
		c := o.counts[i]
		if m.counts[i] == 0 {
			m.touched = append(m.touched, i)
			newEdges++
		}
		if s := uint32(m.counts[i]) + uint32(c); s > uint32(^uint16(0)) {
			m.counts[i] = ^uint16(0)
		} else {
			m.counts[i] = uint16(s)
		}
	}
	return newEdges
}

// Reset clears the map for reuse.
func (m *Map) Reset() {
	for _, i := range m.touched {
		m.counts[i] = 0
	}
	m.touched = m.touched[:0]
}

// Global accumulates corpus-wide coverage: the set of (edge, bucket)
// classes any input has reached, and the number of inputs that hit each
// edge. The latter is the scheduler's rarity signal.
type Global struct {
	buckets []uint16 // bitmask of bucket classes seen per edge
	inputs  []uint32 // number of inputs that hit the edge
	edges   int      // distinct edges seen
}

// NewGlobal returns an empty corpus accumulator.
func NewGlobal() *Global {
	return &Global{buckets: make([]uint16, MapSize), inputs: make([]uint32, MapSize)}
}

// AddInput folds one execution's counters (Map.Hits) into the accumulator,
// returning the number of edges never seen before and the number of new
// (edge, bucket) classes (AFL's "new bits": nonzero exactly when the input
// is interesting).
func (g *Global) AddInput(hits []Hit) (newEdges, newBits int) {
	for _, h := range hits {
		i, c := h.Idx, h.Count
		if g.inputs[i] == 0 {
			newEdges++
			g.edges++
		}
		g.inputs[i]++
		bit := uint16(1) << Bucket(c)
		if g.buckets[i]&bit == 0 {
			g.buckets[i] |= bit
			newBits++
		}
	}
	return newEdges, newBits
}

// Edges returns the number of distinct edges any input has hit.
func (g *Global) Edges() int { return g.edges }

// Rarity counts how many of the given edges at most maxHits inputs have
// reached — the scheduling weight of an input holding those edges.
func (g *Global) Rarity(edges []uint32, maxHits uint32) int {
	n := 0
	for _, e := range edges {
		if c := g.inputs[e]; c > 0 && c <= maxHits {
			n++
		}
	}
	return n
}
