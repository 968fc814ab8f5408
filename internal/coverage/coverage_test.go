package coverage

import (
	"math/rand"
	"slices"
	"testing"
)

func TestProgIDStable(t *testing.T) {
	if ProgID("add_rm8_r8") != ProgID("add_rm8_r8") {
		t.Fatal("ProgID not stable")
	}
	if ProgID("a") == ProgID("b") {
		t.Fatal("ProgID collides on distinct names")
	}
}

func TestEdgeIndexSpread(t *testing.T) {
	pid := ProgID("p")
	seen := make(map[uint32]bool)
	for from := -1; from < 64; from++ {
		for to := 0; to < 64; to++ {
			seen[EdgeIndex(pid, from, to)] = true
		}
	}
	// 65*64 edges should land on nearly as many distinct slots of 65536.
	if len(seen) < 4000 {
		t.Fatalf("edge hash clustering: %d distinct slots", len(seen))
	}
	if EdgeIndex(pid, 3, 7) == EdgeIndex(ProgID("q"), 3, 7) {
		t.Fatal("same edge in different programs hashed identically")
	}
}

func TestBucketClasses(t *testing.T) {
	cases := []struct {
		n    uint16
		want uint8
	}{{0, 0}, {1, 1}, {2, 2}, {3, 3}, {4, 4}, {7, 4}, {8, 5}, {15, 5},
		{16, 6}, {31, 6}, {32, 7}, {127, 7}, {128, 8}, {60000, 8}}
	for _, c := range cases {
		if got := Bucket(c.n); got != c.want {
			t.Errorf("Bucket(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestAddCountSignature(t *testing.T) {
	pid := ProgID("p")
	m := New()
	if m.Count() != 0 {
		t.Fatal("fresh map not empty")
	}
	empty := m.Signature()
	m.Add(pid, -1, 0)
	m.Add(pid, 0, 5)
	m.Add(pid, 0, 5)
	if m.Count() != 2 {
		t.Fatalf("Count = %d, want 2", m.Count())
	}
	if m.Signature() == empty {
		t.Fatal("signature unchanged after adds")
	}

	// Order-independence: same edges added in another order hash equal.
	o := New()
	o.Add(pid, 0, 5)
	o.Add(pid, -1, 0)
	o.Add(pid, 0, 5)
	if m.Signature() != o.Signature() {
		t.Fatal("signature depends on insertion order")
	}

	// Within-bucket count changes keep the signature; crossing a bucket
	// boundary changes it.
	sig := o.Signature()
	o.Add(pid, 0, 5) // 2 -> 3 crosses (buckets 1,2,3 are exact)
	if o.Signature() == sig {
		t.Fatal("bucket transition did not change signature")
	}
	for i := 0; i < 2; i++ {
		o.Add(pid, 0, 5) // 3 -> 5: 4 and 5 share the 4-7 bucket
	}
	sig = o.Signature()
	o.Add(pid, 0, 5) // 5 -> 6 stays in 4-7
	if o.Signature() != sig {
		t.Fatal("within-bucket count change altered signature")
	}
}

func TestCounterSaturates(t *testing.T) {
	m := New()
	idx := EdgeIndex(ProgID("p"), 0, 1)
	for i := 0; i < 70000; i++ {
		m.AddIndex(idx)
	}
	if m.counts[idx] != ^uint16(0) {
		t.Fatalf("counter wrapped: %d", m.counts[idx])
	}
}

func TestEdgesMergeDiff(t *testing.T) {
	pid := ProgID("p")
	a, b := New(), New()
	a.Add(pid, 0, 1)
	a.Add(pid, 1, 2)
	b.Add(pid, 1, 2)
	b.Add(pid, 2, 3)

	ea := a.Edges()
	if len(ea) != 2 {
		t.Fatalf("Edges len = %d", len(ea))
	}
	for i := 1; i < len(ea); i++ {
		if ea[i] <= ea[i-1] {
			t.Fatal("Edges not ascending")
		}
	}

	if got := a.Merge(b); got != 1 {
		t.Fatalf("Merge new edges = %d, want 1", got)
	}
	if a.Count() != 3 {
		t.Fatalf("merged Count = %d, want 3", a.Count())
	}
	// Merge saturates rather than wrapping.
	sat := New()
	idx := EdgeIndex(pid, 9, 9)
	for i := 0; i < int(^uint16(0))-1; i++ {
		sat.AddIndex(idx)
	}
	add := New()
	for i := 0; i < 5; i++ {
		add.AddIndex(idx)
	}
	sat.Merge(add)
	if sat.counts[idx] != ^uint16(0) {
		t.Fatalf("merge wrapped: %d", sat.counts[idx])
	}

	a.Reset()
	if a.Count() != 0 {
		t.Fatal("Reset left edges behind")
	}
}

func TestGlobalAccumulation(t *testing.T) {
	pid := ProgID("p")
	g := NewGlobal()

	m1 := New()
	m1.Add(pid, 0, 1)
	m1.Add(pid, 1, 2)
	newEdges, newBits := g.AddInput(m1.Hits())
	if newEdges != 2 || newBits != 2 {
		t.Fatalf("first input: edges %d bits %d", newEdges, newBits)
	}

	// Same map again: no new edges, no new bucket classes.
	newEdges, newBits = g.AddInput(m1.Hits())
	if newEdges != 0 || newBits != 0 {
		t.Fatalf("repeat input: edges %d bits %d", newEdges, newBits)
	}

	// Same edge, higher bucket: a new class but not a new edge.
	m2 := New()
	for i := 0; i < 10; i++ {
		m2.Add(pid, 0, 1)
	}
	newEdges, newBits = g.AddInput(m2.Hits())
	if newEdges != 0 || newBits != 1 {
		t.Fatalf("hotter input: edges %d bits %d", newEdges, newBits)
	}

	if g.Edges() != 2 {
		t.Fatalf("Edges = %d, want 2", g.Edges())
	}
	e01 := EdgeIndex(pid, 0, 1)
	e12 := EdgeIndex(pid, 1, 2)
	if g.inputs[e01] != 3 || g.inputs[e12] != 2 {
		t.Fatalf("inputs = %d,%d", g.inputs[e01], g.inputs[e12])
	}

	// Edge e12 is rarer (2 hits) than e01 (3).
	if g.Rarity([]uint32{e12}, 2) != 1 || g.Rarity([]uint32{e01}, 2) != 0 {
		t.Fatal("Rarity(2) does not single out e12")
	}
	if got := g.Rarity(m1.Edges(), 2); got != 1 {
		t.Fatalf("Rarity = %d, want 1", got)
	}
	if got := g.Rarity(m1.Edges(), 10); got != 2 {
		t.Fatalf("Rarity(10) = %d, want 2", got)
	}
}

// Dense-scan references: the whole-table loops the touched list replaced.

func denseEdges(m *Map) []uint32 {
	out := make([]uint32, 0, 64)
	for i, c := range m.counts {
		if c != 0 {
			out = append(out, uint32(i))
		}
	}
	return out
}

func denseSignature(m *Map) uint64 {
	h := uint64(14695981039346656037)
	step := func(b byte) {
		h ^= uint64(b)
		h *= 1099511628211
	}
	for i, c := range m.counts {
		if c == 0 {
			continue
		}
		step(byte(i))
		step(byte(i >> 8))
		step(Bucket(c))
	}
	return h
}

func denseAddInput(g *Global, m *Map) (newEdges, newBits int) {
	for i, c := range m.counts {
		if c == 0 {
			continue
		}
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

// randomMap fills m (after a Reset) with seeded random hits: a few hot
// edges, many cold ones, some saturated.
func randomMap(rng *rand.Rand, m *Map) {
	m.Reset()
	for n := rng.Intn(400); n > 0; n-- {
		idx := uint32(rng.Intn(MapSize))
		if rng.Intn(8) == 0 {
			idx &= 0xff // cluster some edges to force repeats
		}
		for k := 1 + rng.Intn(40); k > 0; k-- {
			m.AddIndex(idx)
		}
	}
	if rng.Intn(4) == 0 {
		idx := uint32(rng.Intn(MapSize))
		for k := 0; k < 70000; k++ {
			m.AddIndex(idx)
		}
	}
}

// TestSparseMatchesDenseScan checks every touched-list operation against
// the dense scan on seeded random maps, with one map reused across
// iterations the way the hybrid fuzzer reuses its per-worker map.
func TestSparseMatchesDenseScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m, o := New(), New()
	g, dg := NewGlobal(), NewGlobal()
	for iter := 0; iter < 200; iter++ {
		randomMap(rng, m)
		randomMap(rng, o)
		if got, want := m.Edges(), denseEdges(m); !slices.Equal(got, want) {
			t.Fatalf("iter %d: Edges = %v, want %v", iter, got, want)
		}
		if got, want := m.Count(), len(denseEdges(m)); got != want {
			t.Fatalf("iter %d: Count = %d, want %d", iter, got, want)
		}
		if got, want := m.Signature(), denseSignature(m); got != want {
			t.Fatalf("iter %d: Signature = %#x, want %#x", iter, got, want)
		}
		hits := m.Hits()
		if len(hits) != m.Count() {
			t.Fatalf("iter %d: %d hits for %d edges", iter, len(hits), m.Count())
		}
		for i, h := range hits {
			if h.Count != m.counts[h.Idx] || (i > 0 && h.Idx <= hits[i-1].Idx) {
				t.Fatalf("iter %d: hit %d = %+v not an ascending copy of the counters", iter, i, h)
			}
		}
		ge, gb := g.AddInput(hits)
		de, db := denseAddInput(dg, m)
		if ge != de || gb != db || g.Edges() != dg.Edges() {
			t.Fatalf("iter %d: AddInput = (%d, %d), %d edges; dense (%d, %d), %d edges",
				iter, ge, gb, g.Edges(), de, db, dg.Edges())
		}
		want := slices.Clone(m.counts)
		newEdges := 0
		for i, c := range o.counts {
			if c == 0 {
				continue
			}
			if want[i] == 0 {
				newEdges++
			}
			want[i] = uint16(min(uint32(want[i])+uint32(c), uint32(^uint16(0))))
		}
		if got := m.Merge(o); got != newEdges || !slices.Equal(m.counts, want) {
			t.Fatalf("iter %d: Merge = %d new edges, want %d (or counters differ)", iter, got, newEdges)
		}
		if got, want := m.Signature(), denseSignature(m); got != want {
			t.Fatalf("iter %d: merged Signature = %#x, want %#x", iter, got, want)
		}
	}
	if !slices.Equal(g.inputs, dg.inputs) || !slices.Equal(g.buckets, dg.buckets) {
		t.Fatal("accumulated Global differs from the dense scan")
	}
	m.Reset()
	if slices.ContainsFunc(m.counts, func(c uint16) bool { return c != 0 }) || m.Count() != 0 {
		t.Fatal("Reset left counters behind")
	}
}
