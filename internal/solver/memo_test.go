package solver

import (
	"encoding/binary"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"pokeemu/internal/expr"
)

// TestCheckLitsMemo verifies the assumption-set memo: a repeated query is
// answered from the cache (order-insensitively), the restored model is as
// usable as a freshly solved one, and Assert invalidates everything.
func TestCheckLitsMemo(t *testing.T) {
	b := NewBV()
	x := expr.Var(8, "x")
	la := b.LitFor(expr.Eq(x, expr.Const(8, 5)))
	lb := b.LitFor(expr.Ult(expr.Const(8, 1), x))

	if st := b.CheckLits([]Lit{la, lb}); st != Sat {
		t.Fatalf("first query = %v, want Sat", st)
	}
	if b.MemoHits != 0 || b.MemoMisses != 1 {
		t.Fatalf("after miss: hits=%d misses=%d", b.MemoHits, b.MemoMisses)
	}
	// Same set, reversed order: must hit, and the model must still say x=5.
	if st := b.CheckLits([]Lit{lb, la}); st != Sat {
		t.Fatalf("repeat query = %v, want Sat", st)
	}
	if b.MemoHits != 1 {
		t.Fatalf("reordered repeat did not hit the memo: hits=%d", b.MemoHits)
	}
	if v := b.ModelVal("x"); v != 5 {
		t.Fatalf("model after memo hit: x=%d, want 5", v)
	}

	// Sign-aware: the negated assumption is a different query.
	if st := b.CheckLits([]Lit{la.Neg(), lb}); st != Sat {
		t.Fatalf("negated query = %v, want Sat", st)
	}
	if b.MemoHits != 1 || b.MemoMisses != 2 {
		t.Fatalf("negated literal reused an entry: hits=%d misses=%d", b.MemoHits, b.MemoMisses)
	}
	if v := b.ModelVal("x"); v == 5 || v <= 1 {
		t.Fatalf("model for negated query: x=%d, want x!=5 && x>1", v)
	}

	// A new hard constraint can flip Sat answers; the memo must not survive.
	b.Assert(expr.Ne(x, expr.Const(8, 5)))
	if st := b.CheckLits([]Lit{la, lb}); st != Unsat {
		t.Fatalf("post-Assert query = %v, want Unsat", st)
	}
	if b.MemoHits != 1 {
		t.Fatalf("memo served a stale entry across Assert: hits=%d", b.MemoHits)
	}
}

// TestCheckLitsMemoModelRestoredForLaterVars checks the documented edge:
// after a memo hit restores an older model snapshot, variables encoded
// after the snapshot read as zero instead of garbage.
func TestCheckLitsMemoModelRestoredForLaterVars(t *testing.T) {
	b := NewBV()
	x := expr.Var(8, "x")
	l := b.LitFor(expr.Eq(x, expr.Const(8, 7)))
	if st := b.CheckLits([]Lit{l}); st != Sat {
		t.Fatal("seed query not Sat")
	}
	// Encode a new variable, then re-ask the memoized query.
	y := expr.Var(8, "y")
	ly := b.LitFor(expr.Eq(y, expr.Const(8, 200)))
	if st := b.CheckLits([]Lit{ly}); st != Sat {
		t.Fatal("y query not Sat")
	}
	if st := b.CheckLits([]Lit{l}); st != Sat {
		t.Fatal("memoized query not Sat")
	}
	if b.MemoHits != 1 {
		t.Fatalf("expected one memo hit, got %d", b.MemoHits)
	}
	if v := b.ModelVal("x"); v != 7 {
		t.Fatalf("restored model: x=%d, want 7", v)
	}
	if v := b.ModelVal("y"); v != 0 {
		t.Fatalf("variable newer than the snapshot: y=%d, want 0", v)
	}
}

// TestSolverCachesBounded is the regression test for unbounded cache
// growth: flooding one BV with far more distinct terms and queries than
// the cache caps must leave every cache at or under its bound.
func TestSolverCachesBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("floods caches")
	}
	b := NewBV()
	x := expr.Var(32, "x")
	// A few hundred base literals combined pairwise give tens of thousands
	// of distinct assumption sets over one small CNF, so the flood is cheap.
	base := make([]Lit, 220)
	for i := range base {
		base[i] = b.LitFor(expr.Ult(x, expr.Const(32, uint64(i)+1)))
	}
	queries := 0
	for i := 0; i < len(base) && queries < checkMemoCap+checkMemoCap/2; i++ {
		for j := i + 1; j < len(base) && queries < checkMemoCap+checkMemoCap/2; j++ {
			if st := b.CheckLits([]Lit{base[i], base[j]}); st != Sat {
				t.Fatalf("query (%d,%d) = %v, want Sat", i, j, st)
			}
			queries++
		}
	}
	if len(b.memo) > checkMemoCap {
		t.Fatalf("check memo exceeded its cap: %d > %d", len(b.memo), checkMemoCap)
	}
	if len(b.ptr) > encodeCacheCap || len(b.hmemo) > encodeCacheCap {
		t.Fatalf("translation caches exceeded their cap: ptr=%d hmemo=%d > %d",
			len(b.ptr), len(b.hmemo), encodeCacheCap)
	}
}

// memoKeySortSlice is the memo key as first written, with the reflective
// sort.Slice: the reference memoKey's bytes must equal.
func memoKeySortSlice(lits []Lit) string {
	s := make([]Lit, len(lits))
	copy(s, lits)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	buf := make([]byte, 4*len(s))
	for i, l := range s {
		binary.LittleEndian.PutUint32(buf[i*4:], uint32(l))
	}
	return string(buf)
}

// TestMemoKeyMatchesReference checks memoKey on seeded random assumption
// sets: the key equals the sort.Slice reference byte for byte, is the same
// for every order of the literals, differs when one literal is negated, and
// never reorders the caller's slice.
func TestMemoKeyMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	var b BV
	memoKey := func(lits []Lit) string { return string(b.memoKey(lits)) }
	for iter := 0; iter < 2000; iter++ {
		lits := make([]Lit, r.Intn(40))
		for i := range lits {
			lits[i] = MkLit(r.Intn(1<<20), r.Intn(2) == 1)
		}
		orig := slices.Clone(lits)
		key := memoKey(lits)
		if !slices.Equal(lits, orig) {
			t.Fatalf("iter %d: memoKey reordered its argument", iter)
		}
		if want := memoKeySortSlice(lits); key != want {
			t.Fatalf("iter %d: key %x, reference %x", iter, key, want)
		}
		perm := slices.Clone(lits)
		r.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		if memoKey(perm) != key {
			t.Fatalf("iter %d: key depends on literal order", iter)
		}
		if len(lits) == 0 {
			continue
		}
		flipped := slices.Clone(lits)
		k := r.Intn(len(flipped))
		flipped[k] = flipped[k].Neg()
		if memoKey(flipped) == key {
			t.Fatalf("iter %d: negating %d kept the key", iter, lits[k])
		}
	}
}

// TestCheckLitsMemoHitAllocFree checks that a memo hit allocates nothing:
// the key is sorted and packed in the BV's own buffers and looked up
// without a string copy, which only an insert makes.
func TestCheckLitsMemoHitAllocFree(t *testing.T) {
	b := NewBV()
	x := expr.Var(8, "x")
	lits := []Lit{b.LitFor(expr.Ult(expr.Const(8, 1), x)), b.LitFor(expr.Eq(x, expr.Const(8, 5)))}
	if st := b.CheckLits(lits); st != Sat {
		t.Fatalf("first query = %v, want Sat", st)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if st := b.CheckLits(lits); st != Sat {
			t.Fatalf("repeat query = %v, want Sat", st)
		}
	})
	if allocs != 0 {
		t.Errorf("memo hit: %v allocations", allocs)
	}
	if b.MemoHits < 100 {
		t.Errorf("memo hits %d, want every repeat to hit", b.MemoHits)
	}
}
