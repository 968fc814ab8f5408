package solver

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"pokeemu/internal/expr"
)

// usedStore solves a random formula over nVars variables under settings
// unlike the tests' (Reuse, a tiny ReduceBase, a Seed, a conflict budget)
// and returns its released storage: every array past length zero holds
// another solver's values, the trail stood above level 0 when it was
// released, and the LBD stamps were written under earlier tokens.
func usedStore(seed uint64, nVars int) *satStore {
	s := newSatOn(nil)
	for v := 0; v < nVars; v++ {
		s.NewVar()
	}
	s.Reuse = true
	s.ReduceBase = 2
	s.Seed = seed ^ 0x9e37
	s.MaxConflicts = 200
	for _, c := range randCNF(seed^0x77, nVars, nVars*3) {
		if !s.AddClause(c...) {
			break
		}
	}
	for _, a := range randAssumps(seed^0x77, nVars, 12) {
		s.Solve(a)
	}
	return s.release()
}

// recycledSat returns an empty solver built on the storage of a solve over
// a different formula of nVars variables.
func recycledSat(seed uint64, nVars int) *CDCL {
	return newSatOn(usedStore(seed, nVars))
}

// satRun is one query's observable outcome: the verdict, the model, and the
// search counters after it.
type satRun struct {
	st    Status
	model []bool
	stats [6]int64
}

// TestRecycledSolverMatchesFresh replays one incremental query sequence on
// a fresh solver and on one built on the storage of a larger, different
// solve. Storage reuse must not change the search at all: every verdict,
// model and counter — conflicts, decisions, propagations, restarts, reduce
// passes, removed clauses — is identical. The sequence runs with Reuse on,
// adds clauses while assumption levels stand, reduces the learned clauses
// several times (ReduceBase 3, RestartBase 2), perturbs the heuristic with
// a Seed, and gives some queries a conflict budget small enough to end
// Unknown.
func TestRecycledSolverMatchesFresh(t *testing.T) {
	const nVars = 150
	var sawSat, sawUnsat, sawUnknown bool
	var maxReduces int64
	for seed := uint64(1); seed <= 8; seed++ {
		clauses := randCNF(seed, nVars, 640)
		extra := randCNF(seed^0x55aa, nVars, 12)
		replay := func(s *CDCL) []satRun {
			for v := 0; v < nVars; v++ {
				s.NewVar()
			}
			s.Reuse = true
			s.ReduceBase = 3
			s.RestartBase = 2
			s.Seed = 97*seed + 1
			for _, c := range clauses {
				s.AddClause(c...)
			}
			var out []satRun
			for qi, a := range randAssumps(seed, nVars, 60) {
				if qi%4 == 1 && qi/4 < len(extra) {
					s.AddClause(extra[qi/4]...)
				}
				s.MaxConflicts = 0
				if qi%5 == 2 {
					s.MaxConflicts = 2
				}
				st := s.Solve(a)
				var m []bool
				if st == Sat {
					m = s.Model()
				}
				out = append(out, satRun{st, m, [6]int64{
					s.Conflicts, s.Decisions, s.Props, s.Restarts, s.Reduces, s.Removed}})
			}
			return out
		}
		want := replay(newSatOn(nil))
		st := usedStore(seed, 3*nVars)
		if st == nil || cap(st.assign) < 2*nVars || cap(st.arena) == 0 || st.lbdToken == 0 {
			t.Fatalf("seed %d: used storage was not kept for reuse", seed)
		}
		// A stale LBD stamp must never equal a token the next solver
		// counts: every stamp is at most the token it counts up from.
		if m := slices.Max(st.lbdStamp); m > st.lbdToken {
			t.Fatalf("seed %d: stale LBD stamp %d past the kept token %d", seed, m, st.lbdToken)
		}
		got := replay(newSatOn(st))
		for qi := range want {
			w, g := want[qi], got[qi]
			if w.st != g.st || !slices.Equal(w.model, g.model) || w.stats != g.stats {
				t.Fatalf("seed %d query %d: recycled solver %v %v, fresh %v %v",
					seed, qi, g.st, g.stats, w.st, w.stats)
			}
			sawSat = sawSat || w.st == Sat
			sawUnsat = sawUnsat || w.st == Unsat
			sawUnknown = sawUnknown || w.st == Unknown
		}
		maxReduces = max(maxReduces, want[len(want)-1].stats[4])
	}
	if !sawSat || !sawUnsat || !sawUnknown || maxReduces < 3 {
		t.Fatalf("sequence too weak: sat %v unsat %v unknown %v, at most %d reduce passes",
			sawSat, sawUnsat, sawUnknown, maxReduces)
	}

	// The bit-vector front-end: a BV built on a released BV's maps and core
	// answers a query sequence with the same verdicts, models and counters
	// as a fresh one.
	for _, strash := range []bool{false, true} {
		t.Run(strashName(strash), func(t *testing.T) {
			replay := func(b *BV) []string {
				b.Strash = strash
				b.Reuse, b.Subsume = true, true
				r := rand.New(rand.NewSource(11))
				var out []string
				for i := 0; i < 24; i++ {
					c := expr.Ult(randomBVExpr(r, 3, 8), randomBVExpr(r, 3, 8))
					st := b.Check([]*expr.Expr{c})
					var m map[string]uint64
					if st == Sat {
						m = b.Model()
					}
					out = append(out, fmt.Sprint(st, m, b.Queries, b.Encoded, b.MemoHits,
						b.SubsumeHits, b.sat.Conflicts, b.sat.Props, b.NumClauses(), b.NumVarsSAT()))
				}
				return out
			}
			want := replay(newBVOn(nil, newSatOn(nil)))
			used := newBVOn(nil, recycledSat(3, 60))
			used.Strash = true
			r := rand.New(rand.NewSource(99))
			for i := 0; i < 16; i++ {
				used.Check([]*expr.Expr{expr.Ult(randomBVExpr(r, 4, 8), randomBVExpr(r, 4, 8))})
			}
			st := used.release()
			if len(st.ptr) != 0 || len(st.gates) != 0 || len(st.memo) != 0 {
				t.Fatalf("released maps not emptied")
			}
			got := replay(newBVOn(st, newSatOn(used.sat.release())))
			if !slices.Equal(got, want) {
				t.Fatalf("recycled BV diverged:\n got %v\nwant %v", got, want)
			}
		})
	}
}

// mustPanic fails the test unless f panics.
func mustPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s after Release did not panic", name)
		}
	}()
	f()
}

// TestReleasedSolverPanics checks that every method of a released solver
// panics instead of working on storage a later solver now owns, that a
// second Release does nothing, and that results taken before Release stay
// valid.
func TestReleasedSolverPanics(t *testing.T) {
	s := NewSat()
	s.NewVar()
	s.AddClause(MkLit(0, false))
	if s.Solve(nil) != Sat {
		t.Fatal("trivial formula not Sat")
	}
	m := s.Model()
	s.Release()
	s.Release()
	if len(m) != 1 || !m[0] {
		t.Errorf("model taken before Release changed: %v", m)
	}
	for name, f := range map[string]func(){
		"NewVar":     func() { s.NewVar() },
		"AddClause":  func() { s.AddClause(MkLit(0, true)) },
		"Solve":      func() { s.Solve(nil) },
		"Value":      func() { s.Value(0) },
		"Model":      func() { s.Model() },
		"SetModel":   func() { s.SetModel(nil) },
		"NumVars":    func() { s.NumVars() },
		"NumClauses": func() { s.NumClauses() },
	} {
		mustPanic(t, "CDCL."+name, f)
	}

	b := NewBV()
	x := expr.Var(8, "x")
	c := expr.Eq(x, expr.Const(8, 7))
	if b.Check([]*expr.Expr{c}) != Sat {
		t.Fatal("x == 7 not Sat")
	}
	bm := b.Model()
	b.Release()
	b.Release()
	if !maps.Equal(bm, map[string]uint64{"x": 7}) {
		t.Errorf("model taken before Release changed: %v", bm)
	}
	for name, f := range map[string]func(){
		"Bits":       func() { b.Bits(x) },
		"LitFor":     func() { b.LitFor(c) },
		"Assert":     func() { b.Assert(c) },
		"Check":      func() { b.Check(nil) },
		"CheckLits":  func() { b.CheckLits(nil) },
		"Model":      func() { b.Model() },
		"ModelVars":  func() { b.ModelVars(func(string, uint64) {}) },
		"ModelVal":   func() { b.ModelVal("x") },
		"ValueOf":    func() { b.ValueOf(x) },
		"NumClauses": func() { b.NumClauses() },
		"NumVarsSAT": func() { b.NumVarsSAT() },
	} {
		mustPanic(t, "BV."+name, f)
	}
}

// TestStoragePoolBound checks the pool bound: storage under satStoreCap
// is kept on release and storage past it dropped, with watch lists counted
// whether they are the ended solver's own or lie past its length, left by
// a bigger solver before it.
func TestStoragePoolBound(t *testing.T) {
	// watchTail must equal the capacity of every list in the backing
	// array after each release, whatever the sizes of the solvers that
	// used the storage in turn.
	var st *satStore
	for i, nVars := range []int{150, 10, 60, 200, 3, 0, 90} {
		s := newSatOn(st)
		for v := 0; v < nVars; v++ {
			s.NewVar()
		}
		s.MaxConflicts = 100
		for _, c := range randCNF(uint64(i+1), max(nVars, 1), 3*nVars) {
			s.AddClause(c...)
		}
		s.Solve(nil)
		if st = s.release(); st == nil {
			t.Fatalf("release %d: storage dropped", i)
		}
		sum := 0
		for _, w := range st.watches[:cap(st.watches)] {
			sum += cap(w)
		}
		if sum != st.watchTail {
			t.Fatalf("release %d: watchTail %d, lists hold %d", i, st.watchTail, sum)
		}
	}

	big := newSatOn(nil)
	big.arena = make([]int32, 0, satStoreCap/4+1)
	if big.release() != nil {
		t.Fatal("storage past satStoreCap kept")
	}
	own := newSatOn(nil)
	own.NewVar()
	own.watches[1] = make([]watcher, 0, satStoreCap/8)
	if own.release() != nil {
		t.Fatal("storage with an outsized watch list kept")
	}
	left := newSatOn(st)
	left.watches = left.watches[:cap(left.watches)]
	left.watches[len(left.watches)-1] = make([]watcher, 0, satStoreCap/8)
	left.watches = left.watches[:0]
	left.watchTail += satStoreCap / 8
	left.NewVar()
	if left.release() != nil {
		t.Fatal("storage with an outsized watch list past the length kept")
	}

	// The BV maps: emptied on release, or dropped once past the bound.
	b := newBVOn(nil, newSatOn(nil))
	for i := 0; i <= bvStoreMapCap; i++ {
		b.vars[fmt.Sprint(i)] = nil
	}
	b.ptr[expr.Var(8, "x")] = nil
	bs := b.release()
	if bs.vars != nil || bs.ptr == nil || len(bs.ptr) != 0 {
		t.Fatalf("map past bvStoreMapCap kept or map under it dropped")
	}
}
