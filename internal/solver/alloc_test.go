//go:build !race

// The race detector instruments allocations, so allocation counts only
// hold without it.

package solver

import "testing"

// TestRecycledSolverAllocFree checks that a solver built on warm storage
// — released by a solver that ran the same formula — grows nothing: a
// NewVar or an AddClause within the storage's capacity allocates nothing,
// the normalized clause included.
func TestRecycledSolverAllocFree(t *testing.T) {
	const nVars = 80
	clauses := randCNF(5, nVars, 320)
	warm := newSatOn(nil)
	for v := 0; v < nVars; v++ {
		warm.NewVar()
	}
	for _, c := range clauses {
		warm.AddClause(c...)
	}
	attached := warm.NumClauses()
	warm.Solve(nil)
	s := newSatOn(warm.release())

	// AllocsPerRun calls f once more than runs, to warm up.
	if allocs := testing.AllocsPerRun(nVars-1, func() { s.NewVar() }); allocs != 0 {
		t.Errorf("NewVar: %v allocations", allocs)
	}
	i := 0
	allocs := testing.AllocsPerRun(len(clauses)-1, func() {
		s.AddClause(clauses[i]...)
		i++
	})
	if allocs != 0 {
		t.Errorf("AddClause: %v allocations", allocs)
	}
	if s.NumVars() != nVars || s.NumClauses() != attached {
		t.Fatalf("rebuilt %d vars %d clauses", s.NumVars(), s.NumClauses())
	}
}
