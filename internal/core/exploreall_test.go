package core

import (
	"testing"

	"pokeemu/internal/ir"
	"pokeemu/internal/symex"
)

// TestExploreEveryInstruction is the robustness sweep: symbolic exploration
// must handle every unique instruction in the decode tables without
// panicking or wedging, at a small path cap. This is the smoke equivalent
// of the paper's full 880-instruction run (the full-cap campaign lives in
// cmd/pokeemu and the benchmarks).
func TestExploreEveryInstruction(t *testing.T) {
	if testing.Short() {
		t.Skip("full-table sweep skipped in -short mode")
	}
	opts := symex.DefaultOptions()
	opts.MaxPaths = 3
	opts.MaxSteps = 1 << 14
	ex, err := NewExplorer(opts)
	if err != nil {
		t.Fatal(err)
	}
	unique := ExploreInstructionSet().Unique
	explored, paths := 0, 0
	for _, u := range unique {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%s: exploration panicked: %v", u.Key(), r)
				}
			}()
			res, err := ex.ExploreState(u)
			if err != nil {
				t.Errorf("%s: %v", u.Key(), err)
				return
			}
			explored++
			paths += len(res.Tests)
			for _, tc := range res.Tests {
				// Every non-aborted path must have a concrete outcome.
				if !tc.Aborted && tc.Outcome.Kind == ir.OutRaise && tc.Outcome.Vector > 32 &&
					!tc.Outcome.Soft {
					t.Errorf("%s: suspicious vector %d", tc.ID, tc.Outcome.Vector)
				}
				// Every assigned variable must be a known symbolic var.
				// (The assignment holds only the variables that differ
				// from baseline, and Widths is shared and may grow on
				// later paths, so the subset relation is the invariant.)
				for name := range tc.Assignment {
					if _, ok := tc.Widths[name]; !ok {
						t.Errorf("%s: model names unknown variable %s", tc.ID, name)
					}
				}
			}
		}()
	}
	if explored != len(unique) {
		t.Errorf("explored %d of %d unique instructions", explored, len(unique))
	}
	t.Logf("swept %d instructions, %d paths", explored, paths)
}
