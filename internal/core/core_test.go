package core

import (
	"maps"
	"testing"

	"pokeemu/internal/expr"
	"pokeemu/internal/ir"
	"pokeemu/internal/symex"
	"pokeemu/internal/x86"
)

func findUnique(t *testing.T, key string) *UniqueInstr {
	t.Helper()
	for _, u := range ExploreInstructionSet().Unique {
		if u.Key() == key {
			return u
		}
	}
	t.Fatalf("unique instruction %q not found", key)
	return nil
}

func TestInstrSetExplorationShape(t *testing.T) {
	res := ExploreInstructionSet()
	// The raw three-byte space is 2^24; exploration must cut it down by
	// orders of magnitude while still finding a few hundred thousand
	// candidate sequences and a few hundred unique instructions — the
	// Section 6.1 shape.
	if res.ExploredPaths >= 1<<24/10 {
		t.Errorf("explored %d paths; expected a large reduction from 2^24", res.ExploredPaths)
	}
	if len(res.Candidates) < 10000 {
		t.Errorf("candidates = %d, suspiciously few", len(res.Candidates))
	}
	if len(res.Unique) < 200 || len(res.Unique) > 2000 {
		t.Errorf("unique = %d, want hundreds", len(res.Unique))
	}
	// Every candidate must actually decode.
	for _, c := range res.Candidates[:100] {
		full := make([]byte, x86.MaxInstLen)
		copy(full, c.Bytes[:])
		if _, err := x86.Decode(full); err != nil {
			t.Fatalf("candidate % x does not decode: %v", c.Bytes, err)
		}
	}
}

func TestInstrSetCoverage(t *testing.T) {
	res := ExploreInstructionSet()
	// Exploration must discover every handler reachable within three bytes
	// (all of them: our longest opcode+modrm form fits in three bytes).
	found := map[string]bool{}
	for _, u := range res.Unique {
		found[u.Spec.Name] = true
	}
	for _, s := range x86.AllSpecs() {
		if !found[s.Name] {
			t.Errorf("handler %q never discovered", s.Name)
		}
	}
}

func TestRepresentativesAreShortest(t *testing.T) {
	res := ExploreInstructionSet()
	for _, u := range res.Unique {
		// A representative must not start with a redundant prefix unless
		// the key demands one (the /16 operand-size variants).
		if u.OpSize == 32 && len(u.Repr) > 0 {
			switch u.Repr[0] {
			case 0x26, 0x2e, 0x36, 0x3e, 0x64, 0x65, 0xf0, 0xf2, 0xf3:
				// Segment/lock/rep prefixes are only acceptable for string
				// ops (rep forms share the handler) — reject for others.
				if u.Spec.Mn[0] != 'm' && u.Spec.Mn[0] != 'c' &&
					u.Spec.Mn[0] != 's' && u.Spec.Mn[0] != 'l' {
					t.Errorf("%s representative % x starts with a redundant prefix",
						u.Key(), u.Repr)
				}
			}
		}
	}
}

func TestExploreStateSimpleALU(t *testing.T) {
	ex, err := NewExplorer(symex.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// add %ebx, %eax in its register form: no memory → very few paths,
	// all completing normally. (The partition representative of the
	// handler is a memory form, so build the register form explicitly.)
	inst, err := x86.Decode([]byte{0x01, 0xd8})
	if err != nil {
		t.Fatal(err)
	}
	u := &UniqueInstr{Spec: inst.Spec, OpSize: 32, Repr: []byte{0x01, 0xd8}}
	res, err := ex.ExploreState(u)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exhausted {
		t.Error("register add must be exhaustively explorable")
	}
	if len(res.Tests) == 0 || len(res.Tests) > 8 {
		t.Errorf("register add paths = %d, want a handful", len(res.Tests))
	}
	for _, tc := range res.Tests {
		if tc.Outcome.Kind != ir.OutEnd {
			t.Errorf("register add path raised %v", tc.Outcome)
		}
	}
}

func TestExploreStateFaultCoverage(t *testing.T) {
	ex, err := NewExplorer(symex.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// push explores the stack-segment checks and the page walk: the path
	// set must include #SS, #PF, and successful outcomes.
	u := findUnique(t, "push_r")
	res, err := ex.ExploreState(u)
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]bool{}
	for _, tc := range res.Tests {
		switch {
		case tc.Outcome.Kind == ir.OutEnd:
			kinds["ok"] = true
		case tc.Outcome.Vector == x86.ExcSS:
			kinds["ss"] = true
		case tc.Outcome.Vector == x86.ExcPF:
			kinds["pf"] = true
		}
	}
	for _, k := range []string{"ok", "ss", "pf"} {
		if !kinds[k] {
			t.Errorf("push exploration missing outcome class %q", k)
		}
	}
	if !res.Exhausted {
		t.Error("push should be exhaustively explorable at the default cap")
	}
}

func TestExploreStatePathCap(t *testing.T) {
	opts := symex.DefaultOptions()
	opts.MaxPaths = 10
	ex, err := NewExplorer(opts)
	if err != nil {
		t.Fatal(err)
	}
	u := findUnique(t, "push_r")
	res, err := ex.ExploreState(u)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tests) != 10 {
		t.Errorf("paths = %d, want the cap 10", len(res.Tests))
	}
	if res.Exhausted {
		t.Error("cannot be exhausted at cap 10")
	}
}

func TestModelsAreMinimized(t *testing.T) {
	ex, err := NewExplorer(symex.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	u := findUnique(t, "push_r")
	res, err := ex.ExploreState(u)
	if err != nil {
		t.Fatal(err)
	}
	// After minimization the per-test state differences are small: the
	// symbolic state has ~2100 variables, a raw solver model would disturb
	// hundreds of bits.
	for _, tc := range res.Tests {
		if n := len(tc.Diffs()); n > 40 {
			t.Errorf("%s: %d vars differ from baseline; minimization ineffective", tc.ID, n)
		}
	}
}

// TestAssignmentIsSparse pins the witness contract: a test's Assignment
// holds exactly the variables that differ from baseline, Value falls back
// to the baseline for the rest, and the total assignment Value describes
// cuts back to the same map under DiffsOf.
func TestAssignmentIsSparse(t *testing.T) {
	opts := symex.DefaultOptions()
	opts.MaxPaths = 16
	ex, err := NewExplorer(opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ex.ExploreState(findUnique(t, "push_r"))
	if err != nil {
		t.Fatal(err)
	}
	differing := 0
	for _, tc := range res.Tests {
		for name, v := range tc.Assignment {
			if v == tc.Baseline[name]&expr.Mask(tc.Widths[name]) {
				t.Errorf("%s: %s is at baseline %#x but in the assignment", tc.ID, name, v)
			}
		}
		total := make(map[string]uint64, len(tc.Widths))
		for name := range tc.Widths {
			total[name] = tc.Value(name)
			if _, ok := tc.Assignment[name]; !ok && total[name] != tc.Baseline[name] {
				t.Errorf("%s: Value(%s) = %#x, baseline %#x", tc.ID, name, total[name], tc.Baseline[name])
			}
		}
		if got := DiffsOf(total, tc.Baseline, tc.Widths); !maps.Equal(got, tc.Diffs()) {
			t.Errorf("%s: DiffsOf(total) = %v, Diffs() = %v", tc.ID, got, tc.Diffs())
		}
		differing += len(tc.Assignment)
	}
	if differing == 0 {
		t.Error("no test state differs from baseline; the check is vacuous")
	}
}

func TestSummaryAblation(t *testing.T) {
	opts := symex.DefaultOptions()
	opts.MaxPaths = 64
	ex, err := NewExplorer(opts)
	if err != nil {
		t.Fatal(err)
	}
	ex.UseSummaries = false
	u := findUnique(t, "push_r")
	res, err := ex.ExploreState(u)
	if err != nil {
		t.Fatal(err)
	}
	// Without summaries, segment caches are free variables: exploration
	// still works, but the resulting test states reference cache fields
	// directly and are unliftable — the summary is what makes the states
	// realizable through GDT writes.
	foundCacheVar := false
	for _, tc := range res.Tests {
		for name := range tc.Diffs() {
			if loc, ok := tc.VarLoc[name]; ok &&
				(loc.Kind == x86.LocSegLimit || loc.Kind == x86.LocSegAttr ||
					loc.Kind == x86.LocSegBase) {
				foundCacheVar = true
			}
		}
	}
	if !foundCacheVar {
		t.Error("ablation should expose raw descriptor-cache variables")
	}
}

func TestBaselineSelectorMapping(t *testing.T) {
	if BaselineSelector(x86.SS) != 0x50 {
		t.Error("SS must use selector 0x50 (GDT index 10, the Figure 5 layout)")
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic for an invalid segment register")
		}
	}()
	BaselineSelector(x86.SegReg(9))
}

func TestExplorationCoverage(t *testing.T) {
	ex, err := NewExplorer(symex.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	u := findUnique(t, "push_r")
	res, err := ex.ExploreState(u)
	if err != nil {
		t.Fatal(err)
	}
	// Exhaustive exploration must reach the vast majority of the IR (the
	// paper: "static coverage appeared very high"); only statements guarding
	// other modes stay dark (e.g. the paging-disabled arm).
	st := res.Stats
	if st.StmtsTotal == 0 {
		t.Fatal("no IR statements counted")
	}
	if cov := float64(st.StmtsCovered) / float64(st.StmtsTotal); cov < 0.9 {
		t.Errorf("statement coverage %.2f, want ≥0.90", cov)
	}
}
