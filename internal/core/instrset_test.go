package core

import (
	"bytes"
	"sort"
	"testing"
	"unsafe"

	"pokeemu/internal/x86"
)

// referenceExploreInstructionSet is the straightforward exploration the
// in-place walker replaced: a fresh buffer and a heap Inst per path, a
// copied prefix per DFS node, and a UniqueInstr plus a Key string per valid
// path. ExploreInstructionSet must reproduce it exactly.
func referenceExploreInstructionSet() *InstrSetResult {
	res := &InstrSetResult{}
	uniq := make(map[string]*UniqueInstr)

	try := func(chosen []byte) {
		res.ExploredPaths++
		full := make([]byte, x86.MaxInstLen)
		copy(full, chosen)
		inst, err := x86.Decode(full)
		if err != nil {
			return
		}
		var c Candidate
		copy(c.Bytes[:], full[:3])
		c.Spec = inst.Spec
		c.OpSize = inst.OpSize
		res.Candidates = append(res.Candidates, c)
		u := &UniqueInstr{Spec: inst.Spec, OpSize: inst.OpSize, Repr: full[:inst.Len]}
		if prev, ok := uniq[u.Key()]; !ok || len(u.Repr) < len(prev.Repr) {
			uniq[u.Key()] = u
		}
	}

	var dfs func(chosen []byte)
	dfs = func(chosen []byte) {
		if len(chosen) >= 3 {
			try(chosen)
			return
		}
		switch x86.NextByteRole(chosen) {
		case x86.RoleDispatch:
			for b := 0; b < 256; b++ {
				dfs(append(append([]byte(nil), chosen...), byte(b)))
			}
		case x86.RoleSIB:
			try(append(append([]byte(nil), chosen...), 0x00))
			try(append(append([]byte(nil), chosen...), 0x05))
		default:
			try(chosen)
		}
	}
	dfs(nil)

	for _, u := range uniq {
		res.Unique = append(res.Unique, u)
	}
	sort.Slice(res.Unique, func(i, j int) bool {
		return res.Unique[i].Key() < res.Unique[j].Key()
	})
	return res
}

func TestInstrSetMatchesReference(t *testing.T) {
	got, want := ExploreInstructionSet(), referenceExploreInstructionSet()
	if got.ExploredPaths != want.ExploredPaths {
		t.Errorf("ExploredPaths = %d, want %d", got.ExploredPaths, want.ExploredPaths)
	}
	if len(got.Candidates) != len(want.Candidates) {
		t.Fatalf("%d candidates, want %d", len(got.Candidates), len(want.Candidates))
	}
	for i, c := range got.Candidates {
		if w := want.Candidates[i]; c != w {
			t.Fatalf("candidate %d = {% x %s %d}, want {% x %s %d}",
				i, c.Bytes, c.Spec.Name, c.OpSize, w.Bytes, w.Spec.Name, w.OpSize)
		}
	}
	if len(got.Unique) != len(want.Unique) {
		t.Fatalf("%d unique instructions, want %d", len(got.Unique), len(want.Unique))
	}
	for i, u := range got.Unique {
		w := want.Unique[i]
		if u.Key() != w.Key() || u.Spec != w.Spec || u.OpSize != w.OpSize || !bytes.Equal(u.Repr, w.Repr) {
			t.Fatalf("unique %d = %s/%d % x, want %s/%d % x",
				i, u.Key(), u.OpSize, u.Repr, w.Key(), w.OpSize, w.Repr)
		}
	}

	// Every representative owns its bytes: no two share backing memory
	// (the walker decodes every path in one buffer).
	type span struct{ lo, hi uintptr }
	spans := make([]span, 0, len(got.Unique))
	for _, u := range got.Unique {
		lo := uintptr(unsafe.Pointer(unsafe.SliceData(u.Repr)))
		spans = append(spans, span{lo, lo + uintptr(cap(u.Repr))})
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].lo < spans[j].lo })
	for i := 1; i < len(spans); i++ {
		if spans[i].lo < spans[i-1].hi {
			t.Fatalf("two representatives share backing memory at %#x", spans[i].lo)
		}
	}
}

// TestInstrSetAllocs pins the walk's garbage: the reference makes ~1.12 M
// allocations per exploration; the walker's are almost all the decode
// errors of invalid paths.
func TestInstrSetAllocs(t *testing.T) {
	if n := testing.AllocsPerRun(1, func() { ExploreInstructionSet() }); n >= 30000 {
		t.Errorf("ExploreInstructionSet makes %.0f allocations, want < 30000", n)
	}
}
