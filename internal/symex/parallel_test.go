package symex

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"pokeemu/internal/expr"
	"pokeemu/internal/ir"
	"pokeemu/internal/machine"
	"pokeemu/internal/x86"
)

// branchyProg builds a program whose decision tree is deeper than the split
// depth: one independent branch per low bit of EAX, accumulating into EBX.
// Every path is feasible, so exploring bit-depth d yields exactly 2^d paths.
func branchyProg(depth int) *ir.Program {
	b := ir.NewBuilder("branchy")
	eax := b.Get(x86.GPR(x86.EAX))
	b.Set(x86.GPR(x86.EBX), b.Const(32, 0))
	for i := 0; i < depth; i++ {
		bit := b.Extract(eax, uint8(i), 1)
		skip := b.NewLabel()
		b.CJump(b.Eq(bit, b.Const(1, 0)), skip)
		b.Set(x86.GPR(x86.EBX),
			b.Add(b.Get(x86.GPR(x86.EBX)), b.Const(32, uint64(1)<<uint(i))))
		b.Bind(skip)
	}
	b.End()
	return b.Build()
}

func exploreWith(t *testing.T, workers, maxPaths, depth int) ([]string, Stats) {
	t.Helper()
	st := NewSymState(machine.NewBaseline(nil))
	st.MarkLocSymbolic(x86.GPR(x86.EAX), ^uint64(0))
	en := NewEngine(st, nil, Options{
		MaxPaths: maxPaths, MaxSteps: 1 << 14, Seed: 7, Workers: workers,
	})
	var got []string
	en.Explore(branchyProg(depth), func(res *PathResult) {
		// Fingerprint everything a campaign report could depend on: the
		// outcome, the path-condition length, the final EBX value, and the
		// full (minimized) model in sorted order.
		names := make([]string, 0, len(res.Model))
		for n := range res.Model {
			names = append(names, n)
		}
		sort.Strings(names)
		fp := fmt.Sprintf("out=%v conds=%d ebx=%#x",
			res.Outcome, len(res.Cond), res.Final.Get(x86.GPR(x86.EBX)).ConstVal())
		for _, n := range names {
			fp += fmt.Sprintf(" %s=%#x", n, res.Model[n])
		}
		got = append(got, fp)
	})
	return got, en.Stats()
}

// TestParallelExploreDeterministic is the symex analogue of the campaign
// worker-determinism test: the visited path sequence and all statistics must
// be identical for every worker count, both when the space is exhausted and
// when the path cap trims it.
func TestParallelExploreDeterministic(t *testing.T) {
	for _, tc := range []struct {
		depth, maxPaths int
		wantExhausted   bool
	}{
		{depth: 7, maxPaths: 1 << 10, wantExhausted: true}, // 128 paths, exhausted
		{depth: 8, maxPaths: 60, wantExhausted: false},     // 256 feasible, trimmed
	} {
		base, baseStats := exploreWith(t, 1, tc.maxPaths, tc.depth)
		if baseStats.Exhausted != tc.wantExhausted {
			t.Fatalf("depth=%d cap=%d: exhausted=%v, want %v",
				tc.depth, tc.maxPaths, baseStats.Exhausted, tc.wantExhausted)
		}
		want := tc.maxPaths
		if tc.wantExhausted {
			want = 1 << tc.depth
		}
		if len(base) != want {
			t.Fatalf("depth=%d cap=%d: explored %d paths, want %d",
				tc.depth, tc.maxPaths, len(base), want)
		}
		for _, workers := range []int{2, 4, 8} {
			got, stats := exploreWith(t, workers, tc.maxPaths, tc.depth)
			if !reflect.DeepEqual(got, base) {
				t.Fatalf("depth=%d cap=%d: workers=%d path sequence differs from workers=1 (len %d vs %d)",
					tc.depth, tc.maxPaths, workers, len(got), len(base))
			}
			if stats.Paths != baseStats.Paths ||
				stats.AbortedPaths != baseStats.AbortedPaths ||
				stats.Exhausted != baseStats.Exhausted ||
				stats.SolverQueries != baseStats.SolverQueries ||
				stats.MinimizedBits != baseStats.MinimizedBits ||
				stats.FlippedBits != baseStats.FlippedBits ||
				stats.StmtsCovered != baseStats.StmtsCovered {
				t.Fatalf("workers=%d stats differ:\n%+v\nvs workers=1:\n%+v",
					workers, stats, baseStats)
			}
		}
	}
}

// TestParallelExploreModelsSatisfyConds re-checks, for a parallel run, the
// engine's core contract: every emitted model satisfies its own path
// condition under the pure evaluator.
func TestParallelExploreModelsSatisfyConds(t *testing.T) {
	st := NewSymState(machine.NewBaseline(nil))
	st.MarkLocSymbolic(x86.GPR(x86.EAX), ^uint64(0))
	en := NewEngine(st, nil, Options{MaxPaths: 1 << 10, MaxSteps: 1 << 14, Seed: 3, Workers: 4})
	paths := 0
	en.Explore(branchyProg(6), func(res *PathResult) {
		paths++
		for _, c := range res.Cond {
			if expr.Eval(c, res.Model) != 1 {
				t.Fatalf("path %d: model does not satisfy %v", paths, c)
			}
		}
	})
	if paths != 64 {
		t.Fatalf("explored %d paths, want 64", paths)
	}
	if !en.Stats().Exhausted {
		t.Fatal("expected exhaustion")
	}
}

// TestReleasedEnginePanics checks Release: engines built after it, on the
// storage of the released engine's solvers and its task engines' solvers,
// visit the same paths with the same models and statistics, and the
// released engine panics on further use instead of exploring on storage a
// later engine owns.
func TestReleasedEnginePanics(t *testing.T) {
	want, wantStats := exploreWith(t, 4, 1<<10, 7)
	st := NewSymState(machine.NewBaseline(nil))
	st.MarkLocSymbolic(x86.GPR(x86.EAX), ^uint64(0))
	en := NewEngine(st, nil, Options{MaxPaths: 1 << 10, MaxSteps: 1 << 14, Seed: 7, Workers: 4})
	en.Explore(branchyProg(8), func(*PathResult) {})
	en.Release()
	en.Release()
	got, gotStats := exploreWith(t, 4, 1<<10, 7)
	if !reflect.DeepEqual(got, want) || gotStats != wantStats {
		t.Fatalf("exploration on released storage differs:\n%+v\nvs fresh:\n%+v", gotStats, wantStats)
	}
	for name, f := range map[string]func(){
		"Explore": func() { en.Explore(branchyProg(2), func(*PathResult) {}) },
		"Stats":   func() { en.Stats() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Engine.%s after Release did not panic", name)
				}
			}()
			f()
		}()
	}
}
