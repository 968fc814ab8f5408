package symex

import (
	"math/rand"
	"testing"

	"pokeemu/internal/expr"
	"pokeemu/internal/ir"
	"pokeemu/internal/machine"
	"pokeemu/internal/x86"
	"pokeemu/internal/x86/sem"
)

func newState(t *testing.T) *SymState {
	t.Helper()
	return NewSymState(machine.NewBaseline(nil))
}

// branchProg: if eax < 10 → ebx = 1 else ebx = 2.
func branchProg() *ir.Program {
	b := ir.NewBuilder("branch")
	x := b.Get(x86.GPR(x86.EAX))
	lt := b.Ult(x, b.Const(32, 10))
	l := b.NewLabel()
	b.CJump(lt, l)
	b.Set(x86.GPR(x86.EBX), b.Const(32, 2))
	b.End()
	b.Bind(l)
	b.Set(x86.GPR(x86.EBX), b.Const(32, 1))
	b.End()
	return b.Build()
}

func TestExploreTwoPaths(t *testing.T) {
	st := newState(t)
	st.MarkLocSymbolic(x86.GPR(x86.EAX), ^uint64(0))
	en := NewEngine(st, nil, DefaultOptions())
	var results []*PathResult
	en.Explore(branchProg(), func(r *PathResult) { results = append(results, r) })
	if len(results) != 2 {
		t.Fatalf("paths = %d, want 2", len(results))
	}
	if !en.Stats().Exhausted {
		t.Error("exploration should be exhaustive")
	}
	// Each model must satisfy its own path condition.
	seen := map[uint64]bool{}
	for _, r := range results {
		for _, c := range r.Cond {
			if expr.Eval(c, r.Model) != 1 {
				t.Errorf("model does not satisfy path condition %v", c)
			}
		}
		ebx := r.Final.Get(x86.GPR(x86.EBX))
		seen[ebx.ConstVal()] = true
	}
	if !seen[1] || !seen[2] {
		t.Errorf("expected both outcomes, got %v", seen)
	}
}

// nestedProg has 3 feasible paths (x>5 ∧ x<3 is infeasible).
func nestedProg() *ir.Program {
	b := ir.NewBuilder("nested")
	x := b.Get(x86.GPR(x86.EAX))
	outer := b.NewLabel()
	inner := b.NewLabel()
	b.CJump(b.Ugt(x, b.Const(32, 5)), outer)
	// x <= 5
	b.CJump(b.Ult(x, b.Const(32, 3)), inner)
	b.Set(x86.GPR(x86.EBX), b.Const(32, 10)) // 3 <= x <= 5
	b.End()
	b.Bind(inner)
	b.Set(x86.GPR(x86.EBX), b.Const(32, 11)) // x < 3
	b.End()
	b.Bind(outer)
	b.CJump(b.Ult(x, b.Const(32, 3)), inner) // infeasible with x > 5
	b.Set(x86.GPR(x86.EBX), b.Const(32, 12)) // x > 5
	b.End()
	return b.Build()
}

func TestInfeasiblePathPruned(t *testing.T) {
	st := newState(t)
	st.MarkLocSymbolic(x86.GPR(x86.EAX), ^uint64(0))
	en := NewEngine(st, nil, DefaultOptions())
	var got []uint64
	en.Explore(nestedProg(), func(r *PathResult) {
		got = append(got, r.Final.Get(x86.GPR(x86.EBX)).ConstVal())
	})
	if len(got) != 3 {
		t.Fatalf("paths = %d, want 3 (infeasible path must be pruned): %v", len(got), got)
	}
	if !en.Stats().Exhausted {
		t.Error("should be exhausted")
	}
}

func TestSideConditionsRestrictPaths(t *testing.T) {
	st := newState(t)
	st.MarkLocSymbolic(x86.GPR(x86.EAX), ^uint64(0))
	// Pin eax ≥ 10: only one branch of branchProg is feasible.
	side := expr.Not(expr.Ult(expr.Var(32, "st_eax"), expr.Const(32, 10)))
	en := NewEngine(st, []*expr.Expr{side}, DefaultOptions())
	count := 0
	en.Explore(branchProg(), func(r *PathResult) { count++ })
	if count != 1 {
		t.Fatalf("paths = %d, want 1 under the side condition", count)
	}
}

func TestPartialSymbolicMask(t *testing.T) {
	st := newState(t)
	// Only the low byte of EAX symbolic; the rest pinned to baseline (0).
	side := st.MarkLocSymbolic(x86.GPR(x86.EAX), 0xff)
	if side == nil {
		t.Fatal("expected a side constraint for the pinned bits")
	}
	en := NewEngine(st, []*expr.Expr{side}, DefaultOptions())
	// Branch on a high bit: must be concrete-false only → 1 path.
	b := ir.NewBuilder("hibit")
	x := b.Get(x86.GPR(x86.EAX))
	hi := b.Extract(x, 31, 1)
	l := b.NewLabel()
	b.CJump(hi, l)
	b.End()
	b.Bind(l)
	b.Set(x86.GPR(x86.EBX), b.Const(32, 1))
	b.End()
	count := 0
	en.Explore(b.Build(), func(r *PathResult) { count++ })
	if count != 1 {
		t.Fatalf("paths = %d, want 1 (high bits pinned)", count)
	}
}

func TestMinimizationKeepsBaselineBits(t *testing.T) {
	st := newState(t)
	st.MarkLocSymbolic(x86.GPR(x86.EAX), ^uint64(0)) // baseline eax = 0
	en := NewEngine(st, nil, DefaultOptions())
	// Condition: bit 17 of eax must be 1. All other bits should minimize
	// back to baseline zero.
	b := ir.NewBuilder("bit17")
	x := b.Get(x86.GPR(x86.EAX))
	l := b.NewLabel()
	b.CJump(b.Extract(x, 17, 1), l)
	b.Set(x86.GPR(x86.EBX), b.Const(32, 1))
	b.End()
	b.Bind(l)
	b.Set(x86.GPR(x86.EBX), b.Const(32, 2))
	b.End()
	var models []map[string]uint64
	en.Explore(b.Build(), func(r *PathResult) {
		models = append(models, r.Model)
	})
	if len(models) != 2 {
		t.Fatalf("want 2 paths, got %d", len(models))
	}
	for _, m := range models {
		v := m["st_eax"]
		if v != 0 && v != 1<<17 {
			t.Errorf("minimized eax = %#x, want 0 or 1<<17", v)
		}
	}
}

func TestMinimizationAblation(t *testing.T) {
	// Without minimization, models usually carry arbitrary unconstrained
	// bits; with it, the Hamming distance to baseline is minimal.
	mkEngine := func(skip bool) (int, *SymState) {
		st := newState(t)
		st.MarkLocSymbolic(x86.GPR(x86.EAX), ^uint64(0))
		st.MarkLocSymbolic(x86.GPR(x86.ECX), ^uint64(0))
		opts := DefaultOptions()
		opts.SkipMinimize = skip
		en := NewEngine(st, nil, opts)
		b := ir.NewBuilder("p")
		x := b.Get(x86.GPR(x86.EAX))
		c := b.Get(x86.GPR(x86.ECX))
		l := b.NewLabel()
		// Condition touches both vars: eax + ecx == 100.
		b.CJump(b.Eq(b.Add(x, c), b.Const(32, 100)), l)
		b.End()
		b.Bind(l)
		b.End()
		total := 0
		en.Explore(b.Build(), func(r *PathResult) {
			total += HammingToBaseline(r.Model, st.Baseline, st.Vars)
		})
		return total, st
	}
	minimized, _ := mkEngine(false)
	raw, _ := mkEngine(true)
	if minimized > raw {
		t.Errorf("minimization increased distance: %d > %d", minimized, raw)
	}
}

func TestSymbolicMemoryLoadConcretization(t *testing.T) {
	st := newState(t)
	st.MarkLocSymbolic(x86.GPR(x86.EAX), ^uint64(0))
	en := NewEngine(st, nil, DefaultOptions())
	// Load from [eax]: the address is concretized, the loaded unused-memory
	// byte becomes an on-demand symbolic variable.
	b := ir.NewBuilder("ldsym")
	x := b.Get(x86.GPR(x86.EAX))
	v := b.Load(x, 1)
	l := b.NewLabel()
	b.CJump(b.Eq(v, b.Const(8, 0x5a)), l)
	b.End()
	b.Bind(l)
	b.Set(x86.GPR(x86.EBX), b.Const(32, 1))
	b.End()
	count := 0
	en.Explore(b.Build(), func(r *PathResult) { count++ })
	if count != 2 {
		t.Fatalf("paths = %d, want 2 (one per byte-value branch)", count)
	}
	// Concretization must not enumerate addresses: the tree stays small.
	if en.Stats().TreeNodes > 8 {
		t.Errorf("tree nodes = %d; address enumeration leaked into the tree",
			en.Stats().TreeNodes)
	}
}

func TestRaiseOutcomeRecorded(t *testing.T) {
	st := newState(t)
	st.MarkLocSymbolic(x86.GPR(x86.EAX), ^uint64(0))
	en := NewEngine(st, nil, DefaultOptions())
	b := ir.NewBuilder("raise")
	x := b.Get(x86.GPR(x86.EAX))
	l := b.NewLabel()
	b.CJump(b.Eq(x, b.Const(32, 0)), l)
	b.Raise(x86.ExcGP, b.Const(32, 0x50))
	b.Bind(l)
	b.End()
	var raises, ends int
	en.Explore(b.Build(), func(r *PathResult) {
		switch r.Outcome.Kind {
		case ir.OutRaise:
			raises++
			if r.Outcome.Vector != x86.ExcGP || r.Outcome.ErrCode != 0x50 {
				t.Errorf("bad raise outcome %+v", r.Outcome)
			}
		case ir.OutEnd:
			ends++
		}
	})
	if raises != 1 || ends != 1 {
		t.Errorf("raises=%d ends=%d, want 1/1", raises, ends)
	}
}

func TestLoopPathsBoundedByCap(t *testing.T) {
	// while (ecx != 0) ecx--: with symbolic ECX there is one path per
	// feasible iteration count; the cap stops exploration like the
	// paper's 8192 limit does for rep instructions.
	st := newState(t)
	st.MarkLocSymbolic(x86.GPR(x86.ECX), ^uint64(0))
	opts := DefaultOptions()
	opts.MaxPaths = 20
	en := NewEngine(st, nil, opts)
	b := ir.NewBuilder("loop")
	top := b.NewLabel()
	done := b.NewLabel()
	b.Bind(top)
	c := b.Get(x86.GPR(x86.ECX))
	b.CJump(b.Eq(c, b.Const(32, 0)), done)
	b.Set(x86.GPR(x86.ECX), b.Sub(c, b.Const(32, 1)))
	b.Jump(top)
	b.Bind(done)
	b.End()
	count := 0
	en.Explore(b.Build(), func(r *PathResult) { count++ })
	if count != 20 {
		t.Fatalf("paths = %d, want the cap 20", count)
	}
	if en.Stats().Exhausted {
		t.Error("loop over a 32-bit counter cannot be exhausted at cap 20")
	}
}

func TestSummarizeDescriptorParse(t *testing.T) {
	st := newState(t)
	prog := sem.DescriptorParseProgram(false)
	p := sem.DescriptorParsePorts
	inputs := map[x86.Loc]*expr.Expr{
		p.Lo:  expr.Var(32, "d_lo"),
		p.Hi:  expr.Var(32, "d_hi"),
		p.Sel: expr.ZExt(expr.Var(16, "d_sel"), 32),
	}
	sum, err := Summarize(st, prog, inputs, []x86.Loc{p.Base, p.Limit, p.Attr})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Paths < 8 || sum.Paths > 64 {
		t.Errorf("descriptor parse paths = %d, want a couple dozen", sum.Paths)
	}
	t.Logf("descriptor parse: %d paths", sum.Paths)

	// Cross-check the summary formula against the concrete helper on random
	// valid data descriptors.
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		base := uint32(r.Uint64())
		limit20 := uint32(r.Uint64()) & 0xfffff
		attr := uint16(r.Uint64())&0x0fff | x86.AttrP | x86.AttrS
		attr &^= x86.AttrCode // data segment
		lo, hi := x86.MakeDescriptor(base, limit20, attr)
		env := map[string]uint64{
			"d_lo": uint64(lo), "d_hi": uint64(hi), "d_sel": 8, // RPL 0, GDT
		}
		if expr.Eval(sum.Success, env) != 1 {
			t.Fatalf("valid descriptor rejected by summary (attr %#x)", attr)
		}
		wantBase, wantLimit, wantAttr := x86.DescriptorFields(lo, hi)
		if got := expr.Eval(sum.Outputs[p.Base], env); uint32(got) != wantBase {
			t.Errorf("summary base %#x, want %#x", got, wantBase)
		}
		if got := expr.Eval(sum.Outputs[p.Limit], env); uint32(got) != wantLimit {
			t.Errorf("summary limit %#x, want %#x", got, wantLimit)
		}
		if got := expr.Eval(sum.Outputs[p.Attr], env); uint16(got) != wantAttr|x86.AttrAccessed {
			t.Errorf("summary attr %#x, want %#x", got, wantAttr|x86.AttrAccessed)
		}
	}
	// Not-present descriptors must fail.
	lo, hi := x86.MakeDescriptor(0, 0xfffff, x86.AttrS|x86.AttrWritable)
	env := map[string]uint64{"d_lo": uint64(lo), "d_hi": uint64(hi), "d_sel": 8}
	if expr.Eval(sum.Success, env) == 1 {
		t.Error("not-present descriptor accepted by summary")
	}
}

func TestSymbolicWritesVisibleInFinalState(t *testing.T) {
	st := newState(t)
	st.MarkLocSymbolic(x86.GPR(x86.EAX), ^uint64(0))
	en := NewEngine(st, nil, DefaultOptions())
	b := ir.NewBuilder("store")
	x := b.Get(x86.GPR(x86.EAX))
	b.Store(b.Const(32, 0x1234), b.Extract(x, 0, 8), 1)
	b.End()
	en.Explore(b.Build(), func(r *PathResult) {
		got := r.Final.LoadByte(0x1234)
		if got.IsConst() {
			t.Error("stored byte should be symbolic")
		}
	})
}

// TestCloneSharesMemoryVariables pins the symbolic memory's sharing rules:
// a path's writes stay in its own clone, while the bytes that hold a
// variable (marked, or created on first touch) are one registry shared by
// a state and its clones, and copied for a fork.
func TestCloneSharesMemoryVariables(t *testing.T) {
	st := newState(t)
	st.MarkMemSymbolic(0x1000)
	marked := st.LoadByte(0x1000)
	if marked.Op != expr.OpVar {
		t.Fatalf("marked byte reads %v", marked)
	}

	a := st.Clone()
	a.StoreByte(0x1000, expr.Const(8, 7))
	if got := a.LoadByte(0x1000); !got.IsConst() || got.Val != 7 {
		t.Errorf("clone reads its own write as %v", got)
	}
	lazy := a.LoadByte(0x3f0000)
	if lazy.Op != expr.OpVar || st.Vars[lazy.Name] != 8 {
		t.Fatalf("untouched byte reads %v, registered %v", lazy, st.Vars[lazy.Name])
	}

	b := st.Clone()
	if got := b.LoadByte(0x1000); got != marked {
		t.Errorf("a sibling clone sees %v, want the marked variable", got)
	}
	if got := st.LoadByte(0x1000); got != marked {
		t.Errorf("the parent sees %v, want the marked variable", got)
	}
	if got := b.LoadByte(0x3f0000); got != lazy {
		t.Errorf("a sibling clone reads the created byte as %v, want %v", got, lazy)
	}

	f := st.fork()
	forked := f.LoadByte(0x3e0000)
	if forked.Op != expr.OpVar {
		t.Fatalf("untouched byte reads %v in the fork", forked)
	}
	if _, ok := st.mem.vars[0x3e0000]; ok {
		t.Error("a fork's created byte leaked into the parent's registry")
	}
	if _, ok := st.Vars[forked.Name]; ok {
		t.Error("a fork's created variable leaked into the parent's Vars")
	}
}
