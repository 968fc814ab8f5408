package solver

import (
	"math/rand"
	"testing"

	"pokeemu/internal/expr"
)

func TestBVConstEquality(t *testing.T) {
	b := NewBV()
	x := expr.Var(32, "x")
	if got := b.Check([]*expr.Expr{expr.Eq(x, expr.Const(32, 0xdeadbeef))}); got != Sat {
		t.Fatalf("Check = %v, want sat", got)
	}
	if v := b.ModelVal("x"); v != 0xdeadbeef {
		t.Errorf("model x = %#x, want 0xdeadbeef", v)
	}
}

func TestBVUnsatRange(t *testing.T) {
	b := NewBV()
	x := expr.Var(32, "x")
	lt5 := expr.Ult(x, expr.Const(32, 5))
	gt10 := expr.Ult(expr.Const(32, 10), x)
	if got := b.Check([]*expr.Expr{lt5, gt10}); got != Unsat {
		t.Fatalf("x<5 ∧ x>10 = %v, want unsat", got)
	}
	// Incremental reuse: each side alone is satisfiable.
	if b.Check([]*expr.Expr{lt5}) != Sat {
		t.Error("x<5 alone should be sat")
	}
	if b.Check([]*expr.Expr{gt10}) != Sat {
		t.Error("x>10 alone should be sat")
	}
}

func TestBVArithmetic(t *testing.T) {
	b := NewBV()
	x := expr.Var(16, "x")
	y := expr.Var(16, "y")
	// x + y = 100, x - y = 40  →  x = 70, y = 30.
	c1 := expr.Eq(expr.Add(x, y), expr.Const(16, 100))
	c2 := expr.Eq(expr.Sub(x, y), expr.Const(16, 40))
	if b.Check([]*expr.Expr{c1, c2}) != Sat {
		t.Fatal("want sat")
	}
	xv, yv := b.ModelVal("x"), b.ModelVal("y")
	if (xv+yv)&0xffff != 100 || (xv-yv)&0xffff != 40 {
		t.Errorf("model (x,y) = (%d,%d) violates the system", xv, yv)
	}
}

func TestBVMultiplication(t *testing.T) {
	b := NewBV()
	x := expr.Var(16, "x")
	// x * 7 = 91 → x = 13 (mod 2^16 has a unique odd-multiplier solution).
	c := expr.Eq(expr.Mul(x, expr.Const(16, 7)), expr.Const(16, 91))
	if b.Check([]*expr.Expr{c}) != Sat {
		t.Fatal("want sat")
	}
	if v := b.ModelVal("x"); v != 13 {
		t.Errorf("model x = %d, want 13", v)
	}
}

func TestBVDivision(t *testing.T) {
	b := NewBV()
	x := expr.Var(8, "x")
	c1 := expr.Eq(expr.UDiv(x, expr.Const(8, 10)), expr.Const(8, 7))
	c2 := expr.Eq(expr.URem(x, expr.Const(8, 10)), expr.Const(8, 3))
	if b.Check([]*expr.Expr{c1, c2}) != Sat {
		t.Fatal("want sat")
	}
	if v := b.ModelVal("x"); v != 73 {
		t.Errorf("model x = %d, want 73", v)
	}
}

func TestBVDivisionByZeroSemantics(t *testing.T) {
	b := NewBV()
	x := expr.Var(8, "x")
	z := expr.Var(8, "z")
	pin := expr.Eq(z, expr.Const(8, 0))
	// x/0 = 0xff and x%0 = x must hold for all x; check one pinned case.
	pinX := expr.Eq(x, expr.Const(8, 42))
	c1 := expr.Eq(expr.UDiv(x, z), expr.Const(8, 0xff))
	c2 := expr.Eq(expr.URem(x, z), expr.Const(8, 42))
	if b.Check([]*expr.Expr{pin, pinX, c1, c2}) != Sat {
		t.Fatal("division-by-zero semantics violated")
	}
	// And the negation must be unsat.
	if b.Check([]*expr.Expr{pin, pinX, expr.Not(c1)}) != Unsat {
		t.Fatal("udiv by zero must be all-ones")
	}
}

func TestBVShifts(t *testing.T) {
	b := NewBV()
	x := expr.Var(32, "x")
	n := expr.Var(8, "n")
	pinX := expr.Eq(x, expr.Const(32, 0x80000001))
	cases := []struct {
		e    *expr.Expr
		amt  uint64
		want uint64
	}{
		{expr.Shl(x, n), 4, 0x00000010},
		{expr.LShr(x, n), 4, 0x08000000},
		{expr.AShr(x, n), 4, 0xf8000000},
		{expr.Shl(x, n), 40, 0},
		{expr.LShr(x, n), 40, 0},
		{expr.AShr(x, n), 40, 0xffffffff},
	}
	for i, c := range cases {
		pinN := expr.Eq(n, expr.Const(8, c.amt))
		ok := expr.Eq(c.e, expr.Const(32, c.want))
		if b.Check([]*expr.Expr{pinX, pinN, ok}) != Sat {
			t.Errorf("case %d: expected value %#x not derivable", i, c.want)
		}
		if b.Check([]*expr.Expr{pinX, pinN, expr.Not(ok)}) != Unsat {
			t.Errorf("case %d: shift result not unique", i)
		}
	}
}

func TestBVSignedComparison(t *testing.T) {
	b := NewBV()
	x := expr.Var(8, "x")
	// Signed: x < 0 and x > -5 → x in {-4..-1} = {0xfc..0xff}.
	c1 := expr.Slt(x, expr.Const(8, 0))
	c2 := expr.Slt(expr.Const(8, 0xfb), x)
	if b.Check([]*expr.Expr{c1, c2}) != Sat {
		t.Fatal("want sat")
	}
	v := b.ModelVal("x")
	if v < 0xfc {
		t.Errorf("model x = %#x, want in [0xfc,0xff]", v)
	}
}

// TestBVAgainstEval is the central soundness property: for random terms and a
// random pinned environment, the solver must (a) accept the true value and
// (b) reject any other value.
func TestBVAgainstEval(t *testing.T) {
	for _, strash := range []bool{false, true} {
		t.Run(strashName(strash), func(t *testing.T) {
			r := rand.New(rand.NewSource(99))
			for iter := 0; iter < 60; iter++ {
				e := randomBVExpr(r, 3, 16)
				env := map[string]uint64{"a": r.Uint64() & 0xffff, "b": r.Uint64() & 0xffff}
				want := expr.Eval(e, env)
				b := NewBV()
				b.Strash = strash
				pinA := expr.Eq(expr.Var(16, "a"), expr.Const(16, env["a"]))
				pinB := expr.Eq(expr.Var(16, "b"), expr.Const(16, env["b"]))
				okC := expr.Eq(e, expr.Const(e.Width, want))
				if got := b.Check([]*expr.Expr{pinA, pinB, okC}); got != Sat {
					t.Fatalf("iter %d: true value rejected\nexpr: %v\nenv: %#v want %#x",
						iter, e, env, want)
				}
				if got := b.Check([]*expr.Expr{pinA, pinB, expr.Not(okC)}); got != Unsat {
					t.Fatalf("iter %d: wrong value accepted (model %#x)\nexpr: %v\nenv: %#v want %#x",
						iter, b.ModelVal("a"), e, env, want)
				}
			}
		})
	}
}

// TestBVModelSatisfies: whenever Check returns Sat, evaluating the assumptions
// under the returned model must yield true.
func TestBVModelSatisfies(t *testing.T) {
	for _, strash := range []bool{false, true} {
		t.Run(strashName(strash), func(t *testing.T) {
			r := rand.New(rand.NewSource(123))
			for iter := 0; iter < 60; iter++ {
				e := randomBVExpr(r, 3, 16)
				target := expr.Const(e.Width, r.Uint64()&expr.Mask(e.Width))
				cond := expr.Eq(e, target)
				b := NewBV()
				b.Strash = strash
				if b.Check([]*expr.Expr{cond}) != Sat {
					continue // this target value may genuinely be infeasible
				}
				m := b.Model()
				if expr.Eval(cond, m) != 1 {
					t.Fatalf("iter %d: model does not satisfy condition\nexpr: %v\nmodel: %#v",
						iter, cond, m)
				}
			}
		})
	}
}

func strashName(strash bool) string {
	if strash {
		return "strash"
	}
	return "nostrash"
}

func randomBVExpr(r *rand.Rand, depth int, w uint8) *expr.Expr {
	if depth == 0 || r.Intn(4) == 0 {
		switch r.Intn(3) {
		case 0:
			return expr.Const(w, r.Uint64())
		case 1:
			return expr.Var(w, "a")
		default:
			return expr.Var(w, "b")
		}
	}
	sub := func() *expr.Expr { return randomBVExpr(r, depth-1, w) }
	switch r.Intn(13) {
	case 0:
		return expr.Add(sub(), sub())
	case 1:
		return expr.Sub(sub(), sub())
	case 2:
		return expr.Mul(sub(), sub())
	case 3:
		return expr.And(sub(), sub())
	case 4:
		return expr.Or(sub(), sub())
	case 5:
		return expr.Xor(sub(), sub())
	case 6:
		return expr.Not(sub())
	case 7:
		return expr.Neg(sub())
	case 8:
		return expr.Ite(expr.Ult(sub(), sub()), sub(), sub())
	case 9:
		return expr.UDiv(sub(), sub())
	case 10:
		return expr.URem(sub(), sub())
	case 11:
		return expr.ZExt(expr.Extract(sub(), 0, w/2), w)
	default:
		return expr.Shl(sub(), expr.ZExt(expr.Extract(sub(), 0, 4), 8))
	}
}

func TestBVCacheHitsAcrossRebuiltTerms(t *testing.T) {
	b := NewBV()
	mk := func() *expr.Expr {
		return expr.Eq(expr.Add(expr.Var(32, "x"), expr.Const(32, 5)), expr.Const(32, 9))
	}
	b.Check([]*expr.Expr{mk()})
	before := b.Encoded
	b.Check([]*expr.Expr{mk()}) // structurally equal, different pointers
	if b.Encoded != before {
		t.Errorf("re-encoded structurally equal term: %d → %d", before, b.Encoded)
	}
}

func TestBVWidthConflictPanics(t *testing.T) {
	b := NewBV()
	b.Bits(expr.Var(8, "w"))
	defer func() {
		if recover() == nil {
			t.Error("expected panic on width conflict")
		}
	}()
	b.Bits(expr.Var(16, "w"))
}

// TestStrashSharesGates: with Strash on, rebuilding an and/xor/mux gate with
// swapped operands, negated xor inputs, or a negated mux condition returns
// the existing output (complemented where the normalization says so) and
// allocates no variable or clause; with Strash off every rebuild is a
// fresh gate.
func TestStrashSharesGates(t *testing.T) {
	b := NewBV()
	b.Strash = true
	x, y, c := b.fresh(), b.fresh(), b.fresh()
	and, xor, mux := b.and(x, y), b.xor(x, y), b.mux(c, x, y)
	vars, clauses := b.NumVarsSAT(), b.NumClauses()
	for _, tc := range []struct {
		name      string
		got, want Lit
	}{
		{"and swapped", b.and(y, x), and},
		{"xor swapped", b.xor(y, x), xor},
		{"xor ¬x", b.xor(x.Neg(), y), xor.Neg()},
		{"xor ¬y swapped", b.xor(y.Neg(), x), xor.Neg()},
		{"xor ¬x ¬y", b.xor(x.Neg(), y.Neg()), xor},
		{"mux ¬c", b.mux(c.Neg(), y, x), mux},
		{"or", b.or(x.Neg(), y.Neg()), and.Neg()},
	} {
		if tc.got != tc.want {
			t.Errorf("%s: got literal %d, want shared %d", tc.name, tc.got, tc.want)
		}
	}
	if b.NumVarsSAT() != vars || b.NumClauses() != clauses {
		t.Errorf("shared gates grew the CNF: vars %d → %d, clauses %d → %d",
			vars, b.NumVarsSAT(), clauses, b.NumClauses())
	}
	// Differently shaped terms over the same circuit collapse: a + b and
	// b + a share every adder gate, so their disequality is constant false.
	a16, b16 := expr.Var(16, "a"), expr.Var(16, "b")
	if l := b.LitFor(expr.Ne(expr.Add(a16, b16), expr.Add(b16, a16))); l != b.fls {
		t.Errorf("a+b ≠ b+a encoded as literal %d, want constant false", l)
	}

	off := NewBV()
	x, y = off.fresh(), off.fresh()
	if off.and(x, y) == off.and(y, x) || off.gates != nil {
		t.Error("Strash off shared a gate")
	}
}

// TestStrashGateMapBounded floods a strashed BV with more distinct gates
// than encodeCacheCap: the gate map must never exceed the cap, and gates
// built after the wholesale reset are still shared.
func TestStrashGateMapBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("floods the gate map")
	}
	b := NewBV()
	b.Strash = true
	in := make([]Lit, 400) // 400·399/2 pairs > encodeCacheCap
	for i := range in {
		in[i] = b.fresh()
	}
	gates := 0
	for i := range in {
		for j := i + 1; j < len(in); j++ {
			b.and(in[i], in[j])
			if gates++; len(b.gates) > encodeCacheCap {
				t.Fatalf("gate map holds %d entries after %d gates, cap %d",
					len(b.gates), gates, encodeCacheCap)
			}
		}
	}
	if gates <= encodeCacheCap {
		t.Fatalf("flood built only %d gates, cap %d", gates, encodeCacheCap)
	}
	last := b.and(in[len(in)-2], in[len(in)-1])
	vars := b.NumVarsSAT()
	if b.and(in[len(in)-1], in[len(in)-2]) != last || b.NumVarsSAT() != vars {
		t.Error("gate built after the reset was not shared")
	}
}
