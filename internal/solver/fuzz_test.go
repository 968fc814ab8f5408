package solver

import (
	"encoding/binary"
	"testing"

	"pokeemu/internal/expr"
)

// buildFuzzTerm interprets data as a little stack machine over three
// variables, producing one term of a width chosen by the first byte. Every
// opcode keeps the stack at width w (comparisons are folded back through
// Ite), so arbitrary byte strings yield well-formed terms. Returns nil when
// the data is too short to build anything interesting.
func buildFuzzTerm(data []byte) (*expr.Expr, map[string]uint8) {
	if len(data) < 3 {
		return nil, nil
	}
	widths := []uint8{1, 4, 8, 16, 32, 64}
	w := widths[int(data[0])%len(widths)]
	vars := map[string]uint8{"a": w, "b": w, "c": w}
	stack := []*expr.Expr{expr.Var(w, "a")}
	pop := func() *expr.Expr {
		e := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		return e
	}
	ops := 0
	for i := 1; i < len(data) && ops < 24; i++ {
		ops++
		switch op := data[i] % 26; {
		case op == 0:
			var v uint64
			if i+8 < len(data) {
				v = binary.LittleEndian.Uint64(data[i+1:])
				i += 8
			}
			stack = append(stack, expr.Const(w, v))
		case op == 1:
			stack = append(stack, expr.Var(w, "b"))
		case op == 2:
			stack = append(stack, expr.Var(w, "c"))
		case op < 16: // binary
			if len(stack) < 2 {
				continue
			}
			y, x := pop(), pop()
			var e *expr.Expr
			switch op {
			case 3:
				e = expr.Add(x, y)
			case 4:
				e = expr.Sub(x, y)
			case 5:
				e = expr.Mul(x, y)
			case 6:
				e = expr.And(x, y)
			case 7:
				e = expr.Or(x, y)
			case 8:
				e = expr.Xor(x, y)
			case 9:
				e = expr.Shl(x, y)
			case 10:
				e = expr.LShr(x, y)
			case 11:
				e = expr.AShr(x, y)
			case 12:
				e = expr.UDiv(x, y)
			case 13:
				e = expr.URem(x, y)
			case 14: // comparison folded back to width w
				e = expr.Ite(expr.Ult(x, y), x, y)
			default: // 15
				e = expr.Ite(expr.Slt(x, y), y, x)
			}
			stack = append(stack, e)
		case op == 16:
			stack = append(stack, expr.Not(pop()))
		case op == 17:
			stack = append(stack, expr.Neg(pop()))
		case op == 18 && w > 1: // narrow then zero-extend back
			half := w / 2
			stack = append(stack, expr.ZExt(expr.Extract(pop(), 0, half), w))
		case op == 19 && w > 1: // narrow high half then sign-extend back
			half := w / 2
			stack = append(stack, expr.SExt(expr.Extract(pop(), w-half, half), w))
		case op == 20 && w > 1 && w%2 == 0: // split and reconcatenate swapped
			x := pop()
			half := w / 2
			stack = append(stack, expr.Concat(
				expr.Extract(x, 0, half), expr.Extract(x, half, half)))
		case op == 21:
			if len(stack) < 2 {
				continue
			}
			y, x := pop(), pop()
			stack = append(stack, expr.Ite(expr.Eq(x, y), expr.Xor(x, y), expr.Or(x, y)))
		// Opcodes 22-25 mirror the term shapes the equivcheck celer lifter
		// emits, so the oracle covers the lifting path's simplifier rewrites.
		case op == 22 && w < 64: // rcl/rcr: rotate through a w+1-bit concat
			x := pop()
			wide := expr.Concat(expr.Extract(x, 0, 1), x)
			n := expr.URem(expr.ZExt(x, w+1), expr.Const(w+1, uint64(w)+1))
			comp := expr.Sub(expr.Const(w+1, uint64(w)+1), n)
			rx := expr.Or(expr.Shl(wide, n), expr.LShr(wide, comp))
			stack = append(stack, expr.Extract(rx, 0, w))
		case op == 23: // aam: division/remainder by a small constant
			x := pop()
			d := expr.Const(w, uint64(data[i]%9)+1)
			stack = append(stack, expr.Xor(expr.UDiv(x, d), expr.URem(x, d)))
		case op == 24: // ror: shift by the width-complement of a masked count
			x := pop()
			n := expr.And(x, expr.Const(w, uint64(w)-1))
			comp := expr.Sub(expr.Const(w, uint64(w)), n)
			stack = append(stack, expr.Or(expr.LShr(x, n), expr.Shl(x, comp)))
		case op == 25: // idiv magnitude fix-up: sign-guarded negation chain
			x := pop()
			neg := expr.Extract(x, w-1, 1)
			absX := expr.Ite(neg, expr.Neg(x), x)
			stack = append(stack, expr.Ite(neg, expr.Neg(absX), absX))
		}
	}
	return stack[len(stack)-1], vars
}

// FuzzSemanticsOracle cross-checks the bit-blaster against the pure
// evaluator (the Tamarin-style disequivalence check): build a random term,
// solve for any model, and require that (1) the value the solver's model
// assigns to the term equals expr.Eval under the same assignment, and (2)
// pinning every variable to that assignment and asserting the term differs
// from the evaluator's answer is Unsat. The two implementations of the
// bit-vector semantics must be extensionally equal, with gate hashing
// (BV.Strash) off and on.
func FuzzSemanticsOracle(f *testing.F) {
	f.Add([]byte{0, 9, 1})                              // a << b at width 1
	f.Add([]byte{2, 1, 9, 2, 10, 11})                   // shifts at width 8
	f.Add([]byte{3, 1, 12, 2, 13})                      // div/rem at width 16
	f.Add([]byte{4, 0, 0, 0, 0, 0, 0, 0, 0, 0, 12})     // division by zero
	f.Add([]byte{5, 18, 19, 1, 14, 2, 15, 20})          // ext/extract at width 64
	f.Add([]byte{1, 1, 21, 16, 17, 5})                  // ite/eq chain at width 4
	f.Add([]byte{2, 1, 3, 2, 4, 5, 6, 7, 8, 9, 10, 11}) // everything, width 8
	f.Add([]byte{2, 22, 23, 24, 25})                    // lifted celer shapes, width 8
	f.Add([]byte{4, 1, 22, 2, 24, 25})                  // lifted shapes at width 32
	f.Add([]byte{0, 22, 25, 23})                        // lifted shapes at width 1
	f.Fuzz(func(t *testing.T, data []byte) {
		e, vars := buildFuzzTerm(data)
		if e == nil {
			return
		}
		for _, strash := range []bool{false, true} {
			b := NewBV()
			b.Strash = strash
			bits := b.Bits(e)
			if len(bits) != int(e.Width) {
				t.Fatalf("strash=%v: encoded %d bits for a width-%d term", strash, len(bits), e.Width)
			}
			if st := b.CheckLits(nil); st != Sat {
				t.Fatalf("strash=%v: unconstrained check = %v, want Sat", strash, st)
			}
			model := b.Model()
			got := b.ValueOf(e)
			want := expr.Eval(e, model)
			if got != want {
				t.Fatalf("strash=%v: model disagreement on %v:\n  model %v\n  solver %#x\n  eval   %#x",
					strash, e, model, got, want)
			}
			// Pin the variables and assert the term differs from the
			// evaluator's answer: if the bit-blaster implements the same
			// function, this is unsatisfiable.
			var lits []Lit
			for name, vw := range vars {
				lits = append(lits, b.LitFor(
					expr.Eq(expr.Var(vw, name), expr.Const(vw, model[name]))))
			}
			lits = append(lits, b.LitFor(expr.Ne(e, expr.Const(e.Width, want))))
			if st := b.CheckLits(lits); st != Unsat {
				t.Fatalf("strash=%v: bit-blaster diverges from expr.Eval on %v under %v (status %v)",
					strash, e, model, st)
			}
		}
	})
}
