package expr

import (
	"testing"
)

// fuzzVars is the variable pool the fuzz builder draws from: a mix of
// widths, like the symbolic machine state (8-bit descriptor bytes through
// 64-bit MSRs).
var fuzzVars = []struct {
	name string
	w    uint8
}{
	{"a8", 8}, {"b16", 16}, {"c32", 32}, {"d64", 64}, {"e1", 1}, {"f32", 32},
}

// fuzzEnvs are the concrete environments the property is checked under:
// corners plus bit patterns that stress carries, sign bits, and shifts.
var fuzzEnvs = []map[string]uint64{
	{},
	{"a8": 0xff, "b16": 0xffff, "c32": 0xffffffff, "d64": ^uint64(0), "e1": 1, "f32": 0xffffffff},
	{"a8": 0x80, "b16": 0x8000, "c32": 0x80000000, "d64": 1 << 63, "e1": 1, "f32": 1},
	{"a8": 0x2a, "b16": 0x1234, "c32": 0xdeadbeef, "d64": 0x0123456789abcdef, "e1": 0, "f32": 7},
	{"a8": 1, "b16": 2, "c32": 3, "d64": 4, "e1": 1, "f32": 0x55555555},
}

// coerce aligns x to width w the way the fuzz builder needs: widen with
// ZExt, narrow with Extract.
func coerce(x *Expr, w uint8) *Expr {
	if x.Width < w {
		return ZExt(x, w)
	}
	if x.Width > w {
		return Extract(x, 0, w)
	}
	return x
}

// buildTerm interprets the fuzz input as a stack-machine program over the
// expression constructors. Every constructor precondition (width equality,
// extract ranges, 64-bit concat limit) is satisfied by construction, so any
// panic is a real simplifier bug, and the term that comes back has passed
// through every rewrite rule the constructors implement.
func buildTerm(data []byte) *Expr {
	stack := []*Expr{Var(32, "c32")}
	pop := func() *Expr {
		e := stack[len(stack)-1]
		if len(stack) > 1 {
			stack = stack[:len(stack)-1]
		}
		return e
	}
	push := func(e *Expr) {
		if len(stack) < 64 {
			stack = append(stack, e)
		} else {
			stack[len(stack)-1] = e
		}
	}
	next := func(i *int) byte {
		if *i >= len(data) {
			return 0
		}
		b := data[*i]
		*i++
		return b
	}
	for i := 0; i < len(data); {
		op := next(&i)
		switch op % 24 {
		case 0:
			v := fuzzVars[int(next(&i))%len(fuzzVars)]
			push(Var(v.w, v.name))
		case 1:
			w := 1 + next(&i)%64
			v := uint64(next(&i)) | uint64(next(&i))<<8 | uint64(next(&i))<<32
			push(Const(w, v))
		case 2:
			push(Not(pop()))
		case 3:
			push(Neg(pop()))
		case 4:
			b, a := pop(), pop()
			push(And(a, coerce(b, a.Width)))
		case 5:
			b, a := pop(), pop()
			push(Or(a, coerce(b, a.Width)))
		case 6:
			b, a := pop(), pop()
			push(Xor(a, coerce(b, a.Width)))
		case 7:
			b, a := pop(), pop()
			push(Add(a, coerce(b, a.Width)))
		case 8:
			b, a := pop(), pop()
			push(Sub(a, coerce(b, a.Width)))
		case 9:
			b, a := pop(), pop()
			push(Mul(a, coerce(b, a.Width)))
		case 10:
			b, a := pop(), pop()
			push(UDiv(a, coerce(b, a.Width)))
		case 11:
			b, a := pop(), pop()
			push(URem(a, coerce(b, a.Width)))
		case 12:
			b, a := pop(), pop()
			push(Shl(a, coerce(b, a.Width)))
		case 13:
			b, a := pop(), pop()
			push(LShr(a, coerce(b, a.Width)))
		case 14:
			b, a := pop(), pop()
			push(AShr(a, coerce(b, a.Width)))
		case 15:
			b, a := pop(), pop()
			push(Eq(a, coerce(b, a.Width)))
		case 16:
			b, a := pop(), pop()
			push(Ult(a, coerce(b, a.Width)))
		case 17:
			b, a := pop(), pop()
			push(Slt(a, coerce(b, a.Width)))
		case 18:
			b, a := pop(), pop()
			push(Ule(a, coerce(b, a.Width)))
		case 19:
			f, tv, c := pop(), pop(), pop()
			push(Ite(coerce(c, 1), tv, coerce(f, tv.Width)))
		case 20:
			a := pop()
			lo := next(&i) % a.Width
			w := 1 + next(&i)%(a.Width-lo)
			push(Extract(a, lo, w))
		case 21:
			lo, hi := pop(), pop()
			if hi.Width >= 64 {
				hi = coerce(hi, 32)
			}
			if int(hi.Width)+int(lo.Width) > 64 {
				lo = coerce(lo, 64-hi.Width)
			}
			push(Concat(hi, lo))
		case 22:
			a := pop()
			if a.Width < 64 {
				w := a.Width + 1 + next(&i)%(64-a.Width)
				push(ZExt(a, w))
			}
		case 23:
			a := pop()
			if a.Width < 64 {
				w := a.Width + 1 + next(&i)%(64-a.Width)
				push(SExt(a, w))
			}
		}
	}
	return stack[len(stack)-1]
}

// FuzzExprSimplify is the simplifier's soundness fuzzer. It builds a random
// term through the simplifying constructors, then checks on each concrete
// environment that (1) evaluation respects the term's width and (2)
// substituting the environment's values as constants — which re-runs every
// constructor's folding rules over the whole term — evaluates to exactly
// the same value. Any rewrite that changes a term's meaning shows up as a
// mismatch between the two evaluation routes.
func FuzzExprSimplify(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 7})                                  // a8 + c32
	f.Add([]byte{1, 32, 0xff, 0xee, 0xdd, 0, 3, 9})         // const * var
	f.Add([]byte{0, 3, 0, 3, 15, 0, 0, 0, 1, 19})           // ite(d64==d64, ...)
	f.Add([]byte{0, 2, 20, 8, 8, 0, 2, 20, 0, 8, 21})       // concat of extracts
	f.Add([]byte{0, 1, 22, 30, 20, 2, 16, 1, 5, 1, 12, 14}) // zext/extract/shifts
	f.Add([]byte{0, 0, 3, 2, 0, 0, 10, 0, 1, 11, 6, 18, 17, 23, 9, 4, 13})

	f.Fuzz(func(t *testing.T, data []byte) {
		term := buildTerm(data)
		if term.Width == 0 || term.Width > 64 {
			t.Fatalf("term has invalid width %d", term.Width)
		}
		for _, env := range fuzzEnvs {
			direct := Eval(term, env)
			if direct&^Mask(term.Width) != 0 {
				t.Fatalf("Eval overflows width %d: %#x\nterm: %s", term.Width, direct, term)
			}
			if len(term.Kids) > 0 {
				var kv [3]uint64
				for i, k := range term.Kids {
					kv[i] = Eval(k, env)
				}
				if op := EvalOp(term, kv[0], kv[1], kv[2]); op != direct {
					t.Fatalf("EvalOp disagrees with Eval: %#x vs %#x\nterm: %s\nenv: %v",
						op, direct, term, env)
				}
			}
			sub := make(map[string]*Expr, len(fuzzVars))
			for _, v := range fuzzVars {
				sub[v.name] = Const(v.w, env[v.name])
			}
			folded := Substitute(term, sub)
			if !folded.IsConst() {
				t.Fatalf("total substitution did not fold to a constant: %s", folded)
			}
			if folded.Width != term.Width {
				t.Fatalf("substitution changed width %d → %d\nterm: %s", term.Width, folded.Width, term)
			}
			if refold := Eval(folded, nil); refold != direct {
				t.Fatalf("constructor folding changed the value: direct %#x, folded %#x\nterm: %s\nenv: %v",
					direct, refold, term, env)
			}
		}
	})
}
