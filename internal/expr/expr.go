// Package expr implements fixed-width bit-vector expressions, the term
// language shared by the symbolic execution engine and the solver.
//
// Terms are immutable. Constructors simplify eagerly (constant folding and
// algebraic identities), in the style of FuzzBALL's expression layer, so that
// the common case — mostly-concrete computation over a few symbolic bits —
// stays small before it ever reaches the decision procedure.
//
// Widths range from 1 to 64 bits. Comparison operators produce 1-bit terms.
package expr

import (
	"fmt"
	"sort"
	"strings"
)

// Op identifies the operator at the root of a term.
type Op uint8

// Operators. Binary arithmetic is modular in the operand width. Division by
// zero follows SMT-LIB bit-vector semantics (udiv → all-ones, urem → dividend).
const (
	OpConst Op = iota // literal value
	OpVar             // free variable
	OpNot             // bitwise complement
	OpNeg             // two's-complement negation
	OpAnd
	OpOr
	OpXor
	OpAdd
	OpSub
	OpMul
	OpUDiv
	OpURem
	OpShl  // shift left; shift amount is an unsigned value of any width
	OpLShr // logical shift right
	OpAShr // arithmetic shift right
	OpEq   // equality, 1-bit result
	OpUlt  // unsigned less-than, 1-bit result
	OpSlt  // signed less-than, 1-bit result
	OpIte  // if-then-else; condition is 1 bit wide
	OpExtract
	OpConcat // Kids[0] is the high part, Kids[1] the low part
	OpZExt
	OpSExt
)

var opNames = map[Op]string{
	OpConst: "const", OpVar: "var", OpNot: "not", OpNeg: "neg",
	OpAnd: "and", OpOr: "or", OpXor: "xor", OpAdd: "add", OpSub: "sub",
	OpMul: "mul", OpUDiv: "udiv", OpURem: "urem",
	OpShl: "shl", OpLShr: "lshr", OpAShr: "ashr",
	OpEq: "eq", OpUlt: "ult", OpSlt: "slt", OpIte: "ite",
	OpExtract: "extract", OpConcat: "concat", OpZExt: "zext", OpSExt: "sext",
}

func (o Op) String() string { return opNames[o] }

// Expr is a bit-vector term. Do not mutate an Expr after construction;
// subterms are shared freely.
type Expr struct {
	Op    Op
	Width uint8 // result width in bits, 1..64
	Val   uint64
	Name  string // variable name for OpVar
	Lo    uint8  // low bit index for OpExtract
	Kids  []*Expr
}

// Mask returns the bit mask selecting w low bits.
func Mask(w uint8) uint64 {
	if w >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << w) - 1
}

func checkWidth(w uint8) {
	if w == 0 || w > 64 {
		panic(fmt.Sprintf("expr: invalid width %d", w))
	}
}

// Const builds a literal of width w; the value is truncated to w bits.
func Const(w uint8, v uint64) *Expr {
	checkWidth(w)
	return intern0(OpConst, w, v&Mask(w), "")
}

// Bool converts a Go bool to the canonical 1-bit constants.
func Bool(b bool) *Expr {
	if b {
		return One
	}
	return Zero
}

// One and Zero are the 1-bit true/false constants.
var (
	One  = &Expr{Op: OpConst, Width: 1, Val: 1}
	Zero = &Expr{Op: OpConst, Width: 1, Val: 0}
)

// Var builds a free variable of width w.
func Var(w uint8, name string) *Expr {
	checkWidth(w)
	return intern0(OpVar, w, 0, name)
}

// IsConst reports whether e is a literal.
func (e *Expr) IsConst() bool { return e.Op == OpConst }

// ConstVal returns the literal value; it panics if e is not a literal.
func (e *Expr) ConstVal() uint64 {
	if e.Op != OpConst {
		panic("expr: ConstVal on non-constant " + e.String())
	}
	return e.Val
}

// IsTrue reports whether e is the 1-bit constant 1.
func (e *Expr) IsTrue() bool { return e.Op == OpConst && e.Width == 1 && e.Val == 1 }

// IsFalse reports whether e is the 1-bit constant 0.
func (e *Expr) IsFalse() bool { return e.Op == OpConst && e.Width == 1 && e.Val == 0 }

func signExt(v uint64, w uint8) uint64 {
	if w >= 64 {
		return v
	}
	if v&(uint64(1)<<(w-1)) != 0 {
		return v | ^Mask(w)
	}
	return v
}

func sameWidth(a, b *Expr, op string) {
	if a.Width != b.Width {
		panic(fmt.Sprintf("expr: %s width mismatch %d vs %d", op, a.Width, b.Width))
	}
}

// structEq is a cheap structural equality used by the simplifier. It is sound
// but incomplete: false only means "not obviously identical".
func structEq(a, b *Expr) bool {
	if a == b {
		return true
	}
	if a.Op != b.Op || a.Width != b.Width || a.Val != b.Val ||
		a.Name != b.Name || a.Lo != b.Lo || len(a.Kids) != len(b.Kids) {
		return false
	}
	for i := range a.Kids {
		if !structEq(a.Kids[i], b.Kids[i]) {
			return false
		}
	}
	return true
}

// Not builds bitwise complement.
func Not(a *Expr) *Expr {
	if a.IsConst() {
		return Const(a.Width, ^a.Val)
	}
	if a.Op == OpNot {
		return a.Kids[0]
	}
	return intern1(OpNot, a.Width, 0, a)
}

// Neg builds two's-complement negation.
func Neg(a *Expr) *Expr {
	if a.IsConst() {
		return Const(a.Width, -a.Val)
	}
	if a.Op == OpNeg {
		return a.Kids[0]
	}
	return intern1(OpNeg, a.Width, 0, a)
}

// And builds bitwise conjunction.
func And(a, b *Expr) *Expr {
	sameWidth(a, b, "and")
	if a.IsConst() && b.IsConst() {
		return Const(a.Width, a.Val&b.Val)
	}
	// Canonicalize the constant to the left.
	if b.IsConst() {
		a, b = b, a
	}
	if a.IsConst() {
		if a.Val == 0 {
			return Const(a.Width, 0)
		}
		if a.Val == Mask(a.Width) {
			return b
		}
	}
	if structEq(a, b) {
		return a
	}
	return intern2(OpAnd, a.Width, a, b)
}

// Or builds bitwise disjunction.
func Or(a, b *Expr) *Expr {
	sameWidth(a, b, "or")
	if a.IsConst() && b.IsConst() {
		return Const(a.Width, a.Val|b.Val)
	}
	if b.IsConst() {
		a, b = b, a
	}
	if a.IsConst() {
		if a.Val == 0 {
			return b
		}
		if a.Val == Mask(a.Width) {
			return Const(a.Width, Mask(a.Width))
		}
	}
	if structEq(a, b) {
		return a
	}
	return intern2(OpOr, a.Width, a, b)
}

// Xor builds bitwise exclusive-or.
func Xor(a, b *Expr) *Expr {
	sameWidth(a, b, "xor")
	if a.IsConst() && b.IsConst() {
		return Const(a.Width, a.Val^b.Val)
	}
	if b.IsConst() {
		a, b = b, a
	}
	if a.IsConst() {
		if a.Val == 0 {
			return b
		}
		if a.Val == Mask(a.Width) {
			return Not(b)
		}
	}
	if structEq(a, b) {
		return Const(a.Width, 0)
	}
	return intern2(OpXor, a.Width, a, b)
}

// Add builds modular addition.
func Add(a, b *Expr) *Expr {
	sameWidth(a, b, "add")
	if a.IsConst() && b.IsConst() {
		return Const(a.Width, a.Val+b.Val)
	}
	if b.IsConst() {
		a, b = b, a
	}
	if a.IsConst() && a.Val == 0 {
		return b
	}
	// (x + c1) + c2 → x + (c1+c2)
	if a.IsConst() && b.Op == OpAdd && b.Kids[0].IsConst() {
		return Add(Const(a.Width, a.Val+b.Kids[0].Val), b.Kids[1])
	}
	return intern2(OpAdd, a.Width, a, b)
}

// Sub builds modular subtraction.
func Sub(a, b *Expr) *Expr {
	sameWidth(a, b, "sub")
	if a.IsConst() && b.IsConst() {
		return Const(a.Width, a.Val-b.Val)
	}
	if b.IsConst() {
		if b.Val == 0 {
			return a
		}
		return Add(Const(a.Width, -b.Val), a)
	}
	if structEq(a, b) {
		return Const(a.Width, 0)
	}
	return intern2(OpSub, a.Width, a, b)
}

// Mul builds modular multiplication.
func Mul(a, b *Expr) *Expr {
	sameWidth(a, b, "mul")
	if a.IsConst() && b.IsConst() {
		return Const(a.Width, a.Val*b.Val)
	}
	if b.IsConst() {
		a, b = b, a
	}
	if a.IsConst() {
		switch a.Val {
		case 0:
			return Const(a.Width, 0)
		case 1:
			return b
		}
	}
	return intern2(OpMul, a.Width, a, b)
}

// UDiv builds unsigned division (x/0 = all-ones, per SMT-LIB).
func UDiv(a, b *Expr) *Expr {
	sameWidth(a, b, "udiv")
	if a.IsConst() && b.IsConst() {
		if b.Val == 0 {
			return Const(a.Width, Mask(a.Width))
		}
		return Const(a.Width, a.Val/b.Val)
	}
	if b.IsConst() && b.Val == 1 {
		return a
	}
	return intern2(OpUDiv, a.Width, a, b)
}

// URem builds unsigned remainder (x%0 = x, per SMT-LIB).
func URem(a, b *Expr) *Expr {
	sameWidth(a, b, "urem")
	if a.IsConst() && b.IsConst() {
		if b.Val == 0 {
			return a
		}
		return Const(a.Width, a.Val%b.Val)
	}
	if b.IsConst() && b.Val == 1 {
		return Const(a.Width, 0)
	}
	return intern2(OpURem, a.Width, a, b)
}

func shiftAmount(b *Expr) (uint64, bool) {
	if b.IsConst() {
		return b.Val, true
	}
	return 0, false
}

// Shl builds a left shift. The shift amount may have any width; amounts at or
// beyond the operand width yield zero.
func Shl(a, b *Expr) *Expr {
	if n, ok := shiftAmount(b); ok {
		if a.IsConst() {
			if n >= uint64(a.Width) {
				return Const(a.Width, 0)
			}
			return Const(a.Width, a.Val<<n)
		}
		if n == 0 {
			return a
		}
		if n >= uint64(a.Width) {
			return Const(a.Width, 0)
		}
	}
	return intern2(OpShl, a.Width, a, b)
}

// LShr builds a logical right shift.
func LShr(a, b *Expr) *Expr {
	if n, ok := shiftAmount(b); ok {
		if a.IsConst() {
			if n >= uint64(a.Width) {
				return Const(a.Width, 0)
			}
			return Const(a.Width, (a.Val&Mask(a.Width))>>n)
		}
		if n == 0 {
			return a
		}
		if n >= uint64(a.Width) {
			return Const(a.Width, 0)
		}
	}
	return intern2(OpLShr, a.Width, a, b)
}

// AShr builds an arithmetic right shift.
func AShr(a, b *Expr) *Expr {
	if n, ok := shiftAmount(b); ok {
		if a.IsConst() {
			s := signExt(a.Val, a.Width)
			if n >= uint64(a.Width) {
				n = uint64(a.Width) - 1
			}
			return Const(a.Width, uint64(int64(s)>>n))
		}
		if n == 0 {
			return a
		}
	}
	return intern2(OpAShr, a.Width, a, b)
}

// Eq builds an equality test with a 1-bit result.
func Eq(a, b *Expr) *Expr {
	sameWidth(a, b, "eq")
	if a.IsConst() && b.IsConst() {
		return Bool(a.Val == b.Val)
	}
	if structEq(a, b) {
		return One
	}
	if b.IsConst() {
		a, b = b, a
	}
	// For 1-bit terms, eq(1,x) = x and eq(0,x) = not x.
	if a.IsConst() && a.Width == 1 {
		if a.Val == 1 {
			return b
		}
		return Not(b)
	}
	return intern2(OpEq, 1, a, b)
}

// Ne builds an inequality test with a 1-bit result.
func Ne(a, b *Expr) *Expr { return Not(Eq(a, b)) }

// Ult builds an unsigned less-than test.
func Ult(a, b *Expr) *Expr {
	sameWidth(a, b, "ult")
	if a.IsConst() && b.IsConst() {
		return Bool(a.Val < b.Val)
	}
	if structEq(a, b) {
		return Zero
	}
	if b.IsConst() && b.Val == 0 {
		return Zero
	}
	if a.IsConst() && a.Val == Mask(a.Width) {
		return Zero
	}
	return intern2(OpUlt, 1, a, b)
}

// Ule builds an unsigned less-or-equal test.
func Ule(a, b *Expr) *Expr { return Not(Ult(b, a)) }

// Ugt builds an unsigned greater-than test.
func Ugt(a, b *Expr) *Expr { return Ult(b, a) }

// Slt builds a signed less-than test.
func Slt(a, b *Expr) *Expr {
	sameWidth(a, b, "slt")
	if a.IsConst() && b.IsConst() {
		return Bool(int64(signExt(a.Val, a.Width)) < int64(signExt(b.Val, b.Width)))
	}
	if structEq(a, b) {
		return Zero
	}
	return intern2(OpSlt, 1, a, b)
}

// Sle builds a signed less-or-equal test.
func Sle(a, b *Expr) *Expr { return Not(Slt(b, a)) }

// Ite builds if-then-else; cond must be 1 bit wide.
func Ite(cond, t, f *Expr) *Expr {
	if cond.Width != 1 {
		panic("expr: ite condition must be 1 bit")
	}
	sameWidth(t, f, "ite")
	if cond.IsConst() {
		if cond.Val == 1 {
			return t
		}
		return f
	}
	if structEq(t, f) {
		return t
	}
	// ite(c, 1, 0) = c and ite(c, 0, 1) = not c for 1-bit arms.
	if t.Width == 1 && t.IsConst() && f.IsConst() {
		if t.Val == 1 && f.Val == 0 {
			return cond
		}
		if t.Val == 0 && f.Val == 1 {
			return Not(cond)
		}
	}
	return intern3(OpIte, t.Width, cond, t, f)
}

// Extract selects bits [lo, lo+w-1] of a.
func Extract(a *Expr, lo, w uint8) *Expr {
	checkWidth(w)
	if uint16(lo)+uint16(w) > uint16(a.Width) {
		panic(fmt.Sprintf("expr: extract [%d:%d] out of range for width %d", lo, lo+w-1, a.Width))
	}
	if lo == 0 && w == a.Width {
		return a
	}
	if a.IsConst() {
		return Const(w, a.Val>>lo)
	}
	switch a.Op {
	case OpExtract:
		return Extract(a.Kids[0], a.Lo+lo, w)
	case OpConcat:
		lw := a.Kids[1].Width
		if lo+w <= lw {
			return Extract(a.Kids[1], lo, w)
		}
		if lo >= lw {
			return Extract(a.Kids[0], lo-lw, w)
		}
	case OpZExt:
		iw := a.Kids[0].Width
		if lo+w <= iw {
			return Extract(a.Kids[0], lo, w)
		}
		if lo >= iw {
			return Const(w, 0)
		}
	}
	return intern1(OpExtract, w, lo, a)
}

// Concat joins hi (upper bits) and lo (lower bits).
func Concat(hi, lo *Expr) *Expr {
	w := uint16(hi.Width) + uint16(lo.Width)
	if w > 64 {
		panic("expr: concat result wider than 64 bits")
	}
	if hi.IsConst() && lo.IsConst() {
		return Const(uint8(w), hi.Val<<lo.Width|lo.Val)
	}
	if hi.IsConst() && hi.Val == 0 {
		return ZExt(lo, uint8(w))
	}
	// concat(extract(x, k+n, m), extract(x, k, n)) = extract(x, k, n+m)
	if hi.Op == OpExtract && lo.Op == OpExtract && hi.Kids[0] == lo.Kids[0] &&
		hi.Lo == lo.Lo+lo.Width {
		return Extract(hi.Kids[0], lo.Lo, uint8(w))
	}
	return intern2(OpConcat, uint8(w), hi, lo)
}

// ZExt zero-extends a to width w.
func ZExt(a *Expr, w uint8) *Expr {
	checkWidth(w)
	if w < a.Width {
		panic("expr: zext narrows")
	}
	if w == a.Width {
		return a
	}
	if a.IsConst() {
		return Const(w, a.Val)
	}
	if a.Op == OpZExt {
		return ZExt(a.Kids[0], w)
	}
	return intern1(OpZExt, w, 0, a)
}

// SExt sign-extends a to width w.
func SExt(a *Expr, w uint8) *Expr {
	checkWidth(w)
	if w < a.Width {
		panic("expr: sext narrows")
	}
	if w == a.Width {
		return a
	}
	if a.IsConst() {
		return Const(w, signExt(a.Val, a.Width))
	}
	return intern1(OpSExt, w, 0, a)
}

// String renders the term in a compact s-expression form.
func (e *Expr) String() string {
	var b strings.Builder
	e.write(&b)
	return b.String()
}

func (e *Expr) write(b *strings.Builder) {
	switch e.Op {
	case OpConst:
		fmt.Fprintf(b, "0x%x:%d", e.Val, e.Width)
	case OpVar:
		fmt.Fprintf(b, "%s:%d", e.Name, e.Width)
	case OpExtract:
		fmt.Fprintf(b, "(extract %d %d ", e.Lo, e.Lo+e.Width-1)
		e.Kids[0].write(b)
		b.WriteByte(')')
	case OpZExt, OpSExt:
		fmt.Fprintf(b, "(%s %d ", e.Op, e.Width)
		e.Kids[0].write(b)
		b.WriteByte(')')
	default:
		b.WriteByte('(')
		b.WriteString(e.Op.String())
		for _, k := range e.Kids {
			b.WriteByte(' ')
			k.write(b)
		}
		b.WriteByte(')')
	}
}

// Eval evaluates e under the variable assignment env. Missing variables
// evaluate to zero. The result is masked to e's width.
func Eval(e *Expr, env map[string]uint64) uint64 {
	switch e.Op {
	case OpConst:
		return e.Val
	case OpVar:
		return env[e.Name] & Mask(e.Width)
	}
	return evalNode(e, func(i int) uint64 { return Eval(e.Kids[i], env) })
}

// EvalOp applies e's operator to its children's values a, b and c (for
// Kids[0], Kids[1] and Kids[2]; the ones e lacks are ignored), for callers
// that keep node values themselves. e must not be a leaf.
func EvalOp(e *Expr, a, b, c uint64) uint64 {
	return evalNode(e, func(i int) uint64 {
		switch i {
		case 0:
			return a
		case 1:
			return b
		}
		return c
	})
}

// evalNode applies one operator given an evaluator for its children —
// shared by the plain recursive Eval and EvalOp.
func evalNode(e *Expr, k func(int) uint64) uint64 {
	m := Mask(e.Width)
	switch e.Op {
	case OpNot:
		return ^k(0) & m
	case OpNeg:
		return -k(0) & m
	case OpAnd:
		return k(0) & k(1)
	case OpOr:
		return k(0) | k(1)
	case OpXor:
		return k(0) ^ k(1)
	case OpAdd:
		return (k(0) + k(1)) & m
	case OpSub:
		return (k(0) - k(1)) & m
	case OpMul:
		return (k(0) * k(1)) & m
	case OpUDiv:
		d := k(1)
		if d == 0 {
			return m
		}
		return k(0) / d
	case OpURem:
		a, d := k(0), k(1)
		if d == 0 {
			return a
		}
		return a % d
	case OpShl:
		n := k(1)
		if n >= uint64(e.Width) {
			return 0
		}
		return k(0) << n & m
	case OpLShr:
		n := k(1)
		if n >= uint64(e.Width) {
			return 0
		}
		return k(0) >> n
	case OpAShr:
		n := k(1)
		if n >= uint64(e.Width) {
			n = uint64(e.Width) - 1
		}
		return uint64(int64(signExt(k(0), e.Width))>>n) & m
	case OpEq:
		if k(0) == k(1) {
			return 1
		}
		return 0
	case OpUlt:
		if k(0) < k(1) {
			return 1
		}
		return 0
	case OpSlt:
		w := e.Kids[0].Width
		if int64(signExt(k(0), w)) < int64(signExt(k(1), w)) {
			return 1
		}
		return 0
	case OpIte:
		if k(0) == 1 {
			return k(1)
		}
		return k(2)
	case OpExtract:
		return k(0) >> e.Lo & m
	case OpConcat:
		return (k(0)<<e.Kids[1].Width | k(1)) & m
	case OpZExt:
		return k(0)
	case OpSExt:
		return signExt(k(0), e.Kids[0].Width) & m
	default:
		panic("expr: eval of unknown op")
	}
}

// CollectVars appends the names of all free variables in e to set.
func CollectVars(e *Expr, set map[string]uint8) {
	if e.Op == OpVar {
		set[e.Name] = e.Width
		return
	}
	for _, k := range e.Kids {
		CollectVars(k, set)
	}
}

// Vars returns the sorted names of all free variables in e.
func Vars(e *Expr) []string {
	set := make(map[string]uint8)
	CollectVars(e, set)
	names := make([]string, 0, len(set))
	for n := range set {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Substitute replaces every variable named in sub with its replacement term
// (which must have the variable's width), rebuilding and re-simplifying the
// term bottom-up. Variables not in sub are kept.
func Substitute(e *Expr, sub map[string]*Expr) *Expr {
	switch e.Op {
	case OpConst:
		return e
	case OpVar:
		if r, ok := sub[e.Name]; ok {
			if r.Width != e.Width {
				panic("expr: substitute width mismatch for " + e.Name)
			}
			return r
		}
		return e
	}
	kids := make([]*Expr, len(e.Kids))
	changed := false
	for i, k := range e.Kids {
		kids[i] = Substitute(k, sub)
		if kids[i] != k {
			changed = true
		}
	}
	if !changed {
		return e
	}
	return rebuild(e, kids)
}

func rebuild(e *Expr, kids []*Expr) *Expr {
	switch e.Op {
	case OpNot:
		return Not(kids[0])
	case OpNeg:
		return Neg(kids[0])
	case OpAnd:
		return And(kids[0], kids[1])
	case OpOr:
		return Or(kids[0], kids[1])
	case OpXor:
		return Xor(kids[0], kids[1])
	case OpAdd:
		return Add(kids[0], kids[1])
	case OpSub:
		return Sub(kids[0], kids[1])
	case OpMul:
		return Mul(kids[0], kids[1])
	case OpUDiv:
		return UDiv(kids[0], kids[1])
	case OpURem:
		return URem(kids[0], kids[1])
	case OpShl:
		return Shl(kids[0], kids[1])
	case OpLShr:
		return LShr(kids[0], kids[1])
	case OpAShr:
		return AShr(kids[0], kids[1])
	case OpEq:
		return Eq(kids[0], kids[1])
	case OpUlt:
		return Ult(kids[0], kids[1])
	case OpSlt:
		return Slt(kids[0], kids[1])
	case OpIte:
		return Ite(kids[0], kids[1], kids[2])
	case OpExtract:
		return Extract(kids[0], e.Lo, e.Width)
	case OpConcat:
		return Concat(kids[0], kids[1])
	case OpZExt:
		return ZExt(kids[0], e.Width)
	case OpSExt:
		return SExt(kids[0], e.Width)
	default:
		panic("expr: rebuild of unknown op")
	}
}

// Size returns the number of nodes in the term DAG counted as a tree.
func Size(e *Expr) int {
	n := 1
	for _, k := range e.Kids {
		n += Size(k)
	}
	return n
}
