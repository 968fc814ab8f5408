package solver

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sync/atomic"

	"pokeemu/internal/expr"
	"pokeemu/internal/faults"
)

// BV is the bit-vector decision procedure: it lowers expr terms to CNF via
// Tseitin encoding over a CDCL core and answers incremental satisfiability
// queries under assumptions, returning models as variable assignments.
//
// Translation is cached both by term pointer and by structural hash, so a
// branch condition rebuilt on a re-executed path (as the online exploration
// strategy does) does not get re-encoded.
type BV struct {
	sat   *CDCL
	tru   Lit
	fls   Lit
	ptr   map[*expr.Expr][]Lit
	hash  map[uint64][]hashEntry
	vars  map[string][]Lit
	hmemo map[*expr.Expr]uint64
	memo  map[string]memoEntry

	// Queries counts Check calls; Encoded counts encoded term nodes.
	// MemoHits/MemoMisses/SubsumeHits split Queries by whether the
	// assumption-set memo or the model-subsumption fast path answered
	// without running the SAT core.
	Queries     int64
	Encoded     int64
	MemoHits    int64
	MemoMisses  int64
	SubsumeHits int64

	// MaxConflicts bounds each Check's SAT search (0 = unlimited); an
	// exhausted budget returns Unknown deterministically. Unknown results
	// are never memoized, so raising the budget on the same instance
	// re-solves instead of replaying the give-up.
	MaxConflicts int64

	// Reuse turns on the batched front-end: sibling queries keep the
	// shared assumption-prefix trail alive inside the CDCL core (one
	// incremental CNF, learned clauses reused across the whole task), so a
	// query that extends the previous path by one branch only decides the
	// new suffix. Off, every query re-decides its assumptions from level 0.
	Reuse bool

	// Subsume turns on the model-subsumption fast path between sibling
	// path-condition queries: a query whose assumption literals all
	// evaluate true under the last Sat model is answered Sat without
	// touching the SAT core. This is sound because every clause added
	// after a model snapshot is a definitional Tseitin gate over fresh
	// output variables (only Assert adds non-definitional constraints, and
	// Assert invalidates the snapshot), so the old model always extends to
	// a full satisfying assignment. The answered model is the old
	// snapshot, which is why exploration configs that flip this knob go
	// through the SerialVersion dance: verdicts never change, models may.
	Subsume    bool
	modelValid bool

	// NoReduce passes through to the CDCL core on every check (see the
	// CDCL field of the same name).
	NoReduce bool

	// Strash turns on structural hashing of and/xor/mux gates: a gate whose
	// normalized inputs match an existing gate returns that gate's output
	// literal and adds no clauses, so two differently shaped terms that
	// lower to the same circuit (the two restoring dividers of an idiv
	// miter, say) share one copy of it. Off, operands are never reordered
	// and the CNF is exactly the unshared encoding. Sharing renumbers
	// literals, which moves SAT models, so it stays off wherever a model
	// feeds a pinned golden or a cached test (the exploration solver).
	Strash bool
	gates  map[gateKey]Lit
}

// gateKey identifies one strashed gate by its kind and normalized inputs.
type gateKey struct {
	op      gateOp
	a, b, c Lit
}

type gateOp uint8

const (
	gateAnd gateOp = iota
	gateXor
	gateMux
)

// memoEntry caches the outcome of one assumption set: the status, and for
// Sat the full model snapshot so a hit can restore it for Model() callers.
type memoEntry struct {
	st    Status
	model []bool
}

const (
	// checkMemoCap bounds the assumption-set memo; encodeCacheCap bounds the
	// translation caches (ptr/hash/hmemo) and the strash gate map. All are
	// cleared wholesale when full: dropping entries only costs
	// re-solving/re-encoding, never soundness, and a hard cap is what keeps
	// an 8192-path exploration from growing memory without bound.
	checkMemoCap   = 1 << 14
	encodeCacheCap = 1 << 16
)

// Process-wide solver counters, aggregated across every BV instance (the
// parallel explorer gives each worker its own BV). The campaign timing table
// and the pokeemud /metrics endpoint read these.
var (
	memoHitsTotal     atomic.Int64
	memoMissesTotal   atomic.Int64
	internalQueries   atomic.Int64
	reusedLevelsTotal atomic.Int64
)

// MemoTotals reports process-wide CheckLits memo hits and misses.
func MemoTotals() (hits, misses int64) {
	return memoHitsTotal.Load(), memoMissesTotal.Load()
}

// QueriesTotal reports process-wide CheckLits calls.
func QueriesTotal() int64 { return internalQueries.Load() }

// ReusedLevelsTotal reports process-wide assumption decision levels kept
// alive across queries by the batched front-end (levels the solver did not
// have to re-decide and re-propagate).
func ReusedLevelsTotal() int64 { return reusedLevelsTotal.Load() }

type hashEntry struct {
	e    *expr.Expr
	lits []Lit
}

// NewBV returns an empty bit-vector solver.
func NewBV() *BV {
	b := &BV{
		sat:   NewSat(),
		ptr:   make(map[*expr.Expr][]Lit),
		hash:  make(map[uint64][]hashEntry),
		vars:  make(map[string][]Lit),
		hmemo: make(map[*expr.Expr]uint64),
		memo:  make(map[string]memoEntry),
	}
	t := b.sat.NewVar()
	b.tru = MkLit(t, false)
	b.fls = b.tru.Neg()
	b.sat.AddClause(b.tru)
	return b
}

// lit constant helpers

func (b *BV) constLit(bit bool) Lit {
	if bit {
		return b.tru
	}
	return b.fls
}

func (b *BV) isTrue(l Lit) bool  { return l == b.tru }
func (b *BV) isFalse(l Lit) bool { return l == b.fls }

// fresh allocates a new gate output literal.
func (b *BV) fresh() Lit { return MkLit(b.sat.NewVar(), false) }

// shared returns the strashed output of gate k, or false if there is none
// (always, with Strash off).
func (b *BV) shared(k gateKey) (Lit, bool) {
	if !b.Strash {
		return 0, false
	}
	o, ok := b.gates[k]
	return o, ok
}

// share records o as the output of gate k. Like the translation caches,
// the map is dropped wholesale at encodeCacheCap: the gate's clauses stay
// in the CNF, so forgetting it only costs a duplicate gate later.
func (b *BV) share(k gateKey, o Lit) {
	if !b.Strash {
		return
	}
	if b.gates == nil || len(b.gates) >= encodeCacheCap {
		b.gates = make(map[gateKey]Lit)
	}
	b.gates[k] = o
}

// and encodes o ↔ x ∧ y.
func (b *BV) and(x, y Lit) Lit {
	if b.isFalse(x) || b.isFalse(y) {
		return b.fls
	}
	if b.isTrue(x) {
		return y
	}
	if b.isTrue(y) {
		return x
	}
	if x == y {
		return x
	}
	if x == y.Neg() {
		return b.fls
	}
	if b.Strash && y < x {
		x, y = y, x
	}
	k := gateKey{op: gateAnd, a: x, b: y}
	if o, ok := b.shared(k); ok {
		return o
	}
	o := b.fresh()
	b.sat.AddClause(o.Neg(), x)
	b.sat.AddClause(o.Neg(), y)
	b.sat.AddClause(o, x.Neg(), y.Neg())
	b.share(k, o)
	return o
}

// or encodes o ↔ x ∨ y.
func (b *BV) or(x, y Lit) Lit {
	return b.and(x.Neg(), y.Neg()).Neg()
}

// xor encodes o ↔ x ⊕ y.
func (b *BV) xor(x, y Lit) Lit {
	if b.isFalse(x) {
		return y
	}
	if b.isFalse(y) {
		return x
	}
	if b.isTrue(x) {
		return y.Neg()
	}
	if b.isTrue(y) {
		return x.Neg()
	}
	if x == y {
		return b.fls
	}
	if x == y.Neg() {
		return b.tru
	}
	// ¬x ⊕ y = x ⊕ ¬y = ¬(x ⊕ y): strash factors the input negations out
	// onto the output so all four sign combinations share one gate.
	var flip Lit
	if b.Strash {
		flip = (x ^ y) & 1
		x, y = x&^1, y&^1
		if y < x {
			x, y = y, x
		}
	}
	k := gateKey{op: gateXor, a: x, b: y}
	if o, ok := b.shared(k); ok {
		return o ^ flip
	}
	o := b.fresh()
	b.sat.AddClause(o.Neg(), x, y)
	b.sat.AddClause(o.Neg(), x.Neg(), y.Neg())
	b.sat.AddClause(o, x.Neg(), y)
	b.sat.AddClause(o, x, y.Neg())
	b.share(k, o)
	return o ^ flip
}

// mux encodes o ↔ (c ? t : f).
func (b *BV) mux(c, t, f Lit) Lit {
	if b.isTrue(c) {
		return t
	}
	if b.isFalse(c) {
		return f
	}
	if t == f {
		return t
	}
	if b.isTrue(t) && b.isFalse(f) {
		return c
	}
	if b.isFalse(t) && b.isTrue(f) {
		return c.Neg()
	}
	if b.Strash && c.Sign() {
		c, t, f = c.Neg(), f, t
	}
	k := gateKey{op: gateMux, a: c, b: t, c: f}
	if o, ok := b.shared(k); ok {
		return o
	}
	o := b.fresh()
	b.sat.AddClause(c.Neg(), t.Neg(), o)
	b.sat.AddClause(c.Neg(), t, o.Neg())
	b.sat.AddClause(c, f.Neg(), o)
	b.sat.AddClause(c, f, o.Neg())
	b.share(k, o)
	return o
}

// adder computes sum and carry-out of x + y + cin for one bit.
func (b *BV) adder(x, y, cin Lit) (sum, cout Lit) {
	xy := b.xor(x, y)
	sum = b.xor(xy, cin)
	cout = b.or(b.and(x, y), b.and(cin, xy))
	return sum, cout
}

// addVec adds two bit vectors with carry-in; LSB first.
func (b *BV) addVec(x, y []Lit, cin Lit) []Lit {
	out := make([]Lit, len(x))
	c := cin
	for i := range x {
		out[i], c = b.adder(x[i], y[i], c)
	}
	return out
}

func (b *BV) negVec(x []Lit) []Lit {
	inv := make([]Lit, len(x))
	zero := make([]Lit, len(x))
	for i := range x {
		inv[i] = x[i].Neg()
		zero[i] = b.fls
	}
	return b.addVec(inv, zero, b.tru)
}

// ultVec returns the literal for unsigned x < y (LSB-first vectors).
func (b *BV) ultVec(x, y []Lit) Lit {
	lt := b.fls
	for i := range x { // ripple from LSB to MSB
		xn := x[i].Neg()
		biLT := b.and(xn, y[i])
		eqi := b.xor(x[i], y[i]).Neg()
		lt = b.mux(eqi, lt, biLT)
	}
	return lt
}

// eqVec returns the literal for x = y.
func (b *BV) eqVec(x, y []Lit) Lit {
	acc := b.tru
	for i := range x {
		acc = b.and(acc, b.xor(x[i], y[i]).Neg())
	}
	return acc
}

// muxVec selects between two vectors.
func (b *BV) muxVec(c Lit, t, f []Lit) []Lit {
	out := make([]Lit, len(t))
	for i := range t {
		out[i] = b.mux(c, t[i], f[i])
	}
	return out
}

func (b *BV) constVec(w uint8, v uint64) []Lit {
	out := make([]Lit, w)
	for i := range out {
		out[i] = b.constLit(v>>uint(i)&1 == 1)
	}
	return out
}

// structural hash for cache lookups across rebuilt terms.
func (b *BV) hashOf(e *expr.Expr) uint64 {
	if h, ok := b.hmemo[e]; ok {
		return h
	}
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		h ^= v
		h *= 1099511628211
	}
	mix(uint64(e.Op))
	mix(uint64(e.Width))
	mix(e.Val)
	mix(uint64(e.Lo))
	for i := 0; i < len(e.Name); i++ {
		mix(uint64(e.Name[i]))
	}
	for _, k := range e.Kids {
		mix(b.hashOf(k))
	}
	b.hmemo[e] = h
	return h
}

func structuralEq(a, c *expr.Expr) bool {
	if a == c {
		return true
	}
	if a.Op != c.Op || a.Width != c.Width || a.Val != c.Val ||
		a.Name != c.Name || a.Lo != c.Lo || len(a.Kids) != len(c.Kids) {
		return false
	}
	for i := range a.Kids {
		if !structuralEq(a.Kids[i], c.Kids[i]) {
			return false
		}
	}
	return true
}

// Bits translates e into a bit vector of literals, LSB first.
func (b *BV) Bits(e *expr.Expr) []Lit {
	if lits, ok := b.ptr[e]; ok {
		return lits
	}
	h := b.hashOf(e)
	for _, ent := range b.hash[h] {
		if structuralEq(ent.e, e) {
			b.ptr[e] = ent.lits
			return ent.lits
		}
	}
	lits := b.encode(e)
	if len(b.ptr) >= encodeCacheCap {
		// The translation caches are pure memoization over an append-only
		// CNF; dropping them re-encodes future terms but loses nothing.
		// b.vars must survive: it carries variable identity.
		b.ptr = make(map[*expr.Expr][]Lit)
		b.hash = make(map[uint64][]hashEntry)
		b.hmemo = make(map[*expr.Expr]uint64)
	}
	b.ptr[e] = lits
	b.hash[h] = append(b.hash[h], hashEntry{e, lits})
	b.Encoded++
	return lits
}

func (b *BV) encode(e *expr.Expr) []Lit {
	switch e.Op {
	case expr.OpConst:
		return b.constVec(e.Width, e.Val)
	case expr.OpVar:
		if lits, ok := b.vars[e.Name]; ok {
			if len(lits) != int(e.Width) {
				panic(fmt.Sprintf("solver: variable %s used at widths %d and %d",
					e.Name, len(lits), e.Width))
			}
			return lits
		}
		lits := make([]Lit, e.Width)
		for i := range lits {
			lits[i] = b.fresh()
		}
		b.vars[e.Name] = lits
		return lits
	}
	k := make([][]Lit, len(e.Kids))
	for i, kid := range e.Kids {
		k[i] = b.Bits(kid)
	}
	switch e.Op {
	case expr.OpNot:
		out := make([]Lit, len(k[0]))
		for i, l := range k[0] {
			out[i] = l.Neg()
		}
		return out
	case expr.OpNeg:
		return b.negVec(k[0])
	case expr.OpAnd, expr.OpOr, expr.OpXor:
		out := make([]Lit, len(k[0]))
		for i := range out {
			switch e.Op {
			case expr.OpAnd:
				out[i] = b.and(k[0][i], k[1][i])
			case expr.OpOr:
				out[i] = b.or(k[0][i], k[1][i])
			default:
				out[i] = b.xor(k[0][i], k[1][i])
			}
		}
		return out
	case expr.OpAdd:
		return b.addVec(k[0], k[1], b.fls)
	case expr.OpSub:
		inv := make([]Lit, len(k[1]))
		for i, l := range k[1] {
			inv[i] = l.Neg()
		}
		return b.addVec(k[0], inv, b.tru)
	case expr.OpMul:
		return b.mulVec(k[0], k[1])
	case expr.OpUDiv:
		q, _ := b.divRem(k[0], k[1])
		return q
	case expr.OpURem:
		_, r := b.divRem(k[0], k[1])
		return r
	case expr.OpShl:
		return b.shift(k[0], k[1], shlKind)
	case expr.OpLShr:
		return b.shift(k[0], k[1], lshrKind)
	case expr.OpAShr:
		return b.shift(k[0], k[1], ashrKind)
	case expr.OpEq:
		return []Lit{b.eqVec(k[0], k[1])}
	case expr.OpUlt:
		return []Lit{b.ultVec(k[0], k[1])}
	case expr.OpSlt:
		// Signed comparison = unsigned comparison with sign bits flipped.
		x := append([]Lit(nil), k[0]...)
		y := append([]Lit(nil), k[1]...)
		x[len(x)-1] = x[len(x)-1].Neg()
		y[len(y)-1] = y[len(y)-1].Neg()
		return []Lit{b.ultVec(x, y)}
	case expr.OpIte:
		return b.muxVec(k[0][0], k[1], k[2])
	case expr.OpExtract:
		return k[0][e.Lo : int(e.Lo)+int(e.Width)]
	case expr.OpConcat:
		out := make([]Lit, 0, e.Width)
		out = append(out, k[1]...) // low part first (LSB order)
		out = append(out, k[0]...)
		return out
	case expr.OpZExt:
		out := make([]Lit, e.Width)
		copy(out, k[0])
		for i := len(k[0]); i < int(e.Width); i++ {
			out[i] = b.fls
		}
		return out
	case expr.OpSExt:
		out := make([]Lit, e.Width)
		copy(out, k[0])
		sign := k[0][len(k[0])-1]
		for i := len(k[0]); i < int(e.Width); i++ {
			out[i] = sign
		}
		return out
	default:
		panic("solver: cannot encode op " + e.Op.String())
	}
}

func (b *BV) mulVec(x, y []Lit) []Lit {
	w := len(x)
	acc := b.constVec(uint8(w), 0)
	for i := 0; i < w; i++ {
		// Partial product: (x << i) & replicate(y[i]), added when y[i].
		pp := make([]Lit, w)
		for j := 0; j < w; j++ {
			if j < i {
				pp[j] = b.fls
			} else {
				pp[j] = b.and(x[j-i], y[i])
			}
		}
		acc = b.addVec(acc, pp, b.fls)
	}
	return acc
}

// divRem encodes restoring division. SMT-LIB semantics for zero divisors:
// udiv → all-ones, urem → dividend.
func (b *BV) divRem(x, y []Lit) (q, r []Lit) {
	w := len(x)
	q = make([]Lit, w)
	// rem holds w+1 bits to absorb the shift before comparison.
	rem := b.constVec(uint8(w+1), 0)
	yw := make([]Lit, w+1)
	copy(yw, y)
	yw[w] = b.fls
	for i := w - 1; i >= 0; i-- {
		// rem = rem << 1 | x[i]
		shifted := make([]Lit, w+1)
		shifted[0] = x[i]
		copy(shifted[1:], rem[:w])
		lt := b.ultVec(shifted, yw)
		q[i] = lt.Neg()
		diff := b.addVec(shifted, b.negLits(yw), b.fls)
		rem = b.muxVec(lt, shifted, diff)
	}
	r = rem[:w]
	// Zero-divisor handling.
	zero := b.constVec(uint8(w), 0)
	isZ := b.eqVec(y, zero)
	ones := make([]Lit, w)
	for i := range ones {
		ones[i] = b.tru
	}
	q = b.muxVec(isZ, ones, q)
	r = b.muxVec(isZ, x, r)
	return q, r
}

func (b *BV) negLits(x []Lit) []Lit {
	return b.negVec(x)
}

type shiftKind int

const (
	shlKind shiftKind = iota
	lshrKind
	ashrKind
)

// shift encodes a barrel shifter for a variable shift amount. Amounts at or
// beyond the width yield zero (shl/lshr) or sign fill (ashr).
func (b *BV) shift(x, amt []Lit, kind shiftKind) []Lit {
	w := len(x)
	fill := b.fls
	if kind == ashrKind {
		fill = x[w-1]
	}
	cur := append([]Lit(nil), x...)
	for k := 0; k < len(amt) && (1<<k) < w; k++ {
		sh := 1 << k
		next := make([]Lit, w)
		for i := 0; i < w; i++ {
			var src Lit
			switch kind {
			case shlKind:
				if i-sh >= 0 {
					src = cur[i-sh]
				} else {
					src = b.fls
				}
			default:
				if i+sh < w {
					src = cur[i+sh]
				} else {
					src = fill
				}
			}
			next[i] = b.mux(amt[k], src, cur[i])
		}
		cur = next
	}
	// If the amount value ≥ w, the result saturates to fill bits.
	ovf := b.geConst(amt, uint64(w))
	out := make([]Lit, w)
	for i := range out {
		out[i] = b.mux(ovf, fill, cur[i])
	}
	return out
}

// geConst returns the literal for (unsigned value of bits) >= c.
func (b *BV) geConst(bits []Lit, c uint64) Lit {
	if c == 0 {
		return b.tru
	}
	if len(bits) < 64 && c > (uint64(1)<<len(bits))-1 {
		return b.fls
	}
	cv := b.constVec(uint8(len(bits)), c)
	return b.ultVec(bits, cv).Neg()
}

// Assert permanently adds the 1-bit term e as a hard constraint.
func (b *BV) Assert(e *expr.Expr) {
	if e.Width != 1 {
		panic("solver: Assert requires a 1-bit term")
	}
	l := b.Bits(e)[0]
	b.sat.AddClause(l)
	// A new hard constraint can flip any memoized answer from Sat to Unsat,
	// and invalidates the model snapshot the subsumption fast path tests
	// against: the old model need not satisfy the new constraint.
	b.memo = make(map[string]memoEntry)
	b.modelValid = false
}

// LitFor translates the 1-bit term e and returns its literal, for use as an
// assumption in CheckLits.
func (b *BV) LitFor(e *expr.Expr) Lit {
	if e.Width != 1 {
		panic("solver: LitFor requires a 1-bit term")
	}
	return b.Bits(e)[0]
}

// Check decides satisfiability of the hard constraints plus the given 1-bit
// assumption terms.
func (b *BV) Check(assumps []*expr.Expr) Status {
	lits := make([]Lit, len(assumps))
	for i, e := range assumps {
		lits[i] = b.LitFor(e)
	}
	return b.CheckLits(lits)
}

// CheckLits decides satisfiability under pre-translated assumption literals.
//
// Results are memoized per assumption *set* (the key is order-insensitive
// and sign-aware: the sign bit lives inside each Lit). A Sat hit restores
// the model snapshot taken when the entry was stored, so Model()/ModelVal()
// behave exactly as after a real solve; variables first encoded after the
// snapshot read as zero, which is a legal assignment for variables the
// memoized query never constrained. Assert invalidates the memo.
func (b *BV) CheckLits(lits []Lit) Status {
	b.Queries++
	internalQueries.Add(1)
	key := memoKey(lits)
	// Injected decision-procedure timeout. The solver has no error return
	// (Unsat/Sat/Unknown are all answers), so an injected timeout panics and
	// rides the same per-instruction isolation that absorbs organic solver
	// bugs; the key is the assumption-set memo key, so n=/every= triggers
	// count queries and key= can target one assumption set.
	if err := faults.Hit(faults.SolverQuery, key); err != nil {
		panic(err)
	}
	if ent, ok := b.memo[key]; ok {
		b.MemoHits++
		memoHitsTotal.Add(1)
		if ent.st == Sat {
			// Model snapshots are immutable, so restoring a cached result
			// is a pointer swap, not an O(vars) copy. The entry postdates
			// the last Assert (which clears the memo), so its model is
			// still a valid snapshot for the subsumption fast path.
			b.sat.SetModel(ent.model)
			b.modelValid = true
			if Validate {
				b.validateHit(lits, ent.model, "memo")
			}
		}
		return ent.st
	}
	if b.Subsume && b.modelValid && modelCovers(b.sat.Model(), lits) {
		// Every assumption already holds under the last Sat model: answer
		// Sat without solving (see the Subsume field comment for why this
		// is sound). The current model stays current.
		b.SubsumeHits++
		subsumeHitsTotal.Add(1)
		if Validate {
			b.validateHit(lits, b.sat.Model(), "subsume")
		}
		if len(b.memo) >= checkMemoCap {
			b.memo = make(map[string]memoEntry)
		}
		b.memo[key] = memoEntry{st: Sat, model: b.sat.Model()}
		return Sat
	}
	b.MemoMisses++
	memoMissesTotal.Add(1)
	b.sat.MaxConflicts = b.MaxConflicts
	b.sat.Reuse = b.Reuse
	b.sat.NoReduce = b.NoReduce
	prevReused := b.sat.ReusedLevels
	st := b.sat.Solve(lits)
	reusedLevelsTotal.Add(b.sat.ReusedLevels - prevReused)
	if st == Unknown {
		// Unknown is a statement about the budget, not the formula: it must
		// never enter the memo, or a later call with a bigger budget (or a
		// richer learned-clause set) would replay the give-up instead of
		// deciding.
		return st
	}
	ent := memoEntry{st: st}
	if st == Sat {
		ent.model = b.sat.Model()
		b.modelValid = true
	}
	if len(b.memo) >= checkMemoCap {
		b.memo = make(map[string]memoEntry)
	}
	b.memo[key] = ent
	return st
}

// modelCovers reports whether every assumption literal is inside the model
// (its variable predates the snapshot) and evaluates true under it.
func modelCovers(m []bool, lits []Lit) bool {
	for _, l := range lits {
		v := l.Var()
		if v >= len(m) || m[v] == l.Sign() {
			return false
		}
	}
	return true
}

// validateHit is the Validate debug gate for the memo and subsumption fast
// paths: the returned model must make every assumption true. The full
// clause-set check from CDCL.Solve does not apply here — definitional
// gates encoded after the snapshot legitimately involve variables beyond
// the model's length — but the assumptions themselves must hold.
func (b *BV) validateHit(lits []Lit, m []bool, path string) {
	for _, l := range lits {
		v := l.Var()
		if v >= len(m) || m[v] == l.Sign() {
			panic(fmt.Sprintf("solver: %s hit model falsifies assumption %d", path, l))
		}
	}
}

// memoKey canonicalizes an assumption set into a map key: sort a copy (the
// caller's slice is never reordered) and pack the raw literals. Two queries
// with the same literals in any order share one entry; a literal and its
// negation differ in the packed value, so the key is sign-aware.
func memoKey(lits []Lit) string {
	s := slices.Clone(lits)
	slices.Sort(s)
	buf := make([]byte, 4*len(s))
	for i, l := range s {
		binary.LittleEndian.PutUint32(buf[i*4:], uint32(l))
	}
	return string(buf)
}

// Model extracts values for every bit-blasted variable after a Sat result.
// Variables never mentioned in any query are absent.
func (b *BV) Model() map[string]uint64 {
	m := make(map[string]uint64, len(b.vars))
	b.ModelVars(func(name string, v uint64) { m[name] = v })
	return m
}

// ModelVars calls f with the model value of every bit-blasted variable, in
// no particular order — Model without building the map.
func (b *BV) ModelVars(f func(name string, v uint64)) {
	for name, lits := range b.vars {
		f(name, b.valueOf(lits))
	}
}

// ModelVal returns the model value of one variable (zero if never encoded).
func (b *BV) ModelVal(name string) uint64 {
	lits, ok := b.vars[name]
	if !ok {
		return 0
	}
	return b.valueOf(lits)
}

// ValueOf returns the value of an already-encoded term under the current
// SAT model. Callers must encode the term (Bits) before solving; bits
// allocated after the model was produced read as zero.
func (b *BV) ValueOf(e *expr.Expr) uint64 { return b.valueOf(b.Bits(e)) }

func (b *BV) valueOf(lits []Lit) uint64 {
	var v uint64
	for i, l := range lits {
		bit := b.sat.Value(l.Var())
		if l.Sign() {
			bit = !bit
		}
		if bit {
			v |= uint64(1) << uint(i)
		}
	}
	return v
}

// NumClauses reports the size of the underlying CNF, for diagnostics.
func (b *BV) NumClauses() int { return b.sat.NumClauses() }

// NumVarsSAT reports the number of SAT variables allocated.
func (b *BV) NumVarsSAT() int { return b.sat.NumVars() }
