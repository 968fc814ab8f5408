// Package solver implements the decision procedure used by symbolic
// execution: a CDCL SAT solver (two-watched literals over a flat clause
// arena, first-UIP clause learning, VSIDS-style variable activity, phase
// saving, Luby restarts, LBD-scored learned-clause reduction, incremental
// solving under assumptions) plus a bit-blaster that lowers bit-vector
// terms from package expr to CNF. Together they play the role STP and Z3
// play for FuzzBALL: quantifier-free bit-vector satisfiability with model
// generation.
package solver

import (
	"fmt"
	"sort"
	"sync"
	"unsafe"
)

// Lit is a SAT literal: variable index v encoded as 2v (positive) or
// 2v+1 (negated).
type Lit int32

// MkLit builds a literal for variable v, negated when neg is true.
func MkLit(v int, neg bool) Lit {
	l := Lit(v) << 1
	if neg {
		l |= 1
	}
	return l
}

// Neg returns the complement literal.
func (l Lit) Neg() Lit { return l ^ 1 }

// Var returns the literal's variable index.
func (l Lit) Var() int { return int(l >> 1) }

// Sign reports whether the literal is negated.
func (l Lit) Sign() bool { return l&1 == 1 }

const (
	valUnassigned int8 = -1
	valFalse      int8 = 0
	valTrue       int8 = 1
)

// Status is the result of a Solve call.
type Status int

// Solve outcomes.
const (
	Unknown Status = iota
	Sat
	Unsat
)

func (s Status) String() string {
	switch s {
	case Sat:
		return "sat"
	case Unsat:
		return "unsat"
	default:
		return "unknown"
	}
}

const noReason int32 = -1

// Validate, when true, makes every Sat result re-check the full clause set
// plus assumptions against the returned model, and every reduceDB pass
// re-check watcher integrity and level-0 trail consistency for the
// retained clauses, panicking on any violation. It is a debug-build knob:
// test mains switch it on so correctness is machine-checked on every run,
// while production binaries leave it off. Set it before solving starts —
// it is read without synchronization.
var Validate bool

// Clause arena layout. All clause literals live in one contiguous []int32
// slab; a clause reference is the offset of its header in the slab:
//
//	arena[ref+0] = size<<1 | learntFlag
//	arena[ref+1] = lbd       (0 for problem clauses)
//	arena[ref+2 .. ref+2+size) = literals
//
// clauseHdr is the header size in words. Refs are always >= 0, so
// noReason (-1) stays a valid sentinel.
const clauseHdr = 2

// CDCL is a conflict-driven clause-learning SAT solver. The zero value is not usable; call NewSat.
type CDCL struct {
	satStore
	nclauses int
	qhead    int
	varInc   float64

	ok    bool   // false once a top-level conflict is found
	model []bool // assignment snapshot from the last Sat result; a
	// fresh slice per Sat, never mutated afterwards, so callers may share
	// it without copying
	released bool // Release ran; every method panics

	Conflicts int64
	Decisions int64
	Props     int64
	Restarts  int64
	Reduces   int64 // reduceDB passes run
	Removed   int64 // learned clauses dropped by reduceDB

	// MaxConflicts bounds the conflicts a single Solve call may spend
	// before giving up with Unknown (0 = unlimited). Unlike a wall-clock
	// timeout this budget is deterministic: the same query sequence yields
	// the same answer on every run and every machine, which is what lets
	// the equivalence checker report a reproducible UNKNOWN verdict
	// instead of a machine-speed-dependent one.
	MaxConflicts int64

	// Reuse keeps the assumption-decision prefix of the trail alive
	// between Solve calls. Sibling queries from one explore task share a
	// long path-condition prefix; with Reuse on, a call only backtracks to
	// the longest common prefix with the previous call's assumptions and
	// re-decides the suffix, instead of re-deciding and re-propagating the
	// whole prefix from level 0 every time.
	Reuse bool
	// ReusedLevels counts assumption decision levels carried over between
	// Solve calls by Reuse (a measure of re-decide work avoided).
	ReusedLevels int64

	// NoReduce disables the periodic reduceDB pass, freezing the learned
	// clause database exactly as the pre-reduction solver kept it. The
	// equivalence checker pins its counterexample models with this.
	NoReduce bool
	// ReduceBase is the conflict count at which the first reduceDB pass
	// triggers; each pass pushes the next trigger out by ReduceBase plus a
	// growing increment. 0 means the default (2000).
	ReduceBase int64
	reduceNext int64

	// RestartBase scales the Luby restart sequence (0 = default 100).
	RestartBase int64

	// Seed perturbs the decision heuristic and restart schedule
	// deterministically, so the same formula can be searched along a
	// different trajectory (the self-verification harness and the restart
	// fuzz target use this). Zero means the unperturbed default heuristics.
	Seed uint64
	rng  uint64
}

// satStore is the storage a CDCL grows while it solves. Release hands it
// to the next NewSat, which fills it again from length zero: every slot a
// solver reads below a slice's length it has written itself, so a
// recycled solver searches exactly as a fresh one does.
type satStore struct {
	arena      []int32 // flat clause slab; see the layout comment above
	learntRefs []int32 // arena refs of learned clauses, in learn order
	// watches keeps its backing array past its length, and every list
	// there keeps its own, so NewVar on a recycled solver reuses both.
	// watchTail is the capacity, in watchers, of the lists past the length.
	watches   [][]watcher
	watchTail int
	// assign is literal-indexed: assign[l] is the value of literal l, so
	// the propagate inner loop is a single unconditional array load with
	// no sign branch. enqueue writes both polarities.
	assign   []int8
	level    []int32
	reason   []int32
	trail    []Lit
	trailLim []int

	activity []float64
	heap     varHeap
	phase    []bool
	seen     []bool

	// lbdStamp is a per-level stamp used to count distinct levels. It is
	// not cleared on reuse: lbdToken keeps counting up, so a stamp left by
	// an earlier solver never equals a later token.
	lbdStamp []int64
	lbdToken int64

	keptAssumps []Lit
	clauseBuf   []Lit // AddClause's normalized clause
	learntBuf   []Lit // analyze's learned clause
}

// satStoreCap bounds the storage a released solver may hand on: a solver
// that grew past it is dropped instead of pooled, so one outsized proof
// does not pin its storage for the rest of the process.
const satStoreCap = 4 << 20

var satPool sync.Pool

// NewSat returns an empty solver, built on a released solver's storage
// when one is pooled.
func NewSat() *CDCL {
	st, _ := satPool.Get().(*satStore)
	return newSatOn(st)
}

// newSatOn returns an empty solver built on st, or on fresh storage when
// st is nil.
func newSatOn(st *satStore) *CDCL {
	s := &CDCL{ok: true, varInc: 1.0}
	if st != nil {
		s.satStore = *st
	}
	return s
}

// Release ends the solver and hands its storage to the next NewSat. Every
// method panics afterwards; Release on a released solver does nothing.
// Models the solver returned stay valid: they are never recycled.
func (s *CDCL) Release() {
	if st := s.release(); st != nil {
		satPool.Put(st)
	}
}

// release ends the solver and returns its storage, emptied, or nil when
// the solver was already released or its storage is past satStoreCap.
func (s *CDCL) release() *satStore {
	if s.released {
		return nil
	}
	s.released = true
	st := new(satStore)
	*st = s.satStore
	s.satStore = satStore{}
	s.model = nil
	if !st.truncate() {
		return nil
	}
	return st
}

// truncate empties the storage for reuse, keeping every backing array. It
// reports false when the storage is past satStoreCap and should be dropped.
// It costs one step per variable of the solver just ended, never one per
// watch list a bigger earlier solver left behind: those are in watchTail.
func (st *satStore) truncate() bool {
	for _, w := range st.watches {
		st.watchTail += cap(w)
	}
	st.watches = st.watches[:0]
	if st.bytes() > satStoreCap {
		return false
	}
	st.arena = st.arena[:0]
	st.learntRefs = st.learntRefs[:0]
	st.assign = st.assign[:0]
	st.level = st.level[:0]
	st.reason = st.reason[:0]
	st.trail = st.trail[:0]
	st.trailLim = st.trailLim[:0]
	st.activity = st.activity[:0]
	st.heap.heap = st.heap.heap[:0]
	st.heap.pos = st.heap.pos[:0]
	st.phase = st.phase[:0]
	st.seen = st.seen[:0]
	st.keptAssumps = st.keptAssumps[:0]
	return true
}

// bytes is the storage held, with the watch lists counted through
// watchTail: it is exact only while the watches length is zero.
func (st *satStore) bytes() int {
	return cap(st.arena)*4 + cap(st.learntRefs)*4 + cap(st.assign) + cap(st.level)*4 +
		cap(st.reason)*4 + cap(st.trail)*4 + cap(st.trailLim)*8 + cap(st.activity)*8 +
		cap(st.heap.heap)*8 + cap(st.heap.pos)*8 + cap(st.phase) + cap(st.seen) +
		cap(st.lbdStamp)*8 + cap(st.keptAssumps)*4 + cap(st.clauseBuf)*4 + cap(st.learntBuf)*4 +
		cap(st.watches)*int(unsafe.Sizeof([]watcher{})) + st.watchTail*int(unsafe.Sizeof(watcher{}))
}

// live panics if the solver has been released.
func (s *CDCL) live() {
	if s.released {
		panic("solver: CDCL used after Release")
	}
}

// NumVars returns the number of allocated variables.
func (s *CDCL) NumVars() int {
	s.live()
	return len(s.assign) / 2
}

// NumClauses returns the number of clauses currently attached (problem
// plus retained learned clauses).
func (s *CDCL) NumClauses() int {
	s.live()
	return s.nclauses
}

// NewVar allocates a fresh variable and returns its index.
func (s *CDCL) NewVar() int {
	s.live()
	v := len(s.assign) / 2
	s.assign = append(s.assign, valUnassigned, valUnassigned)
	s.level = append(s.level, 0)
	s.reason = append(s.reason, noReason)
	s.activity = append(s.activity, 0)
	s.phase = append(s.phase, false)
	s.seen = append(s.seen, false)
	if n := len(s.watches); n+2 <= cap(s.watches) {
		s.watches = s.watches[:n+2]
		s.watches[n] = s.watches[n][:0]
		s.watches[n+1] = s.watches[n+1][:0]
		s.watchTail -= cap(s.watches[n]) + cap(s.watches[n+1])
	} else {
		// A grown backing array has no lists past the length.
		s.watches = append(s.watches, nil, nil)
		s.watchTail = 0
	}
	s.heap.push(v, s.activity)
	return v
}

func (s *CDCL) value(l Lit) int8 { return s.assign[l] }

// varValue returns the assignment of variable v (the positive literal's
// value).
func (s *CDCL) varValue(v int) int8 { return s.assign[Lit(v)<<1] }

// Value reports the model value of variable v after a Sat result.
func (s *CDCL) Value(v int) bool {
	s.live()
	return v < len(s.model) && s.model[v]
}

// Model returns the last Sat model. The slice is immutable: Solve takes a
// fresh snapshot per Sat result, so holding onto it is safe and free.
func (s *CDCL) Model() []bool {
	s.live()
	return s.model
}

// SetModel installs a model snapshot (used by the memoizing front-end to
// restore a cached result). The caller must not mutate the slice.
func (s *CDCL) SetModel(m []bool) {
	s.live()
	s.model = m
}

func (s *CDCL) decisionLevel() int { return len(s.trailLim) }

// clauseLits returns the literal window of the clause at ref, aliasing
// the arena (propagate reorders it in place).
func (s *CDCL) clauseLits(ref int32) []int32 {
	size := s.arena[ref] >> 1
	return s.arena[ref+clauseHdr : ref+clauseHdr+size : ref+clauseHdr+size]
}

// AddClause adds a clause over the given literals. It returns false if the
// solver is already in an unsatisfiable state at level 0. With Reuse the
// call may arrive while an assumption trail is still standing; the clause
// is then attached without disturbing the kept levels whenever possible.
func (s *CDCL) AddClause(lits ...Lit) bool {
	s.live()
	if !s.ok {
		return false
	}
	// Normalize using level-0 assignments only. Dropping a literal that is
	// false merely under the standing assumptions would strengthen the
	// clause unsoundly, and a clause satisfied only above level 0 must
	// still be attached for when that level is undone. The normalized
	// clause is built in the solver's own buffer, sized up front so the
	// appends below never grow it.
	if cap(s.clauseBuf) < len(lits) {
		s.clauseBuf = make([]Lit, 0, 2*len(lits))
	}
	out := s.clauseBuf[:0]
	for _, l := range lits {
		if s.varValue(l.Var()) != valUnassigned && s.level[l.Var()] == 0 {
			switch s.value(l) {
			case valTrue:
				return true
			case valFalse:
				continue
			}
		}
		dup, taut := false, false
		for _, o := range out {
			if o == l {
				dup = true
				break
			}
			if o == l.Neg() {
				taut = true
				break
			}
		}
		if taut {
			return true
		}
		if !dup {
			out = append(out, l)
		}
	}
	switch len(out) {
	case 0:
		s.ok = false
		return false
	case 1:
		// A unit must take effect at level 0 or it would be lost on the
		// next backtrack.
		s.cancelUntil(0)
		if s.value(out[0]) != valTrue {
			s.enqueue(out[0], noReason)
			if s.propagate() != noReason {
				s.ok = false
				return false
			}
		}
		return true
	}
	if s.decisionLevel() > 0 {
		// Watch two currently-non-false literals so the watcher invariant
		// holds without touching the kept trail. Every bit-blaster clause
		// carries a fresh gate literal, so this nearly always succeeds; the
		// fallback full backtrack is rare and always sound.
		w := 0
		for i := 0; i < len(out) && w < 2; i++ {
			if s.value(out[i]) != valFalse {
				out[i], out[w] = out[w], out[i]
				w++
			}
		}
		if w < 2 {
			s.cancelUntil(0)
		}
	}
	s.attachClause(out, false, 0)
	return true
}

// watcher pairs a watched clause reference with a blocker — a literal of the
// clause (initially the other watch) whose truth proves the clause satisfied
// without loading the clause itself. Blockers are a pure memory-traffic
// optimization: they only short-circuit clauses propagate would have kept
// anyway, so the search — decisions, conflicts, learned clauses, models — is
// bit-for-bit unchanged.
type watcher struct {
	ref     int32
	blocker Lit
}

// attachClause appends the clause to the arena and installs its two
// watchers. The literal order is preserved: lits[0] and lits[1] become the
// watched pair, exactly as the pre-arena solver watched c[0] and c[1].
func (s *CDCL) attachClause(c []Lit, learnt bool, lbd int32) int32 {
	ref := int32(len(s.arena))
	hdr := int32(len(c)) << 1
	if learnt {
		hdr |= 1
	}
	s.arena = append(s.arena, hdr, lbd)
	for _, l := range c {
		s.arena = append(s.arena, int32(l))
	}
	s.nclauses++
	s.watches[c[0]] = append(s.watches[c[0]], watcher{ref, c[1]})
	s.watches[c[1]] = append(s.watches[c[1]], watcher{ref, c[0]})
	if learnt {
		s.learntRefs = append(s.learntRefs, ref)
	}
	return ref
}

func (s *CDCL) enqueue(l Lit, from int32) {
	v := l.Var()
	s.assign[l] = valTrue
	s.assign[l^1] = valFalse
	s.level[v] = int32(s.decisionLevel())
	s.reason[v] = from
	s.trail = append(s.trail, l)
}

// propagate performs unit propagation; it returns the reference of a
// conflicting clause, or noReason if none.
func (s *CDCL) propagate() int32 {
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead] // p is true; scan watchers of ¬p
		s.qhead++
		s.Props++
		fp := p.Neg()
		ws := s.watches[fp]
		kept := ws[:0]
		var confl int32 = noReason
		for i := 0; i < len(ws); i++ {
			// A true blocker proves the clause satisfied without loading it.
			if s.assign[ws[i].blocker] == valTrue {
				kept = append(kept, ws[i])
				continue
			}
			ref := ws[i].ref
			c := s.clauseLits(ref)
			// Ensure the false literal is at position 1.
			if Lit(c[0]) == fp {
				c[0], c[1] = c[1], c[0]
			}
			first := Lit(c[0])
			// If the other watch is true, the clause is satisfied; refresh
			// the blocker so the next visit can skip the clause load.
			if s.assign[first] == valTrue {
				kept = append(kept, watcher{ref, first})
				continue
			}
			// Find a new literal to watch.
			found := false
			for k := 2; k < len(c); k++ {
				if s.assign[Lit(c[k])] != valFalse {
					c[1], c[k] = c[k], c[1]
					nw := Lit(c[1])
					s.watches[nw] = append(s.watches[nw], watcher{ref, first})
					found = true
					break
				}
			}
			if found {
				continue
			}
			// Clause is unit or conflicting.
			kept = append(kept, watcher{ref, first})
			if s.assign[first] == valFalse {
				confl = ref
				// Copy remaining watchers and stop.
				kept = append(kept, ws[i+1:]...)
				s.qhead = len(s.trail)
				break
			}
			s.enqueue(first, ref)
		}
		s.watches[fp] = kept
		if confl != noReason {
			return confl
		}
	}
	return noReason
}

func (s *CDCL) bumpVar(v int) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	s.heap.update(v, s.activity)
}

// analyze derives a first-UIP learned clause from the conflict and returns it
// with the backtrack level. learnt[0] is the asserting literal.
func (s *CDCL) analyze(confl int32) (learnt []Lit, backLevel int32) {
	counter := 0
	p := Lit(-1)
	learnt = append(s.learntBuf[:0], 0) // slot for the asserting literal
	idx := len(s.trail) - 1
	for {
		c := s.clauseLits(confl)
		start := 0
		if p != Lit(-1) {
			start = 1 // skip the asserting literal itself
		}
		for _, qi := range c[start:] {
			q := Lit(qi)
			v := q.Var()
			if s.seen[v] || s.level[v] == 0 {
				continue
			}
			s.seen[v] = true
			s.bumpVar(v)
			if s.level[v] == int32(s.decisionLevel()) {
				counter++
			} else {
				learnt = append(learnt, q)
			}
		}
		// Find the next seen literal on the trail.
		for !s.seen[s.trail[idx].Var()] {
			idx--
		}
		p = s.trail[idx]
		v := p.Var()
		s.seen[v] = false
		counter--
		if counter == 0 {
			break
		}
		confl = s.reason[v]
		idx--
	}
	learnt[0] = p.Neg()
	// Compute backtrack level: the highest level among the other literals.
	backLevel = 0
	swapPos := 0
	for i := 1; i < len(learnt); i++ {
		if lv := s.level[learnt[i].Var()]; lv > backLevel {
			backLevel = lv
			swapPos = i
		}
	}
	if swapPos != 0 {
		learnt[1], learnt[swapPos] = learnt[swapPos], learnt[1]
	}
	for _, l := range learnt {
		s.seen[l.Var()] = false
	}
	s.varInc /= 0.95
	s.learntBuf = learnt
	return learnt, backLevel
}

// computeLBD counts the distinct non-zero decision levels among the
// clause's literals — the "glue" of the learned clause. Low-LBD clauses
// chain propagations across few levels and are the ones worth keeping.
// Must be called before backtracking, while the literals' levels stand.
func (s *CDCL) computeLBD(lits []Lit) int32 {
	s.lbdToken++
	var n int32
	for _, l := range lits {
		lv := s.level[l.Var()]
		if lv == 0 {
			continue
		}
		for int(lv) >= len(s.lbdStamp) {
			s.lbdStamp = append(s.lbdStamp, 0)
		}
		if s.lbdStamp[lv] != s.lbdToken {
			s.lbdStamp[lv] = s.lbdToken
			n++
		}
	}
	return n
}

// cancelUntil undoes assignments above the given decision level. Any kept
// assumption record beyond the surviving levels is invalidated here, so
// restarts, backjumps, and learned units automatically shrink the reusable
// prefix instead of leaving it stale.
func (s *CDCL) cancelUntil(lvl int) {
	if lvl < len(s.keptAssumps) {
		s.keptAssumps = s.keptAssumps[:lvl]
	}
	if s.decisionLevel() <= lvl {
		return
	}
	bound := s.trailLim[lvl]
	for i := len(s.trail) - 1; i >= bound; i-- {
		l := s.trail[i]
		v := l.Var()
		// The trail literal was enqueued true, so the variable's saved
		// phase is simply the literal's polarity.
		s.phase[v] = !l.Sign()
		s.assign[l] = valUnassigned
		s.assign[l^1] = valUnassigned
		s.reason[v] = noReason
		if !s.heap.contains(v) {
			s.heap.push(v, s.activity)
		}
	}
	s.trail = s.trail[:bound]
	s.trailLim = s.trailLim[:lvl]
	s.qhead = len(s.trail)
}

func (s *CDCL) pickBranchVar() int {
	for s.heap.size() > 0 {
		v := s.heap.pop(s.activity)
		if s.varValue(v) == valUnassigned {
			return v
		}
	}
	return -1
}

// luby computes the Luby restart sequence value for index i (1-based).
func luby(i int64) int64 {
	for k := int64(1); ; k++ {
		if i == (1<<k)-1 {
			return 1 << (k - 1)
		}
		if i < (1<<k)-1 {
			return luby(i - (1 << (k - 1)) + 1)
		}
	}
}

// maybeReduce runs a reduceDB pass when the conflict count has crossed the
// next trigger. It must be called at a restart point: decision level 0,
// propagation complete, so the trail holds only level-0 assignments (whose
// clause reasons are handled as locked clauses).
func (s *CDCL) maybeReduce() {
	if s.NoReduce || len(s.learntRefs) == 0 {
		return
	}
	base := s.ReduceBase
	if base == 0 {
		base = defaultReduceBase
	}
	if s.reduceNext == 0 {
		s.reduceNext = base
	}
	if s.Conflicts < s.reduceNext {
		return
	}
	s.reduceDB()
	s.Reduces++
	// Each pass pushes the trigger out by the base plus a growing
	// increment, so reduction stays periodic but less frequent as the
	// clause database proves its keep.
	s.reduceNext = s.Conflicts + base + reduceIncrement*s.Reduces
	reduceRunsTotal.Add(1)
	if Validate {
		s.validateArena()
	}
}

const (
	defaultReduceBase = 2000
	reduceIncrement   = 300
	keepLBD           = 2 // learned clauses at or below this glue are kept forever
)

// reduceDB drops the worst half of the removable learned clauses (by LBD,
// ties by age) and compacts the arena in place, rewriting every watcher
// ref, reason ref, and learnt ref to the clause's new offset. Clauses that
// are locked — the reason of a currently-assigned variable — and low-glue
// clauses are always kept.
func (s *CDCL) reduceDB() {
	locked := make(map[int32]bool)
	for _, l := range s.trail {
		if r := s.reason[l.Var()]; r != noReason {
			locked[r] = true
		}
	}
	// Collect removal candidates: learned, high glue, not locked, not
	// binary (binary clauses are cheap to keep and expensive to relearn).
	type cand struct {
		ref int32
		lbd int32
	}
	var cands []cand
	for _, ref := range s.learntRefs {
		size := s.arena[ref] >> 1
		lbd := s.arena[ref+1]
		if size <= 2 || lbd <= keepLBD || locked[ref] {
			continue
		}
		cands = append(cands, cand{ref, lbd})
	}
	if len(cands) < 2 {
		return
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].lbd != cands[j].lbd {
			return cands[i].lbd < cands[j].lbd
		}
		return cands[i].ref < cands[j].ref
	})
	removed := make(map[int32]bool, len(cands)/2)
	for _, c := range cands[len(cands)/2:] {
		removed[c.ref] = true
	}
	s.Removed += int64(len(removed))
	reduceRemovedTotal.Add(int64(len(removed)))

	// Compact the slab: slide every surviving clause down, recording its
	// new offset. Relative clause order is preserved, so watcher-list
	// order — and with it the propagation visit order — is unchanged for
	// the survivors.
	remap := make(map[int32]int32, s.nclauses)
	var dst int32
	for src := int32(0); src < int32(len(s.arena)); {
		total := clauseHdr + s.arena[src]>>1
		if removed[src] {
			src += total
			continue
		}
		remap[src] = dst
		copy(s.arena[dst:dst+total], s.arena[src:src+total])
		src += total
		dst += total
	}
	s.arena = s.arena[:dst]
	s.nclauses -= len(removed)

	for li := range s.watches {
		ws := s.watches[li]
		kept := ws[:0]
		for _, w := range ws {
			if nr, ok := remap[w.ref]; ok {
				w.ref = nr
				kept = append(kept, w)
			}
		}
		s.watches[li] = kept
	}
	for _, l := range s.trail {
		v := l.Var()
		if r := s.reason[v]; r != noReason {
			s.reason[v] = remap[r]
		}
	}
	kept := s.learntRefs[:0]
	for _, ref := range s.learntRefs {
		if nr, ok := remap[ref]; ok {
			kept = append(kept, nr)
		}
	}
	s.learntRefs = kept
}

// validateArena checks the post-reduceDB invariants: every clause is
// watched exactly on its first two literals, every watcher points at a
// live clause, and no retained clause is falsified on its watched pair at
// level 0 (which would mean a propagation was lost in compaction). It
// panics on violation — this is the Validate debug gate, not a recovery
// path.
func (s *CDCL) validateArena() {
	watchCount := make(map[int32]int, s.nclauses)
	for li := range s.watches {
		for _, w := range s.watches[li] {
			if w.ref < 0 || w.ref+clauseHdr > int32(len(s.arena)) {
				panic(fmt.Sprintf("solver: watcher ref %d out of arena bounds", w.ref))
			}
			c := s.clauseLits(w.ref)
			if Lit(c[0]) != Lit(li) && Lit(c[1]) != Lit(li) {
				panic(fmt.Sprintf("solver: watcher for lit %d not on clause %d watch pair", li, w.ref))
			}
			watchCount[w.ref]++
		}
	}
	for ref := int32(0); ref < int32(len(s.arena)); {
		size := s.arena[ref] >> 1
		if size < 2 {
			panic(fmt.Sprintf("solver: clause %d has size %d in arena", ref, size))
		}
		if watchCount[ref] != 2 {
			panic(fmt.Sprintf("solver: clause %d has %d watchers, want 2", ref, watchCount[ref]))
		}
		c := s.clauseLits(ref)
		// A fully-falsified watch pair at level 0 means compaction lost a
		// propagation — unless the solver has already derived a level-0
		// conflict (!ok), where a falsified clause is exactly the point.
		if s.ok && s.decisionLevel() == 0 && s.qhead == len(s.trail) {
			if s.assign[Lit(c[0])] == valFalse && s.assign[Lit(c[1])] == valFalse {
				panic(fmt.Sprintf("solver: clause %d watch pair falsified at level 0", ref))
			}
		}
		ref += clauseHdr + size
	}
}

// validateModel checks a Sat model against the full clause set and the
// assumptions, panicking on any falsified clause. This is the Validate
// debug gate; it runs after the model snapshot and before Solve returns.
func (s *CDCL) validateModel(assumps []Lit) {
	litTrue := func(l Lit) bool {
		v := l.Var()
		return v < len(s.model) && s.model[v] != l.Sign()
	}
	for ref := int32(0); ref < int32(len(s.arena)); {
		size := s.arena[ref] >> 1
		sat := false
		for _, li := range s.clauseLits(ref) {
			if litTrue(Lit(li)) {
				sat = true
				break
			}
		}
		if !sat {
			panic(fmt.Sprintf("solver: model falsifies clause at ref %d", ref))
		}
		ref += clauseHdr + size
	}
	for _, l := range assumps {
		if !litTrue(l) {
			panic(fmt.Sprintf("solver: model falsifies assumption %d", l))
		}
	}
}

// Solve determines satisfiability under the given assumption literals.
func (s *CDCL) Solve(assumps []Lit) Status {
	s.live()
	c0, d0, p0, r0 := s.Conflicts, s.Decisions, s.Props, s.Restarts
	defer func() {
		conflictsTotal.Add(s.Conflicts - c0)
		decisionsTotal.Add(s.Decisions - d0)
		propsTotal.Add(s.Props - p0)
		restartsTotal.Add(s.Restarts - r0)
	}()
	if !s.ok {
		return Unsat
	}
	if s.Reuse {
		// Backtrack only to the longest common prefix with the previous
		// call's assumptions; the shared levels and their propagations
		// survive intact and only the suffix is re-decided below.
		n := 0
		for n < len(s.keptAssumps) && n < len(assumps) && s.keptAssumps[n] == assumps[n] {
			n++
		}
		s.ReusedLevels += int64(n)
		s.cancelUntil(n)
	} else {
		s.cancelUntil(0)
	}
	restartBase := s.RestartBase
	if restartBase == 0 {
		restartBase = 100
	}
	if s.Seed != 0 {
		restartBase += int64(s.Seed % 97)
	}
	restartNum := int64(1)
	conflictBudget := restartBase * luby(restartNum)
	conflictsHere := int64(0)
	conflictsTotalHere := int64(0)
	for {
		confl := s.propagate()
		if confl != noReason {
			s.Conflicts++
			conflictsHere++
			conflictsTotalHere++
			if s.MaxConflicts > 0 && conflictsTotalHere > s.MaxConflicts {
				// Budget exhausted: back out cleanly. Clauses learned so
				// far stay attached (they are implied, so later calls
				// remain sound and still deterministic).
				s.cancelUntil(0)
				return Unknown
			}
			if s.decisionLevel() == 0 {
				s.ok = false
				return Unsat
			}
			learnt, backLevel := s.analyze(confl)
			// LBD must be computed before backtracking erases the levels.
			lbd := s.computeLBD(learnt)
			// Never backtrack into the assumption prefix incorrectly: the
			// assumption levels are re-decided below as needed.
			s.cancelUntil(int(backLevel))
			if len(learnt) == 1 {
				s.cancelUntil(0)
				s.enqueue(learnt[0], noReason)
			} else {
				ref := s.attachClause(learnt, true, lbd)
				s.enqueue(learnt[0], ref)
			}
			if conflictsHere >= conflictBudget {
				restartNum++
				conflictBudget = restartBase * luby(restartNum)
				conflictsHere = 0
				s.Restarts++
				s.cancelUntil(0)
				// Restart points are the only safe moment to reduce: the
				// trail holds level-0 assignments only, so locked-clause
				// bookkeeping is minimal and the Reuse prefix (already
				// dropped by the cancel above) cannot go stale.
				s.maybeReduce()
			}
			continue
		}
		// Decide: first the assumptions in order, then free variables.
		if dl := s.decisionLevel(); dl < len(assumps) {
			p := assumps[dl]
			switch s.value(p) {
			case valTrue:
				// Already satisfied; open an empty level to keep the
				// level-to-assumption correspondence.
				s.trailLim = append(s.trailLim, len(s.trail))
				continue
			case valFalse:
				// The assumptions are jointly inconsistent with the clauses.
				s.cancelUntil(0)
				return Unsat
			default:
				s.Decisions++
				s.trailLim = append(s.trailLim, len(s.trail))
				s.enqueue(p, noReason)
				continue
			}
		}
		v := s.pickBranchVar()
		if v < 0 {
			// Complete assignment: snapshot the model into a fresh slice —
			// snapshots are immutable, so the memoizing front-end shares
			// them instead of copying. Without Reuse the solver restores
			// to level 0 so clauses can be added afterwards; with Reuse
			// only the free-search levels are undone and the assumption
			// levels stay standing for the next sibling query (AddClause
			// knows how to attach above level 0).
			m := make([]bool, len(s.assign)/2)
			for i := range m {
				m[i] = s.assign[Lit(i)<<1] == valTrue
			}
			s.model = m
			if Validate {
				s.validateModel(assumps)
			}
			if s.Reuse {
				s.cancelUntil(len(assumps))
				s.keptAssumps = append(s.keptAssumps[:0], assumps...)
			} else {
				s.cancelUntil(0)
			}
			return Sat
		}
		s.Decisions++
		pol := !s.phase[v]
		if s.Seed != 0 {
			s.rng = splitmix64(s.rng + s.Seed)
			if s.rng&31 == 0 {
				pol = !pol
			}
		}
		s.trailLim = append(s.trailLim, len(s.trail))
		s.enqueue(MkLit(v, pol), noReason)
	}
}

// splitmix64 advances a splitmix64 PRNG state; used only for the seeded
// heuristic perturbation, never on the default path.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// varHeap is a binary max-heap of variables ordered by activity.
type varHeap struct {
	heap []int
	pos  []int // pos[v] = index in heap, -1 if absent
}

func (h *varHeap) size() int { return len(h.heap) }

func (h *varHeap) contains(v int) bool {
	return v < len(h.pos) && h.pos[v] >= 0
}

func (h *varHeap) push(v int, act []float64) {
	for len(h.pos) <= v {
		h.pos = append(h.pos, -1)
	}
	if h.pos[v] >= 0 {
		return
	}
	h.pos[v] = len(h.heap)
	h.heap = append(h.heap, v)
	h.up(h.pos[v], act)
}

func (h *varHeap) pop(act []float64) int {
	v := h.heap[0]
	last := len(h.heap) - 1
	h.heap[0] = h.heap[last]
	h.pos[h.heap[0]] = 0
	h.heap = h.heap[:last]
	h.pos[v] = -1
	if len(h.heap) > 0 {
		h.down(0, act)
	}
	return v
}

func (h *varHeap) update(v int, act []float64) {
	if h.contains(v) {
		h.up(h.pos[v], act)
	}
}

func (h *varHeap) up(i int, act []float64) {
	v := h.heap[i]
	for i > 0 {
		p := (i - 1) / 2
		if act[h.heap[p]] >= act[v] {
			break
		}
		h.heap[i] = h.heap[p]
		h.pos[h.heap[i]] = i
		i = p
	}
	h.heap[i] = v
	h.pos[v] = i
}

func (h *varHeap) down(i int, act []float64) {
	v := h.heap[i]
	for {
		c := 2*i + 1
		if c >= len(h.heap) {
			break
		}
		if c+1 < len(h.heap) && act[h.heap[c+1]] > act[h.heap[c]] {
			c++
		}
		if act[h.heap[c]] <= act[v] {
			break
		}
		h.heap[i] = h.heap[c]
		h.pos[h.heap[i]] = i
		i = c
	}
	h.heap[i] = v
	h.pos[v] = i
}
