package symex

import (
	"fmt"
	"math/rand"

	"pokeemu/internal/expr"
	"pokeemu/internal/ir"
	"pokeemu/internal/solver"
)

// Options tunes one exploration run.
type Options struct {
	MaxPaths     int   // cap on explored paths (the paper uses 8192)
	MaxSteps     int   // cap on IR statements per path
	Seed         int64 // RNG seed for the random frontier choice
	SkipMinimize bool  // keep raw solver models (ablation)
	// Workers bounds the pool exploring independent subtrees in parallel
	// (≤ 1 means a pool of one). The explored path set, its order, and all
	// deterministic statistics are byte-identical for every worker count:
	// the split/merge algorithm is the same, only the pool size changes.
	Workers int
	// Guide steers exploration toward the concrete path a given variable
	// assignment would take: at every symbolic branch the direction the
	// assignment satisfies is tried first (instead of the random frontier
	// choice), so a small MaxPaths explores the immediate neighborhood of
	// that path. Used by hybrid campaigns to hand fuzzer-found inputs back
	// to symex as path seeds. Deterministic: a pure function of the
	// assignment, never of scheduling.
	Guide map[string]uint64
	// Solver holds the solver's ablation switches; the zero value is the
	// production configuration. Verdicts, and hence the explored path set,
	// are identical for every value; only the emitted models move.
	Solver solver.Options
}

// DefaultOptions mirror the paper's configuration.
func DefaultOptions() Options {
	return Options{MaxPaths: 8192, MaxSteps: 1 << 16, Seed: 1}
}

// PathResult is one explored execution path: its outcome, path condition,
// and a (minimized) satisfying assignment for the symbolic variables.
type PathResult struct {
	Outcome ir.Outcome
	Cond    []*expr.Expr
	// Model is the path's witness as a difference from the baseline: it
	// holds exactly the state variables whose value differs from
	// Final.Baseline; every other variable is at its baseline value (see
	// Value). Minimized unless Options.SkipMinimize is set.
	Model   map[string]uint64
	Final   *SymState
	Steps   int
	Aborted bool // hit the per-path step cap
}

// Value returns a state variable's value in the path's witness: the
// model's entry, else the baseline value.
func (r *PathResult) Value(name string) uint64 {
	if v, ok := r.Model[name]; ok {
		return v
	}
	return r.Final.Baseline[name]
}

// Stats aggregates exploration effort.
type Stats struct {
	Paths             int
	AbortedPaths      int
	SolverQueries     int64
	SolverMemoHits    int64 // queries answered by the solver's assumption memo
	SolverSubsumeHits int64 // queries answered by the model-subsumption fast path
	TreeNodes         int64
	Exhausted         bool // every feasible path was explored
	MinimizedBits     int64
	FlippedBits       int64
	// StmtsCovered / StmtsTotal measure static IR statement coverage across
	// all explored paths — the paper's observation that exhaustive path
	// exploration yields very high static coverage of the per-instruction
	// code (modulo statements guarding other operating modes).
	StmtsCovered int
	StmtsTotal   int
}

// Engine explores one IR program over a symbolic initial state.
type Engine struct {
	bv   *solver.BV
	tree *DecisionTree
	rng  *rand.Rand
	opts Options

	initial  *SymState
	sideCond []*expr.Expr // constraints always in force (Fig. 3 pinned bits)
	sideLits []solver.Lit

	// per-path state
	pathCond []*expr.Expr
	pathLits []solver.Lit
	walker   *walker
	st       *SymState
	steps    int
	curDirs  []int // branch directions taken on the current path
	curForks int   // genuine forks among them (sibling not known infeasible)

	// split exploration (see parallel.go)
	splitDepth int     // > 0: delegate subtrees below this many forks as tasks
	forced     []int   // direction prefix this engine replays before exploring
	tasks      [][]int // subtree prefixes recorded at the split depth
	collected  []keyedPath
	subs       []*Engine // task engines, canonical order, after Explore
	explored   bool      // Explore ran; exhausted holds the global verdict
	exhausted  bool

	// witness scratch (see minimize.go and cone.go)
	graph *condGraph
	diffs []varVal
	roots []int32

	stmtHits []bool // statement coverage across all paths
	stats    Stats
	released bool // Release ran; Explore and Stats panic
}

// NewEngine prepares exploration of paths from the given initial state.
// sideConds are constraints that always hold (e.g. concrete-bit pins).
func NewEngine(initial *SymState, sideConds []*expr.Expr, opts Options) *Engine {
	en := &Engine{
		bv:      solver.NewBV(),
		tree:    NewDecisionTree(),
		rng:     rand.New(rand.NewSource(opts.Seed)),
		opts:    opts,
		initial: initial,
	}
	en.bv.Reuse = !opts.Solver.NoBatch
	en.bv.Subsume = !opts.Solver.NoSubsume
	en.bv.NoReduce = opts.Solver.NoReduce
	for _, c := range sideConds {
		if c == nil {
			continue
		}
		en.sideCond = append(en.sideCond, c)
		en.sideLits = append(en.sideLits, en.bv.LitFor(c))
	}
	return en
}

// Release hands the storage of the engine's solver, and of its task
// engines' solvers, to the next solvers built (solver.BV.Release). Paths
// already visited stay valid: their conditions, models and states never
// point into solver storage. Explore and Stats panic afterwards; Release
// on a released engine does nothing.
func (en *Engine) Release() {
	if en.released {
		return
	}
	en.released = true
	en.bv.Release()
	for _, sub := range en.subs {
		sub.Release()
	}
}

// live panics if the engine has been released.
func (en *Engine) live() {
	if en.released {
		panic("symex: Engine used after Release")
	}
}

// Stats returns exploration statistics so far, aggregated over any
// subtree task engines.
func (en *Engine) Stats() Stats {
	en.live()
	s := en.stats
	s.SolverQueries = en.bv.Queries
	s.SolverMemoHits = en.bv.MemoHits
	s.SolverSubsumeHits = en.bv.SubsumeHits
	s.TreeNodes = en.tree.Nodes
	s.Exhausted = en.tree.FullyExplored()
	for _, sub := range en.subs {
		s.SolverQueries += sub.bv.Queries
		s.SolverMemoHits += sub.bv.MemoHits
		s.SolverSubsumeHits += sub.bv.SubsumeHits
		s.TreeNodes += sub.tree.Nodes
		s.MinimizedBits += sub.stats.MinimizedBits
		s.FlippedBits += sub.stats.FlippedBits
	}
	if en.explored {
		s.Exhausted = en.exhausted
	}
	s.StmtsTotal = len(en.stmtHits)
	for _, hit := range en.stmtHits {
		if hit {
			s.StmtsCovered++
		}
	}
	return s
}

// assumptions returns the current solver assumption set.
func (en *Engine) assumptions(extra ...solver.Lit) []solver.Lit {
	out := make([]solver.Lit, 0, len(en.sideLits)+len(en.pathLits)+len(extra))
	out = append(out, en.sideLits...)
	out = append(out, en.pathLits...)
	out = append(out, extra...)
	return out
}

// errDeadEnd signals an exhausted subtree reached mid-path.
var errDeadEnd = fmt.Errorf("symex: dead end")

// errStepCap signals the per-path step budget was hit.
var errStepCap = fmt.Errorf("symex: step cap")

// errSplit signals the path crossed the split depth; the subtree has been
// recorded as a task for the parallel phase and closed in this tree.
var errSplit = fmt.Errorf("symex: split frontier")

// branch decides a symbolic two-way branch through the decision tree,
// returning the direction taken.
func (en *Engine) branch(cond *expr.Expr) (bool, error) {
	w := en.walker
	condLit := en.bv.LitFor(cond)
	litFor := func(dir int) solver.Lit {
		if dir == 1 {
			return condLit
		}
		return condLit.Neg()
	}
	take := func(dir int) {
		en.pathLits = append(en.pathLits, litFor(dir))
		if dir == 1 {
			en.pathCond = append(en.pathCond, cond)
		} else {
			en.pathCond = append(en.pathCond, expr.Not(cond))
		}
		w.descend(dir)
		en.curDirs = append(en.curDirs, dir)
	}
	// Forced-prefix replay: a task engine retraces its subtree's spine
	// without consuming randomness or solver queries. The sibling of each
	// spine edge is closed ("another task's responsibility"), so this
	// tree's FullyExplored means the delegated subtree is exhausted.
	if n := len(en.curDirs); n < len(en.forced) {
		dir := en.forced[n]
		if w.known(dir) == feasUnknown {
			w.setFeasibility(dir, true)
			w.markSkipped(1 - dir)
		}
		take(dir)
		return dir == 1, nil
	}
	// Frontier split: delegate the subtree as a task once the path has
	// crossed splitDepth genuine forks. Depth in raw branch decisions does
	// not work here — instruction programs open with long one-sided runs
	// (side conditions, summary guards), so a raw-depth frontier degenerates
	// to one or two tasks and the parallel phase has nothing to schedule.
	if en.splitDepth > 0 && en.curForks >= en.splitDepth {
		en.tasks = append(en.tasks, append([]int(nil), en.curDirs...))
		w.abandon()
		return false, errSplit
	}
	dirs := w.candidates()
	if en.opts.Guide != nil {
		// Try the direction the guiding assignment takes first; its sibling
		// only once the guided side closes.
		want := int(expr.Eval(cond, en.opts.Guide) & 1)
		if len(dirs) == 2 && dirs[0] != want {
			dirs[0], dirs[1] = dirs[1], dirs[0]
		}
	} else {
		shuffle(en.rng, dirs)
	}
	for _, dir := range dirs {
		if w.known(dir) == feasUnknown {
			ok := en.bv.CheckLits(en.assumptions(litFor(dir))) == solver.Sat
			w.setFeasibility(dir, ok)
			if !ok {
				continue
			}
		}
		// A fork is a node whose other side is not known infeasible. The
		// count can only shrink as verdicts arrive (unknown -> infeasible),
		// so later paths split at the same node or deeper, never at an
		// ancestor of an already-delegated subtree — prefixes stay
		// prefix-free.
		if w.known(1-dir) != feasNo {
			en.curForks++
		}
		take(dir)
		return dir == 1, nil
	}
	w.deadEnd()
	return false, errDeadEnd
}

// pickConcrete chooses one feasible concrete value for a term and pins it
// on the path condition — the on-the-fly concretization used for memory and
// table indexes ("all 2³² locations are equivalent").
//
// The choice is canonical: a pure function of the path condition and the
// baseline, never of solver internals such as the last model. That is what
// lets a parallel task replay a path prefix in a fresh solver and land on
// the same concrete pins — and it biases pins toward the baseline, which
// helps minimization.
func (en *Engine) pickConcrete(e *expr.Expr) (uint64, error) {
	if e.IsConst() {
		return e.Val, nil
	}
	pinTo := func(val uint64) {
		pin := expr.Eq(e, expr.Const(e.Width, val))
		en.pathCond = append(en.pathCond, pin)
		en.pathLits = append(en.pathLits, en.bv.LitFor(pin))
	}
	// Fast path: the baseline value is usually feasible.
	baseVal := expr.Eval(e, en.st.Baseline)
	basePin := en.bv.LitFor(expr.Eq(e, expr.Const(e.Width, baseVal)))
	if en.bv.CheckLits(en.assumptions(basePin)) == solver.Sat {
		pinTo(baseVal)
		return baseVal, nil
	}
	if en.bv.CheckLits(en.assumptions()) != solver.Sat {
		return 0, errDeadEnd // cannot happen on a consistent path
	}
	// Fix bits MSB-first, keeping each baseline bit unless the solver
	// forces its complement.
	var val uint64
	picked := en.assumptions()
	for i := int(e.Width) - 1; i >= 0; i-- {
		bit := expr.Extract(e, uint8(i), 1)
		want := baseVal >> uint(i) & 1
		lit := en.bv.LitFor(expr.Eq(bit, expr.Const(1, want)))
		if en.bv.CheckLits(append(picked, lit)) != solver.Sat {
			want ^= 1
			lit = en.bv.LitFor(expr.Eq(bit, expr.Const(1, want)))
		}
		picked = append(picked, lit)
		val |= want << uint(i)
	}
	pinTo(val)
	return val, nil
}

// runOnce executes one path of the program symbolically.
func (en *Engine) runOnce(prog *ir.Program) (*PathResult, error) {
	en.pathCond = en.pathCond[:0]
	en.pathLits = en.pathLits[:0]
	en.curDirs = en.curDirs[:0]
	en.curForks = 0
	en.walker = en.tree.walk()
	en.st = en.initial.Clone()
	en.steps = 0
	if en.stmtHits == nil {
		en.stmtHits = make([]bool, len(prog.Stmts))
	}

	temps := make([]*expr.Expr, prog.NumTemps())
	val := func(o ir.Operand) *expr.Expr {
		if o.IsConst {
			return expr.Const(o.Width, o.Val)
		}
		return temps[o.Temp]
	}

	var outcome ir.Outcome
	aborted := false
	pc := 0
loop:
	for {
		if en.steps >= en.opts.MaxSteps {
			aborted = true
			en.walker.abandon()
			break
		}
		en.steps++
		en.stmtHits[pc] = true
		s := &prog.Stmts[pc]
		switch s.Kind {
		case ir.KAssign:
			temps[s.Dst] = applyOp(s, val)
		case ir.KMove:
			temps[s.Dst] = val(s.Args[0])
		case ir.KGet:
			temps[s.Dst] = en.st.Get(s.Loc)
		case ir.KSet:
			en.st.Set(s.Loc, val(s.Args[0]))
		case ir.KLoad:
			addr, err := en.pickConcrete(val(s.Args[0]))
			if err != nil {
				return nil, err
			}
			temps[s.Dst] = en.loadBytes(uint32(addr), s.Width)
		case ir.KStore:
			addr, err := en.pickConcrete(val(s.Args[0]))
			if err != nil {
				return nil, err
			}
			en.storeBytes(uint32(addr), val(s.Args[1]), s.Width)
		case ir.KCJump:
			c := val(s.Args[0])
			if c.IsConst() {
				if c.Val == 1 {
					pc = int(s.Target)
					continue
				}
			} else {
				taken, err := en.branch(c)
				if err != nil {
					return nil, err
				}
				if taken {
					pc = int(s.Target)
					continue
				}
			}
		case ir.KJump:
			pc = int(s.Target)
			continue
		case ir.KRaise:
			outcome = ir.Outcome{Kind: ir.OutRaise, Vector: s.Vector,
				HasErr: s.HasErr, Soft: s.Soft}
			if s.HasErr {
				ec, err := en.pickConcrete(val(s.Args[0]))
				if err != nil {
					return nil, err
				}
				outcome.ErrCode = uint32(ec)
			}
			en.walker.complete()
			break loop
		case ir.KEnd:
			outcome = ir.Outcome{Kind: ir.OutEnd}
			en.walker.complete()
			break loop
		case ir.KHalt:
			outcome = ir.Outcome{Kind: ir.OutHalt}
			en.walker.complete()
			break loop
		}
		pc++
	}

	// Solve for a witness of this path and minimize it toward the baseline.
	if en.bv.CheckLits(en.assumptions()) != solver.Sat {
		return nil, fmt.Errorf("symex: completed path is unsat (engine bug)")
	}
	return &PathResult{
		Outcome: outcome,
		Cond:    append([]*expr.Expr(nil), en.pathCond...),
		Model:   en.witness(),
		Final:   en.st,
		Steps:   en.steps,
		Aborted: aborted,
	}, nil
}

// loadBytes assembles a little-endian value from symbolic memory.
func (en *Engine) loadBytes(addr uint32, n uint8) *expr.Expr {
	v := en.st.LoadByte(addr)
	for i := uint8(1); i < n; i++ {
		v = expr.Concat(en.st.LoadByte(addr+uint32(i)), v)
	}
	return v
}

func (en *Engine) storeBytes(addr uint32, v *expr.Expr, n uint8) {
	for i := uint8(0); i < n; i++ {
		en.st.StoreByte(addr+uint32(i), expr.Extract(v, i*8, 8))
	}
}

// applyOp mirrors the IR operator set onto expr constructors.
func applyOp(s *ir.Stmt, val func(ir.Operand) *expr.Expr) *expr.Expr {
	a := val(s.Args[0])
	switch s.EOp {
	case expr.OpNot:
		return expr.Not(a)
	case expr.OpNeg:
		return expr.Neg(a)
	case expr.OpZExt:
		return expr.ZExt(a, s.Width)
	case expr.OpSExt:
		return expr.SExt(a, s.Width)
	case expr.OpExtract:
		return expr.Extract(a, s.Lo, s.Width)
	case expr.OpIte:
		return expr.Ite(a, val(s.Args[1]), val(s.Args[2]))
	}
	b := val(s.Args[1])
	switch s.EOp {
	case expr.OpAnd:
		return expr.And(a, b)
	case expr.OpOr:
		return expr.Or(a, b)
	case expr.OpXor:
		return expr.Xor(a, b)
	case expr.OpAdd:
		return expr.Add(a, b)
	case expr.OpSub:
		return expr.Sub(a, b)
	case expr.OpMul:
		return expr.Mul(a, b)
	case expr.OpUDiv:
		return expr.UDiv(a, b)
	case expr.OpURem:
		return expr.URem(a, b)
	case expr.OpShl:
		return expr.Shl(a, b)
	case expr.OpLShr:
		return expr.LShr(a, b)
	case expr.OpAShr:
		return expr.AShr(a, b)
	case expr.OpEq:
		return expr.Eq(a, b)
	case expr.OpUlt:
		return expr.Ult(a, b)
	case expr.OpSlt:
		return expr.Slt(a, b)
	case expr.OpConcat:
		return expr.Concat(a, b)
	}
	panic("symex: unknown op " + s.EOp.String())
}
