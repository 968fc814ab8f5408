package symex

import (
	"maps"
	"math/rand"
	"sort"
	"testing"

	"pokeemu/internal/expr"
	"pokeemu/internal/machine"
	"pokeemu/internal/x86"
	"pokeemu/internal/x86/sem"
)

// minimizeSortAll is minimize as first written, kept as the reference
// (with plain evaluation in place of the memo): it sorts the name of every
// state variable, then skips those the model does not hold or holds at
// baseline.
func minimizeSortAll(en *Engine, model map[string]uint64) {
	conds := make([]*expr.Expr, 0, len(en.sideCond)+len(en.pathCond))
	conds = append(conds, en.sideCond...)
	conds = append(conds, en.pathCond...)
	deps := make(map[string][]int)
	visited := make(map[*expr.Expr]bool)
	var walk func(e *expr.Expr, i int)
	walk = func(e *expr.Expr, i int) {
		if visited[e] {
			return
		}
		visited[e] = true
		if e.Op == expr.OpVar {
			deps[e.Name] = append(deps[e.Name], i)
			return
		}
		for _, kid := range e.Kids {
			walk(kid, i)
		}
	}
	for i, c := range conds {
		clear(visited)
		walk(c, i)
	}
	satisfied := func(name string) bool {
		for _, i := range deps[name] {
			if expr.Eval(conds[i], model) != 1 {
				return false
			}
		}
		return true
	}
	names := make([]string, 0, len(en.st.Vars))
	for name := range en.st.Vars {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		w := en.st.Vars[name]
		base := en.st.Baseline[name]
		cur, ok := model[name]
		if !ok || cur == base {
			continue
		}
		diffBits := (cur ^ base) & expr.Mask(w)
		for bit := uint8(0); bit < w; bit++ {
			m := uint64(1) << bit
			if diffBits&m == 0 {
				continue
			}
			model[name] = model[name]&^m | base&m
			if satisfied(name) {
				en.stats.MinimizedBits++
			} else {
				model[name] ^= m
				en.stats.FlippedBits++
			}
		}
	}
}

// TestMinimizeMatchesSortAllReference runs minimize and the sort-everything
// reference on seeded random models over the path conditions of a real
// handler (push %eax, explored over symbolic GPRs, flags, control-register
// bits, page-table flag bytes and the stack segment's cache, whose limit
// and attribute checks make the greedy pass order-dependent). Both must
// leave the same model and count the same minimized and load-bearing bits:
// sorting only the differing names visits them in the same order.
func TestMinimizeMatchesSortAllReference(t *testing.T) {
	st := NewSymState(machine.NewBaseline(machine.BaselineImage()))
	var side []*expr.Expr
	addSide := func(e *expr.Expr) {
		if e != nil {
			side = append(side, e)
		}
	}
	for r := 0; r < 8; r++ {
		addSide(st.MarkLocSymbolic(x86.GPR(x86.Reg(r)), ^uint64(0)))
	}
	for _, bit := range []uint8{x86.FlagCF, x86.FlagZF, x86.FlagIF, x86.FlagDF, x86.FlagAC} {
		addSide(st.MarkLocSymbolic(x86.Flag(bit), 1))
	}
	addSide(st.MarkLocSymbolic(x86.CR(0), 1<<x86.CR0WP|1<<x86.CR0AM))
	addSide(st.MarkLocSymbolic(x86.CR(4), 0x1ff))
	for i := uint32(0); i < 1024; i++ {
		st.MarkMemSymbolic(machine.PDBase + i*4)
		st.MarkMemSymbolic(machine.PTBase + i*4)
	}
	// The stack segment's selector RPL and descriptor cache, as free
	// variables (the exploration's no-summary configuration).
	addSide(st.MarkLocSymbolic(x86.SegSel(x86.SS), 0x3))
	addSide(st.MarkLocSymbolic(x86.SegBase(x86.SS), ^uint64(0)))
	addSide(st.MarkLocSymbolic(x86.SegLimit(x86.SS), ^uint64(0)))
	addSide(st.MarkLocSymbolic(x86.SegAttr(x86.SS), ^uint64(0)))
	inst, err := x86.Decode([]byte{0x50}) // push %eax
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.MaxPaths = 24
	opts.SkipMinimize = true
	en := NewEngine(st, side, opts)
	var paths []*PathResult
	en.Explore(sem.Compile(inst, sem.BochsConfig), func(r *PathResult) { paths = append(paths, r) })
	if len(paths) < 4 {
		t.Fatalf("only %d paths", len(paths))
	}

	names := make([]string, 0, len(st.Vars))
	for name := range st.Vars {
		names = append(names, name)
	}
	sort.Strings(names)
	r := rand.New(rand.NewSource(3))
	en.st = en.initial
	compared, moved := 0, 0
	for _, p := range paths {
		en.pathCond = p.Cond
		for k := 0; k < 40; k++ {
			model := maps.Clone(p.Model)
			if k > 0 {
				// Perturb: reset some variables to baseline, randomize or
				// drop others, and add a name that is no state variable.
				for n := r.Intn(12); n > 0; n-- {
					name := names[r.Intn(len(names))]
					switch r.Intn(3) {
					case 0:
						model[name] = st.Baseline[name]
					case 1:
						model[name] = r.Uint64() & expr.Mask(st.Vars[name])
					default:
						delete(model, name)
					}
				}
				model["not_a_state_var"] = r.Uint64()
			}
			want := maps.Clone(model)
			en.stats = Stats{}
			minimizeSortAll(en, want)
			wantStats := en.stats
			en.stats = Stats{}
			en.minimize(model)
			if !maps.Equal(model, want) {
				t.Fatalf("path %v model %d: minimize differs from the reference", p.Outcome, k)
			}
			if en.stats != wantStats {
				t.Fatalf("path %v model %d: stats %+v, reference %+v", p.Outcome, k, en.stats, wantStats)
			}
			compared++
			moved += int(wantStats.MinimizedBits)
		}
	}
	if moved == 0 {
		t.Error("no model bit was minimized; the comparison is vacuous")
	}
	t.Logf("%d paths, %d models compared, %d bits minimized", len(paths), compared, moved)
}
