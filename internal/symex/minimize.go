package symex

import (
	"slices"

	"pokeemu/internal/expr"
)

// minimize implements the state-difference minimization of Section 3.4: a
// greedy pass over every bit of the assignment that differs from the
// baseline state, resetting it to the baseline value whenever the full path
// condition still evaluates to true under the modified (total) assignment.
// Because the assignment is total, "still satisfies" is a concrete
// evaluation — no decision-procedure call is needed, exactly the simple
// evaluation-based approach the paper settled on.
//
// Two facts keep the inner loop cheap without changing a single decision:
// every condition holds before each tested flip, so only conditions that
// mention the flipped variable can become false; and the conditions are
// hash-consed DAGs, so evaluation memoized on node identity visits each
// shared subterm once instead of once per path.
func (en *Engine) minimize(model map[string]uint64) {
	conds := make([]*expr.Expr, 0, len(en.sideCond)+len(en.pathCond))
	conds = append(conds, en.sideCond...)
	conds = append(conds, en.pathCond...)

	// deps[name] lists the conditions whose truth can depend on name.
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

	memo := make(map[*expr.Expr]uint64)
	satisfied := func(name string) bool {
		clear(memo)
		for _, i := range deps[name] {
			if expr.EvalMemo(conds[i], model, memo) != 1 {
				return false
			}
		}
		return true
	}

	// The greedy pass is order-dependent (resetting one variable's bit can
	// make another's load-bearing), so visit variables in sorted name order:
	// the minimized witness must be a pure function of the path, never of
	// map iteration order, or campaign reports would differ run to run.
	// Only a state variable whose model value differs from its baseline is
	// ever touched, and each pass edits only its own variable, so sorting
	// just those names visits them in the same order as sorting them all.
	var names []string
	for name, cur := range model {
		if _, ok := en.st.Vars[name]; ok && cur != en.st.Baseline[name] {
			names = append(names, name)
		}
	}
	slices.Sort(names)
	for _, name := range names {
		w := en.st.Vars[name]
		base := en.st.Baseline[name]
		diffBits := (model[name] ^ base) & expr.Mask(w)
		for bit := uint8(0); bit < w; bit++ {
			m := uint64(1) << bit
			if diffBits&m == 0 {
				continue
			}
			model[name] = model[name]&^m | base&m
			if satisfied(name) {
				en.stats.MinimizedBits++
			} else {
				// Revert: this bit is load-bearing for the path.
				model[name] ^= m
				en.stats.FlippedBits++
			}
		}
	}
}

// HammingToBaseline counts the assignment bits that differ from the
// baseline — the metric the minimization benchmark (E7) reports.
func HammingToBaseline(model, baseline map[string]uint64, widths map[string]uint8) int {
	n := 0
	for name, v := range model {
		d := (v ^ baseline[name]) & expr.Mask(widths[name])
		for d != 0 {
			n += int(d & 1)
			d >>= 1
		}
	}
	return n
}
