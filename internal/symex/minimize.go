package symex

import (
	"math/bits"
	"slices"
	"strings"

	"pokeemu/internal/expr"
)

// varVal is one variable's value in a witness.
type varVal struct {
	name string
	val  uint64
}

// witness returns the path's test state as a difference from the
// baseline: the state variables the solver's model sets away from their
// baseline value, minimized unless Options.SkipMinimize is set. Only
// encoded variables can differ; every other state variable is
// unconstrained, so the baseline value is already a witness for it.
func (en *Engine) witness() map[string]uint64 {
	diffs := en.diffs[:0]
	en.bv.ModelVars(func(name string, v uint64) {
		if w, ok := en.st.Vars[name]; ok && v != en.st.Baseline[name]&expr.Mask(w) {
			diffs = append(diffs, varVal{name, v})
		}
	})
	en.diffs = diffs
	if !en.opts.SkipMinimize {
		return en.minimize(diffs)
	}
	out := make(map[string]uint64, len(diffs))
	for _, d := range diffs {
		out[d.name] = d.val
	}
	return out
}

// minimize implements the state-difference minimization of Section 3.4: a
// greedy pass over every bit of the witness that differs from the baseline
// state, resetting it to the baseline value whenever the full path
// condition still evaluates to true with the bit reset. Because every
// variable has a value (the witness's, else the baseline's), "still
// satisfies" is a concrete evaluation — no decision-procedure call is
// needed, exactly the simple evaluation-based approach the paper settled
// on. It takes the differing variables and returns the minimized witness:
// those still differing after the pass.
//
// Two facts keep the inner loop cheap without changing a single decision:
// every condition holds before each tested flip, so only conditions that
// mention the flipped variable can become false; and those conditions can
// only change in the flipped variable's cone, so a flip re-evaluates that
// cone on the engine's condition graph and undoes it on reject. A variable
// no current condition mentions (one encoded on another path) resets
// without evaluation.
func (en *Engine) minimize(diffs []varVal) map[string]uint64 {
	out := make(map[string]uint64, len(diffs))
	if len(diffs) == 0 {
		return out
	}
	// The greedy pass is order-dependent (resetting one variable's bit can
	// make another's load-bearing), so visit variables in sorted name order:
	// the minimized witness must be a pure function of the path, never of
	// map iteration order, or campaign reports would differ run to run.
	slices.SortFunc(diffs, func(a, b varVal) int { return strings.Compare(a.name, b.name) })

	g := en.graph
	if g == nil || len(g.nodes) > condGraphCap {
		g = newCondGraph(en.st.Baseline)
		en.graph = g
	}
	roots := en.roots[:0]
	for _, c := range en.sideCond {
		roots = append(roots, g.add(c))
	}
	for _, c := range en.pathCond {
		roots = append(roots, g.add(c))
	}
	en.roots = roots

	// Each differing variable's cone, then the witness values in place.
	type varCone struct {
		id           int32
		cone, checks []int32
	}
	cones := make([]varCone, len(diffs))
	for i, d := range diffs {
		if id, ok := g.varIDs[d.name]; ok {
			c := &cones[i]
			c.id = id
			c.cone, c.checks = g.cone(id, roots)
			if len(c.checks) > 0 {
				g.assign(id, d.val, c.cone)
			}
		}
	}

	for i, d := range diffs {
		w := en.st.Vars[d.name]
		base := en.st.Baseline[d.name]
		cur := d.val
		diffBits := (cur ^ base) & expr.Mask(w)
		c := &cones[i]
		if len(c.checks) == 0 {
			// No condition mentions the variable: every bit resets.
			en.stats.MinimizedBits += int64(bits.OnesCount64(diffBits))
			cur = cur&^diffBits | base&diffBits
		} else {
			for bit := uint8(0); bit < w; bit++ {
				m := uint64(1) << bit
				if diffBits&m == 0 {
					continue
				}
				next := cur&^m | base&m
				g.assign(c.id, next, c.cone)
				if g.holds(c.checks) {
					cur = next
					en.stats.MinimizedBits++
				} else {
					// Revert: this bit is load-bearing for the path.
					g.revert(c.id, c.cone)
					en.stats.FlippedBits++
				}
			}
		}
		if cur != base&expr.Mask(w) {
			out[d.name] = cur
		}
	}
	for _, c := range cones {
		if len(c.checks) > 0 {
			g.reset(c.id, c.cone)
		}
	}
	return out
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
