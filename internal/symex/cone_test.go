package symex

import (
	"fmt"
	"math/rand"
	"testing"

	"pokeemu/internal/expr"
)

// coneFuzzVars are the fuzz target's free variables.
var coneFuzzVars = []struct {
	name string
	w    uint8
}{{"a", 8}, {"b", 16}, {"c", 32}, {"d", 1}}

// FuzzConeEval checks the condition graph's incremental evaluation against
// expr.Eval from scratch. The input builds a random small DAG over a few
// variables (after 64 filler variables, so the fuzzed ones share bloom
// bits with others) and a random subset of its terms as the current
// conditions, then applies random variable changes, each accepted or
// undone at random. After every step, every node reachable from the
// conditions must hold expr.Eval of its term under the current values; the
// cone's checks must be exactly the conditions that mention the variable;
// and once every variable is reset, every node must be back at its
// baseline value.
func FuzzConeEval(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	// Long random inputs, so a plain test run builds full DAGs and takes
	// steps.
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 16; i++ {
		seed := make([]byte, 160)
		r.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		pos := 0
		next := func() byte {
			if pos >= len(data) {
				return 0
			}
			b := data[pos]
			pos++
			return b
		}
		word := func() uint64 {
			var v uint64
			for i := 0; i < 8; i++ {
				v = v<<8 | uint64(next())
			}
			return v
		}

		baseline := map[string]uint64{}
		var fillers []*expr.Expr
		for i := 0; i < 64; i++ {
			name := fmt.Sprintf("f%02d", i)
			baseline[name] = uint64(i)
			fillers = append(fillers, expr.Ult(expr.Var(8, name), expr.Const(8, 200)))
		}
		pool := []*expr.Expr{}
		for _, v := range coneFuzzVars {
			baseline[v.name] = word() // wider than the variable: leaves mask
			pool = append(pool, expr.Var(v.w, v.name), expr.Const(v.w, word()))
		}
		pool = append(pool, fillers[0].Kids[0])
		fit := func(e *expr.Expr, w uint8) *expr.Expr {
			switch {
			case e.Width < w:
				return expr.ZExt(e, w)
			case e.Width > w:
				return expr.Extract(e, 0, w)
			}
			return e
		}
		pick := func() *expr.Expr { return pool[int(next())%len(pool)] }
		// At most 12 operators: expr.Eval does not share subterms, so the
		// from-scratch check costs up to 2^depth.
		for n := int(next()%10) + 3; n > 0; n-- {
			a := pick()
			b := fit(pick(), a.Width)
			var e *expr.Expr
			switch next() % 21 {
			case 0:
				e = expr.Not(a)
			case 1:
				e = expr.Neg(a)
			case 2:
				e = expr.And(a, b)
			case 3:
				e = expr.Or(a, b)
			case 4:
				e = expr.Xor(a, b)
			case 5:
				e = expr.Add(a, b)
			case 6:
				e = expr.Sub(a, b)
			case 7:
				e = expr.Mul(a, b)
			case 8:
				e = expr.UDiv(a, b)
			case 9:
				e = expr.URem(a, b)
			case 10:
				e = expr.Shl(a, b)
			case 11:
				e = expr.LShr(a, b)
			case 12:
				e = expr.AShr(a, b)
			case 13:
				e = expr.Eq(a, b)
			case 14:
				e = expr.Ult(a, b)
			case 15:
				e = expr.Slt(a, b)
			case 16:
				e = expr.Ite(fit(pick(), 1), a, b)
			case 17:
				lo := next() % a.Width
				e = expr.Extract(a, lo, uint8(int(next())%int(a.Width-lo))+1)
			case 18:
				if a.Width+b.Width <= 64 {
					e = expr.Concat(a, b)
				} else {
					e = expr.Concat(expr.Extract(a, 0, 8), expr.Extract(b, 0, 8))
				}
			case 19:
				if a.Width < 64 {
					e = expr.ZExt(a, a.Width+next()%(64-a.Width)+1)
				} else {
					e = a
				}
			default:
				if a.Width < 64 {
					e = expr.SExt(a, a.Width+next()%(64-a.Width)+1)
				} else {
					e = a
				}
			}
			pool = append(pool, e)
		}

		g := newCondGraph(baseline)
		var roots []int32
		for _, c := range fillers {
			roots = append(roots, g.add(c))
		}
		// Every pool term enters the graph; only some are conditions, so
		// the graph also holds nodes no current condition reaches.
		for _, e := range pool {
			n := g.add(e)
			if next()%3 != 0 {
				roots = append(roots, n)
			}
		}
		for i := range g.nodes {
			if nd := &g.nodes[i]; nd.val != nd.base {
				t.Fatalf("node %d added at %#x, baseline %#x", i, nd.val, nd.base)
			}
		}

		env := func() map[string]uint64 {
			m := make(map[string]uint64, len(g.varIDs))
			for name, id := range g.varIDs {
				m[name] = g.vars[id]
			}
			return m
		}
		checkExact := func(step string) {
			t.Helper()
			m := env()
			seen := make([]bool, len(g.nodes))
			var visit func(n int32)
			visit = func(n int32) {
				if seen[n] {
					return
				}
				seen[n] = true
				nd := &g.nodes[n]
				if want := expr.Eval(nd.e, m); nd.val != want {
					t.Fatalf("%s: node %d %s = %#x, Eval %#x", step, n, nd.e, nd.val, want)
				}
				for _, k := range nd.kids {
					if k >= 0 {
						visit(k)
					}
				}
			}
			for _, r := range roots {
				visit(r)
			}
		}

		touched := map[int32]bool{}
		for steps := int(next() % 16); steps > 0; steps-- {
			v := coneFuzzVars[int(next())%len(coneFuzzVars)]
			id, ok := g.varIDs[v.name]
			if !ok {
				continue
			}
			cone, checks := g.cone(id, roots)
			var wantChecks []int32
			for _, r := range roots {
				vars := map[string]uint8{}
				expr.CollectVars(g.nodes[r].e, vars)
				if _, ok := vars[v.name]; ok {
					wantChecks = append(wantChecks, r)
				}
			}
			if fmt.Sprint(checks) != fmt.Sprint(wantChecks) {
				t.Fatalf("checks of %s: %v, conditions mentioning it %v", v.name, checks, wantChecks)
			}
			touched[id] = true
			g.assign(id, word(), cone)
			checkExact("assign " + v.name)
			if next()&1 == 0 {
				g.revert(id, cone)
				checkExact("revert " + v.name)
			}
		}
		for id := range touched {
			cone, _ := g.cone(id, roots)
			g.reset(id, cone)
		}
		for i := range g.nodes {
			if nd := &g.nodes[i]; nd.val != nd.base {
				t.Fatalf("node %d %s left at %#x after reset, baseline %#x", i, nd.e, nd.val, nd.base)
			}
		}
	})
}
