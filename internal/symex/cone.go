package symex

import "pokeemu/internal/expr"

// condGraph holds every condition an engine has minimized against,
// flattened into one node array in post order (children before parents).
// The engine's paths share it: side conditions and the path-condition
// prefixes of sibling paths are the same hash-consed terms, so each is
// flattened once per engine rather than walked once per path.
//
// Every node keeps its value under the baseline assignment and under the
// current one; outside minimize the two are equal. Changing one variable
// can only change the nodes that depend on it, so assign re-evaluates just
// that variable's cone — the nodes reachable from the current conditions
// that depend on it, in post order — and revert restores the values it
// overwrote.
type condGraph struct {
	baseline map[string]uint64
	index    map[*expr.Expr]int32
	nodes    []condNode
	varIDs   map[string]int32
	varBase  []uint64 // baseline value of each variable, by id
	vars     []uint64 // current value of each variable, by id
	stamp    uint32   // generation of the last cone walk

	undo    []uint64 // cone values before the last assign
	undoVar uint64   // the variable's value before the last assign
}

type condNode struct {
	e     *expr.Expr
	kids  [3]int32 // node indexes of e.Kids; -1 past the last child
	varID int32    // OpVar: the variable's id
	bloom uint64   // bit id%64 of every variable at or below the node
	base  uint64   // value under the baseline assignment
	val   uint64   // value under the current assignment
	seen  uint32   // stamp of the last cone walk that reached the node
	dep   bool     // the node depends on that walk's variable
}

// condGraphCap bounds an engine's graph; minimize starts a fresh one past
// it (the graph is a cache, so this changes no result).
const condGraphCap = 1 << 18

func newCondGraph(baseline map[string]uint64) *condGraph {
	return &condGraph{
		baseline: baseline,
		index:    make(map[*expr.Expr]int32),
		varIDs:   make(map[string]int32),
	}
}

// add flattens e into the graph (once) and returns its node index. It must
// not be called between an assign and the matching reset: new nodes start
// at their baseline value.
func (g *condGraph) add(e *expr.Expr) int32 {
	if n, ok := g.index[e]; ok {
		return n
	}
	nd := condNode{e: e, kids: [3]int32{-1, -1, -1}}
	var kv [3]uint64
	for i, k := range e.Kids {
		kn := g.add(k)
		nd.kids[i] = kn
		nd.bloom |= g.nodes[kn].bloom
		kv[i] = g.nodes[kn].base
	}
	switch e.Op {
	case expr.OpConst:
		nd.base = e.Val
	case expr.OpVar:
		id, ok := g.varIDs[e.Name]
		if !ok {
			id = int32(len(g.varBase))
			g.varIDs[e.Name] = id
			g.varBase = append(g.varBase, g.baseline[e.Name])
			g.vars = append(g.vars, g.baseline[e.Name])
		}
		nd.varID = id
		nd.bloom = 1 << (id % 64)
		nd.base = g.varBase[id] & expr.Mask(e.Width)
	default:
		nd.base = expr.EvalOp(e, kv[0], kv[1], kv[2])
	}
	nd.val = nd.base
	n := int32(len(g.nodes))
	g.nodes = append(g.nodes, nd)
	g.index[e] = n
	return n
}

// cone returns the nodes reachable from roots that depend on variable id,
// in post order, and the roots among them (the conditions that mention
// the variable). The bloom bits prune the walk to subterms that may mention
// it; the dependency itself is exact.
func (g *condGraph) cone(id int32, roots []int32) (cone, checks []int32) {
	g.stamp++
	bit := uint64(1) << (id % 64)
	var visit func(n int32) bool
	visit = func(n int32) bool {
		nd := &g.nodes[n]
		if nd.bloom&bit == 0 {
			return false
		}
		if nd.seen == g.stamp {
			return nd.dep
		}
		nd.seen = g.stamp
		dep := nd.e.Op == expr.OpVar && nd.varID == id
		for _, k := range nd.kids {
			if k >= 0 && visit(k) {
				dep = true
			}
		}
		nd.dep = dep
		if dep {
			cone = append(cone, n)
		}
		return dep
	}
	for _, r := range roots {
		if visit(r) {
			checks = append(checks, r)
		}
	}
	return cone, checks
}

// eval computes one node from its children's current values.
func (g *condGraph) eval(nd *condNode) uint64 {
	if nd.e.Op == expr.OpVar {
		return g.vars[nd.varID] & expr.Mask(nd.e.Width)
	}
	var kv [3]uint64
	for i, k := range nd.kids {
		if k >= 0 {
			kv[i] = g.nodes[k].val
		}
	}
	return expr.EvalOp(nd.e, kv[0], kv[1], kv[2])
}

// assign sets variable id to v and re-evaluates its cone, remembering the
// values it overwrites for revert.
func (g *condGraph) assign(id int32, v uint64, cone []int32) {
	g.undoVar = g.vars[id]
	g.vars[id] = v
	g.undo = g.undo[:0]
	for _, n := range cone {
		nd := &g.nodes[n]
		g.undo = append(g.undo, nd.val)
		nd.val = g.eval(nd)
	}
}

// revert undoes the last assign, which must have been to id over cone.
func (g *condGraph) revert(id int32, cone []int32) {
	g.vars[id] = g.undoVar
	for i, n := range cone {
		g.nodes[n].val = g.undo[i]
	}
}

// holds reports whether every node in checks (1-bit conditions) is true.
func (g *condGraph) holds(checks []int32) bool {
	for _, n := range checks {
		if g.nodes[n].val != 1 {
			return false
		}
	}
	return true
}

// reset puts variable id and its cone back at their baseline values.
func (g *condGraph) reset(id int32, cone []int32) {
	g.vars[id] = g.varBase[id]
	for _, n := range cone {
		g.nodes[n].val = g.nodes[n].base
	}
}
