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

// The dense witness code as it was before witnesses went sparse, kept as
// the reference: fullModelRef completes the solver model with the baseline
// value of every state variable, minimizeSortAll minimizes that total
// model, and diffsRef (core.TestCase.Diffs as it was) cuts it back to the
// variables that differ from the baseline.

// fullModelRef combines the solver model with baseline values for
// variables the CNF never saw (they are unconstrained).
func fullModelRef(en *Engine) map[string]uint64 {
	m := en.bv.Model()
	out := make(map[string]uint64, len(en.st.Vars))
	for name := range en.st.Vars {
		if v, ok := m[name]; ok {
			out[name] = v
		} else {
			out[name] = en.st.Baseline[name]
		}
	}
	return out
}

// minimizeSortAll is minimize as first written (with plain evaluation in
// place of the memo): it sorts the name of every state variable, then
// skips those the model does not hold or holds at baseline, and counts
// into stats.
func minimizeSortAll(en *Engine, model map[string]uint64, stats *Stats) {
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
				stats.MinimizedBits++
			} else {
				model[name] ^= m
				stats.FlippedBits++
			}
		}
	}
}

// diffsRef returns the variables of a total model that differ from the
// baseline.
func diffsRef(model, baseline map[string]uint64, widths map[string]uint8) map[string]uint64 {
	out := make(map[string]uint64)
	for name, v := range model {
		if v != baseline[name]&expr.Mask(widths[name]) {
			out[name] = v
		}
	}
	return out
}

// diffsOf lists a total model's differing variables the way witness does.
func diffsOf(en *Engine, model map[string]uint64) []varVal {
	var out []varVal
	for name, v := range model {
		if w, ok := en.st.Vars[name]; ok && v != en.st.Baseline[name]&expr.Mask(w) {
			out = append(out, varVal{name, v})
		}
	}
	return out
}

// TestMinimizeMatchesSortAllReference runs minimize and the dense
// sort-everything reference on seeded random total models over the path
// conditions of a real handler (push %eax, explored over symbolic GPRs,
// flags, control-register bits, page-table flag bytes and the stack
// segment's cache, whose limit and attribute checks make the greedy pass
// order-dependent). minimize gets only the model's differing variables;
// both must leave the same differing variables and count the same
// minimized and load-bearing bits. The engine's condition graph carries
// over from model to model and path to path, as it does in exploration.
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
			model := make(map[string]uint64, len(st.Vars))
			for name := range st.Vars {
				model[name] = p.Value(name)
			}
			if k > 0 {
				// Perturb: reset some variables to baseline, randomize or
				// zero others, and add a name that is no state variable.
				for n := r.Intn(12); n > 0; n-- {
					name := names[r.Intn(len(names))]
					switch r.Intn(3) {
					case 0:
						model[name] = st.Baseline[name]
					case 1:
						model[name] = r.Uint64() & expr.Mask(st.Vars[name])
					default:
						model[name] = 0
					}
				}
				model["not_a_state_var"] = r.Uint64()
			}
			en.stats = Stats{}
			got := en.minimize(diffsOf(en, model))
			var wantStats Stats
			minimizeSortAll(en, model, &wantStats)
			want := diffsRef(model, st.Baseline, st.Vars)
			delete(want, "not_a_state_var")
			if !maps.Equal(got, want) {
				t.Fatalf("path %v model %d: minimize %v, reference %v", p.Outcome, k, got, want)
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

// mixEncodings are representative encodings of the 14 handlers of the
// headline cold campaign (campaign.Config.Handlers in bench_test.go).
var mixEncodings = map[string][]byte{
	"leave":              {0xc9},
	"cmpxchg_rmv_rv":     {0x0f, 0xb1, 0x00},
	"iret":               {0xcf},
	"rdmsr":              {0x0f, 0x32},
	"lfs":                {0x0f, 0xb4, 0x00},
	"mov_sreg_rm16":      {0x8e, 0x00},
	"add_rm8_imm8_alias": {0x82, 0x00, 0x00},
	"push_r":             {0x50},
	"add_rmv_rv":         {0x01, 0x00},
	"shl_rmv_imm8":       {0xc1, 0x20, 0x00},
	"mov_rv_rmv":         {0x8b, 0x00},
	"mul_rmv":            {0xf7, 0x20},
	"enter":              {0xc8, 0x00, 0x00, 0x00},
	"pop_r":              {0x58},
}

// figure3State builds the exploration's Figure 3 symbolic state the way
// core.Explorer does (core imports symex, so it is rebuilt here): symbolic
// GPRs, flags, control-register bits, page-table flag bytes, selector RPLs
// and GDT descriptor bytes, with the segment caches tied to the GDT bytes
// through the descriptor-parse summaries.
func figure3State(t *testing.T) (*SymState, []*expr.Expr) {
	t.Helper()
	image := machine.BaselineImage()
	ports := sem.DescriptorParsePorts
	inputs := map[x86.Loc]*expr.Expr{
		ports.Lo:  expr.Var(32, "d_lo"),
		ports.Hi:  expr.Var(32, "d_hi"),
		ports.Sel: expr.ZExt(expr.Var(16, "d_sel"), 32),
	}
	outs := []x86.Loc{ports.Base, ports.Limit, ports.Attr}
	sums := map[bool]*Summary{}
	for _, forSS := range []bool{false, true} {
		s, err := Summarize(NewSymState(machine.NewBaseline(image)),
			sem.DescriptorParseProgram(forSS), inputs, outs)
		if err != nil {
			t.Fatal(err)
		}
		sums[forSS] = s
	}

	st := NewSymState(machine.NewBaseline(image))
	var side []*expr.Expr
	addSide := func(e *expr.Expr) {
		if e != nil {
			side = append(side, e)
		}
	}
	for r := 0; r < 8; r++ {
		addSide(st.MarkLocSymbolic(x86.GPR(x86.Reg(r)), ^uint64(0)))
	}
	for _, bit := range []uint8{
		x86.FlagCF, x86.FlagPF, x86.FlagAF, x86.FlagZF, x86.FlagSF,
		x86.FlagTF, x86.FlagIF, x86.FlagDF, x86.FlagOF, 12, 13,
		x86.FlagNT, x86.FlagAC, x86.FlagVIF, x86.FlagVIP, x86.FlagID,
	} {
		addSide(st.MarkLocSymbolic(x86.Flag(bit), 1))
	}
	addSide(st.MarkLocSymbolic(x86.CR(0), 1<<x86.CR0MP|1<<x86.CR0EM|1<<x86.CR0TS|
		1<<x86.CR0NE|1<<x86.CR0WP|1<<x86.CR0AM))
	addSide(st.MarkLocSymbolic(x86.CR(3), 0x18))
	addSide(st.MarkLocSymbolic(x86.CR(4), 0x1ff))
	for i := uint32(0); i < 1024; i++ {
		st.MarkMemSymbolic(machine.PDBase + i*4)
		st.MarkMemSymbolic(machine.PTBase + i*4)
	}
	sels := map[x86.SegReg]uint16{x86.ES: machine.SelES, x86.SS: machine.SelSS,
		x86.DS: machine.SelData, x86.FS: machine.SelFS, x86.GS: machine.SelGS}
	for _, sr := range []x86.SegReg{x86.ES, x86.SS, x86.DS, x86.FS, x86.GS} {
		addSide(st.MarkLocSymbolic(x86.SegSel(sr), 0x3))
		base := machine.GDTBase + machine.GDTIndex(sels[sr])*8
		for b := uint32(0); b < 8; b++ {
			st.MarkMemSymbolic(base + b)
		}
		word := func(addr uint32) *expr.Expr {
			v := st.LoadByte(addr)
			for i := uint32(1); i < 4; i++ {
				v = expr.Concat(st.LoadByte(addr+i), v)
			}
			return v
		}
		sum := sums[sr == x86.SS]
		sub := map[string]*expr.Expr{
			"d_lo": word(base), "d_hi": word(base + 4),
			"d_sel": expr.Var(16, "st_"+sr.String()+".sel"),
		}
		st.Set(x86.SegBase(sr), expr.Substitute(sum.Outputs[ports.Base], sub))
		st.Set(x86.SegLimit(sr), expr.Substitute(sum.Outputs[ports.Limit], sub))
		st.Set(x86.SegAttr(sr), expr.Extract(expr.Substitute(sum.Outputs[ports.Attr], sub), 0, 16))
		side = append(side, expr.Substitute(sum.Success, sub))
	}
	return st, side
}

// TestWitnessMatchesDenseReference explores each handler of the campaign
// mix sequentially and, after every completed path (while the engine still
// holds that path's solver model and conditions), recomputes the witness
// the dense way: total model, minimizeSortAll, diffsRef. The sparse witness
// must equal it, and the path's MinimizedBits/FlippedBits must equal the
// reference's — including the bits of variables encoded on earlier paths,
// which no current condition mentions. It runs with minimization on and
// off, and once guided by a concrete assignment.
func TestWitnessMatchesDenseReference(t *testing.T) {
	st0, side := figure3State(t)
	for name, w := range st0.Vars {
		if st0.Baseline[name]&^expr.Mask(w) != 0 {
			t.Fatalf("baseline of %s is %#x, wider than %d bits", name, st0.Baseline[name], w)
		}
	}
	guide := map[string]uint64{"st_eax": 0xfffff000, "st_ecx": 1, "st_cf": 1, "st_ss.sel": 3}
	type run struct {
		name  string
		skip  bool
		guide map[string]uint64
	}
	runs := []run{{"minimize", false, nil}, {"skip-minimize", true, nil}}
	handlers := make([]string, 0, len(mixEncodings))
	for h := range mixEncodings {
		handlers = append(handlers, h)
	}
	sort.Strings(handlers)
	var paths, other, moved, flipped int64
	check := func(t *testing.T, handler string, rn run) {
		inst, err := x86.Decode(mixEncodings[handler])
		if err != nil {
			t.Fatal(err)
		}
		if inst.Spec.Name != handler {
			t.Fatalf("encoding decodes as %s", inst.Spec.Name)
		}
		prog := sem.Compile(inst, sem.BochsConfig)
		opts := DefaultOptions()
		opts.MaxPaths = 12
		opts.SkipMinimize = rn.skip
		opts.Guide = rn.guide
		en := NewEngine(st0.Clone(), side, opts)
		seen := map[string]bool{}
		for n := 0; n < opts.MaxPaths && !en.tree.FullyExplored(); {
			before := en.stats
			res, err := en.runOnce(prog)
			if err != nil {
				continue
			}
			n++
			model := fullModelRef(en)
			var want Stats
			if !rn.skip {
				minimizeSortAll(en, model, &want)
			}
			wantModel := diffsRef(model, en.st.Baseline, en.st.Vars)
			if !maps.Equal(res.Model, wantModel) {
				t.Fatalf("path %d: witness %v, reference %v", n, res.Model, wantModel)
			}
			gotMin := en.stats.MinimizedBits - before.MinimizedBits
			gotFlip := en.stats.FlippedBits - before.FlippedBits
			if gotMin != want.MinimizedBits || gotFlip != want.FlippedBits {
				t.Fatalf("path %d: minimized/flipped %d/%d, reference %d/%d",
					n, gotMin, gotFlip, want.MinimizedBits, want.FlippedBits)
			}
			paths++
			moved += want.MinimizedBits
			flipped += want.FlippedBits
			// Count encoded variables of earlier paths that the solver set
			// away from baseline: the stats must cover those too.
			mentioned := map[string]uint8{}
			for _, c := range append(append([]*expr.Expr(nil), en.sideCond...), en.pathCond...) {
				expr.CollectVars(c, mentioned)
			}
			for name := range seen {
				if _, ok := mentioned[name]; !ok && model[name] == en.st.Baseline[name] &&
					en.bv.ModelVal(name) != en.st.Baseline[name] {
					other++
				}
			}
			for name := range mentioned {
				seen[name] = true
			}
		}
	}
	for _, h := range handlers {
		for _, rn := range runs {
			t.Run(h+"/"+rn.name, func(t *testing.T) { check(t, h, rn) })
		}
	}
	t.Run("push_r/guided", func(t *testing.T) { check(t, "push_r", run{"guided", false, guide}) })
	if moved == 0 || flipped == 0 || other == 0 {
		t.Errorf("vacuous comparison: %d bits minimized, %d load-bearing, %d earlier-path variables reset",
			moved, flipped, other)
	}
	t.Logf("%d paths; %d bits minimized, %d load-bearing; %d earlier-path variables reset", paths, moved, flipped, other)
}
