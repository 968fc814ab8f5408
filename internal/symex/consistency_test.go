package symex

import (
	"math/rand"
	"testing"

	"pokeemu/internal/expr"
	"pokeemu/internal/ir"
	"pokeemu/internal/machine"
	"pokeemu/internal/x86"
)

// randomProgram emits a random straight-line IR program over two GPR inputs
// with occasional conditional values, ending in a write to EBX.
func randomProgram(r *rand.Rand) *ir.Program {
	b := ir.NewBuilder("rnd")
	vals := []ir.Operand{
		b.Get(x86.GPR(x86.EAX)),
		b.Get(x86.GPR(x86.ECX)),
		b.Const(32, r.Uint64()),
	}
	pick := func() ir.Operand { return vals[r.Intn(len(vals))] }
	for i := 0; i < 12; i++ {
		var v ir.Operand
		switch r.Intn(10) {
		case 0:
			v = b.Add(pick(), pick())
		case 1:
			v = b.Sub(pick(), pick())
		case 2:
			v = b.Mul(pick(), pick())
		case 3:
			v = b.And(pick(), pick())
		case 4:
			v = b.Or(pick(), pick())
		case 5:
			v = b.Xor(pick(), pick())
		case 6:
			v = b.Not(pick())
		case 7:
			v = b.Ite(b.Ult(pick(), pick()), pick(), pick())
		case 8:
			v = b.ZExt(b.Extract(pick(), uint8(r.Intn(24)), 8), 32)
		default:
			v = b.Shl(pick(), b.Const(8, uint64(r.Intn(33))))
		}
		vals = append(vals, v)
	}
	b.Set(x86.GPR(x86.EBX), vals[len(vals)-1])
	b.End()
	return b.Build()
}

// TestSymbolicMatchesConcreteEvaluation is the central engine-soundness
// property: running a program symbolically with inputs marked symbolic and
// then evaluating the final-state terms under a random assignment must give
// the same result as running the program concretely with those values.
func TestSymbolicMatchesConcreteEvaluation(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	image := machine.BaselineImage()
	for iter := 0; iter < 100; iter++ {
		prog := randomProgram(r)
		a, c := uint32(r.Uint64()), uint32(r.Uint64())

		// Concrete run.
		m := machine.NewBaseline(image)
		m.GPR[x86.EAX] = a
		m.GPR[x86.ECX] = c
		if _, err := ir.Run(prog, m, 0); err != nil {
			t.Fatal(err)
		}
		want := m.GPR[x86.EBX]

		// Symbolic run (one path suffices; the program is branch-free).
		st := NewSymState(machine.NewBaseline(image))
		st.MarkLocSymbolic(x86.GPR(x86.EAX), ^uint64(0))
		st.MarkLocSymbolic(x86.GPR(x86.ECX), ^uint64(0))
		en := NewEngine(st, nil, DefaultOptions())
		var final *expr.Expr
		en.Explore(prog, func(res *PathResult) {
			final = res.Final.Get(x86.GPR(x86.EBX))
		})
		if final == nil {
			t.Fatal("no path explored")
		}
		env := map[string]uint64{"st_eax": uint64(a), "st_ecx": uint64(c)}
		if got := uint32(expr.Eval(final, env)); got != want {
			t.Fatalf("iter %d: symbolic %#x != concrete %#x\n%s",
				iter, got, want, prog)
		}
	}
}

// TestSymbolicBranchingMatchesConcrete extends the property across branches:
// for each explored path, running the program concretely on the path's own
// (minimized) model must reproduce the path's outcome.
func TestSymbolicBranchingMatchesConcrete(t *testing.T) {
	image := machine.BaselineImage()
	b := ir.NewBuilder("br")
	x := b.Get(x86.GPR(x86.EAX))
	y := b.Get(x86.GPR(x86.ECX))
	big := b.NewLabel()
	b.CJump(b.Ugt(b.Add(x, y), b.Const(32, 1000)), big)
	b.Set(x86.GPR(x86.EBX), b.Const(32, 1))
	b.End()
	b.Bind(big)
	gp := b.NewLabel()
	b.CJump(b.Eq(y, b.Const(32, 0)), gp)
	b.Set(x86.GPR(x86.EBX), b.Const(32, 2))
	b.End()
	b.Bind(gp)
	b.Raise(x86.ExcGP, b.Const(32, 0))
	prog := b.Build()

	st := NewSymState(machine.NewBaseline(image))
	st.MarkLocSymbolic(x86.GPR(x86.EAX), ^uint64(0))
	st.MarkLocSymbolic(x86.GPR(x86.ECX), ^uint64(0))
	en := NewEngine(st, nil, DefaultOptions())
	paths := 0
	en.Explore(prog, func(res *PathResult) {
		paths++
		m := machine.NewBaseline(image)
		m.GPR[x86.EAX] = uint32(res.Value("st_eax"))
		m.GPR[x86.ECX] = uint32(res.Value("st_ecx"))
		out, err := ir.Run(prog, m, 0)
		if err != nil {
			t.Fatal(err)
		}
		if out.Kind != res.Outcome.Kind || out.Vector != res.Outcome.Vector {
			t.Errorf("path outcome %v, concrete replay %v (model %v)",
				res.Outcome, out, res.Model)
		}
	})
	if paths != 3 {
		t.Errorf("paths = %d, want 3", paths)
	}
}
