package ir

import (
	"strings"
	"testing"
	"unsafe"

	"pokeemu/internal/expr"
	"pokeemu/internal/x86"
)

// mapState is a trivial State for tests.
type mapState struct {
	locs map[x86.Loc]uint64
	mem  map[uint32]byte
}

func newMapState() *mapState {
	return &mapState{locs: make(map[x86.Loc]uint64), mem: make(map[uint32]byte)}
}

func (m *mapState) Get(l x86.Loc) uint64    { return m.locs[l] }
func (m *mapState) Set(l x86.Loc, v uint64) { m.locs[l] = v & expr.Mask(l.Width()) }
func (m *mapState) Load(p uint32, n uint8) uint64 {
	var v uint64
	for i := uint8(0); i < n; i++ {
		v |= uint64(m.mem[p+uint32(i)]) << (8 * i)
	}
	return v
}
func (m *mapState) Store(p uint32, v uint64, n uint8) {
	for i := uint8(0); i < n; i++ {
		m.mem[p+uint32(i)] = byte(v >> (8 * i))
	}
}

// TestLayout pins the packed sizes: compiled bodies are cached for the life
// of the process, so a field edit that re-pads Operand inflates every Stmt
// (three Operands each) in every cached program.
func TestLayout(t *testing.T) {
	if n := unsafe.Sizeof(Operand{}); n != 16 {
		t.Errorf("Operand is %d bytes, want 16", n)
	}
	if n := unsafe.Sizeof(Stmt{}); n > 72 {
		t.Errorf("Stmt is %d bytes, want at most 72", n)
	}
}

func TestBuilderStraightLine(t *testing.T) {
	b := NewBuilder("t")
	x := b.Get(x86.GPR(x86.EAX))
	y := b.Add(x, b.Const(32, 10))
	b.Set(x86.GPR(x86.EBX), y)
	b.End()
	p := b.Build()

	st := newMapState()
	st.Set(x86.GPR(x86.EAX), 32)
	out, err := Run(p, st, 0)
	if err != nil {
		t.Fatal(err)
	}
	if out.Kind != OutEnd {
		t.Fatalf("outcome %v", out)
	}
	if got := st.Get(x86.GPR(x86.EBX)); got != 42 {
		t.Errorf("ebx = %d, want 42", got)
	}
}

func TestBuilderBranchAndLoop(t *testing.T) {
	// Sum 1..n with a loop: tests labels, cjump, move.
	b := NewBuilder("loop")
	n := b.Get(x86.GPR(x86.ECX))
	sum := b.NewTemp(32)
	i := b.NewTemp(32)
	b.Move(sum, b.Const(32, 0))
	b.Move(i, b.Const(32, 0))
	top := b.NewLabel()
	done := b.NewLabel()
	b.Bind(top)
	b.CJump(b.Eq(i, n), done)
	b.Move(i, b.Add(i, b.Const(32, 1)))
	b.Move(sum, b.Add(sum, i))
	b.Jump(top)
	b.Bind(done)
	b.Set(x86.GPR(x86.EAX), sum)
	b.End()
	p := b.Build()

	st := newMapState()
	st.Set(x86.GPR(x86.ECX), 10)
	if _, err := Run(p, st, 0); err != nil {
		t.Fatal(err)
	}
	if got := st.Get(x86.GPR(x86.EAX)); got != 55 {
		t.Errorf("sum = %d, want 55", got)
	}
}

func TestRunStepLimit(t *testing.T) {
	b := NewBuilder("diverge")
	top := b.NewLabel()
	b.Bind(top)
	b.Jump(top)
	p := b.Build()
	if _, err := Run(p, newMapState(), 100); err != ErrStepLimit {
		t.Errorf("err = %v, want step limit", err)
	}
}

func TestRaiseOutcome(t *testing.T) {
	b := NewBuilder("gp")
	b.Raise(x86.ExcGP, b.Const(32, 0x50))
	p := b.Build()
	out, err := Run(p, newMapState(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if out.Kind != OutRaise || out.Vector != x86.ExcGP || out.ErrCode != 0x50 || !out.HasErr {
		t.Errorf("outcome %+v", out)
	}
}

func TestMemoryOps(t *testing.T) {
	b := NewBuilder("mem")
	addr := b.Const(32, 0x1000)
	b.Store(addr, b.Const(32, 0x11223344), 4)
	lo := b.Load(addr, 2)
	hi := b.Load(b.Add(addr, b.Const(32, 2)), 2)
	b.Set(x86.GPR(x86.EAX), b.Concat(lo, hi)) // deliberately swapped halves
	b.End()
	p := b.Build()
	st := newMapState()
	if _, err := Run(p, st, 0); err != nil {
		t.Fatal(err)
	}
	if got := st.Get(x86.GPR(x86.EAX)); got != 0x33441122 {
		t.Errorf("eax = %#x, want 0x33441122", got)
	}
}

func TestEvalOpsMatchExpr(t *testing.T) {
	// Each IR operator must agree with the expr package's evaluator.
	ops := []expr.Op{
		expr.OpAdd, expr.OpSub, expr.OpMul, expr.OpAnd, expr.OpOr, expr.OpXor,
		expr.OpUDiv, expr.OpURem, expr.OpEq, expr.OpUlt, expr.OpSlt,
	}
	vals := []uint64{0, 1, 5, 0x7fffffff, 0x80000000, 0xffffffff}
	for _, op := range ops {
		for _, av := range vals {
			for _, bv := range vals {
				b := NewBuilder("op")
				r := b.Bin(op, b.Const(32, av), b.Const(32, bv))
				b.Set(x86.GPR(x86.EAX), b.ZExt(r, 32))
				b.End()
				p := b.Build()
				st := newMapState()
				if _, err := Run(p, st, 0); err != nil {
					t.Fatal(err)
				}
				var want *expr.Expr
				x, y := expr.Const(32, av), expr.Const(32, bv)
				switch op {
				case expr.OpAdd:
					want = expr.Add(x, y)
				case expr.OpSub:
					want = expr.Sub(x, y)
				case expr.OpMul:
					want = expr.Mul(x, y)
				case expr.OpAnd:
					want = expr.And(x, y)
				case expr.OpOr:
					want = expr.Or(x, y)
				case expr.OpXor:
					want = expr.Xor(x, y)
				case expr.OpUDiv:
					want = expr.UDiv(x, y)
				case expr.OpURem:
					want = expr.URem(x, y)
				case expr.OpEq:
					want = expr.Eq(x, y)
				case expr.OpUlt:
					want = expr.Ult(x, y)
				case expr.OpSlt:
					want = expr.Slt(x, y)
				}
				if got := st.Get(x86.GPR(x86.EAX)); got != want.ConstVal() {
					t.Errorf("%s(%#x,%#x) = %#x, want %#x", op, av, bv, got, want.ConstVal())
				}
			}
		}
	}
}

func TestExtractConcatZExtSExt(t *testing.T) {
	b := NewBuilder("bits")
	x := b.Const(32, 0x8000ff00)
	hi := b.Extract(x, 16, 16)
	sx := b.SExt(hi, 32)
	b.Set(x86.GPR(x86.EAX), sx)
	lo8 := b.Extract(x, 8, 8)
	b.Set(x86.GPR(x86.EBX), b.ZExt(lo8, 32))
	b.End()
	st := newMapState()
	if _, err := Run(b.Build(), st, 0); err != nil {
		t.Fatal(err)
	}
	if got := st.Get(x86.GPR(x86.EAX)); got != 0xffff8000 {
		t.Errorf("sext = %#x", got)
	}
	if got := st.Get(x86.GPR(x86.EBX)); got != 0xff {
		t.Errorf("zext = %#x", got)
	}
}

func TestUnboundLabelPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on unbound label")
		}
	}()
	b := NewBuilder("bad")
	l := b.NewLabel()
	b.Jump(l)
	b.Build()
}

func TestShiftSemantics(t *testing.T) {
	// Variable shifts with oversized amounts: shl/lshr → 0, ashr → sign fill.
	cases := []struct {
		op   expr.Op
		v    uint64
		n    uint64
		want uint64
	}{
		{expr.OpShl, 1, 31, 0x80000000},
		{expr.OpShl, 1, 32, 0},
		{expr.OpLShr, 0x80000000, 31, 1},
		{expr.OpLShr, 0x80000000, 40, 0},
		{expr.OpAShr, 0x80000000, 31, 0xffffffff},
		{expr.OpAShr, 0x80000000, 99, 0xffffffff},
	}
	for _, c := range cases {
		b := NewBuilder("sh")
		r := b.binShift(c.op, b.Const(32, c.v), b.Const(8, c.n))
		b.Set(x86.GPR(x86.EAX), r)
		b.End()
		st := newMapState()
		if _, err := Run(b.Build(), st, 0); err != nil {
			t.Fatal(err)
		}
		if got := st.Get(x86.GPR(x86.EAX)); got != c.want {
			t.Errorf("%s(%#x, %d) = %#x, want %#x", c.op, c.v, c.n, got, c.want)
		}
	}
}

func TestConcatRaiseStopsSequence(t *testing.T) {
	b1 := NewBuilder("p1")
	b1.Raise(x86.ExcGP, b1.Const(32, 7))
	b2 := NewBuilder("p2")
	b2.Set(x86.GPR(x86.EAX), b2.Const(32, 99))
	b2.End()
	cat := Concat("seq", b1.Build(), b2.Build())
	st := newMapState()
	out, err := Run(cat, st, 0)
	if err != nil {
		t.Fatal(err)
	}
	if out.Kind != OutRaise || out.ErrCode != 7 {
		t.Errorf("outcome %v, want the first program's raise", out)
	}
	if st.Get(x86.GPR(x86.EAX)) != 0 {
		t.Error("second program ran after a raise")
	}
}

func TestConcatTempIsolation(t *testing.T) {
	// Temps of the two programs must not alias after renumbering.
	b1 := NewBuilder("p1")
	v1 := b1.Add(b1.Const(32, 1), b1.Const(32, 2))
	b1.Set(x86.GPR(x86.EAX), v1)
	b1.End()
	b2 := NewBuilder("p2")
	v2 := b2.Add(b2.Get(x86.GPR(x86.EAX)), b2.Const(32, 10))
	b2.Set(x86.GPR(x86.EBX), v2)
	b2.End()
	cat := Concat("seq", b1.Build(), b2.Build())
	if cat.NumTemps() != b1.p.NumTemps()+b2.p.NumTemps() {
		t.Errorf("temps = %d", cat.NumTemps())
	}
	st := newMapState()
	if _, err := Run(cat, st, 0); err != nil {
		t.Fatal(err)
	}
	if st.Get(x86.GPR(x86.EBX)) != 13 {
		t.Errorf("ebx = %d, want 13", st.Get(x86.GPR(x86.EBX)))
	}
}

func TestProgramString(t *testing.T) {
	b := NewBuilder("render")
	x := b.Get(x86.GPR(x86.EAX))
	l := b.NewLabel()
	b.CJump(b.Eq(x, b.Const(32, 0)), l)
	b.Store(b.Const(32, 16), b.Extract(x, 0, 8), 1)
	v := b.Load(b.Const(32, 16), 1)
	b.Move(x, b.ZExt(v, 32))
	b.Set(x86.GPR(x86.EAX), x)
	b.Raise(x86.ExcGP, b.Const(32, 0))
	b.Bind(l)
	b.Halt()
	s := b.Build().String()
	for _, frag := range []string{"get", "store1", "load1", "if", "raise", "halt"} {
		if !strings.Contains(s, frag) {
			t.Errorf("rendering missing %q:\n%s", frag, s)
		}
	}
}
