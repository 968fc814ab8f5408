// Package ir defines the streamlined intermediate representation that
// instruction semantics compile into (the role VEX/Vine play for FuzzBALL).
// A Program is a flat statement list with labeled jumps. The same program is
// executed two ways: concretely by the Hi-Fi emulator and the hardware
// simulator (eval.go), and symbolically by internal/symex — which makes
// "symbolic execution of the Hi-Fi emulator" literal: the paths explored are
// the paths of the very programs the emulator runs.
package ir

import (
	"fmt"
	"strings"

	"pokeemu/internal/expr"
	"pokeemu/internal/x86"
)

// Temp identifies an SSA-ish temporary within one Program.
type Temp uint32

// Operand is either a temporary or an immediate constant. Fields are
// ordered largest first so an Operand packs into 16 bytes: every Stmt holds
// three, and compiled bodies stay cached for the life of the process.
type Operand struct {
	Val     uint64
	Temp    Temp
	Width   uint8
	IsConst bool
}

// C builds a constant operand.
func C(w uint8, v uint64) Operand {
	return Operand{IsConst: true, Val: v & expr.Mask(w), Width: w}
}

// Kind discriminates statement types.
type Kind uint8

// Statement kinds.
const (
	KAssign Kind = iota // Dst = EOp(Args[:NArgs]); Lo used by extract
	KMove               // Dst = Args[0] (same width)
	KGet                // Dst = machine state at Loc
	KSet                // machine state at Loc = Args[0]
	KLoad               // Dst = physical memory at Args[0], Width bytes
	KStore              // physical memory at Args[0] = Args[1], Width bytes
	KCJump              // if Args[0] (1 bit) goto Target
	KJump               // goto Target
	KRaise              // raise exception Vector; error code Args[0] if HasErr
	KEnd                // normal completion
	KHalt               // hlt: completion with the CPU halted
)

// Stmt is one IR statement. Target holds a label id until Build resolves it
// to a statement index. Target is 32 bits and Operand packed so a Stmt
// takes 72 bytes (see TestLayout).
type Stmt struct {
	Kind   Kind
	EOp    expr.Op
	Dst    Temp
	Args   [3]Operand
	NArgs  uint8
	Lo     uint8 // extract low bit
	Width  uint8 // KAssign: result bits; KLoad/KStore: bytes (1, 2 or 4)
	Loc    x86.Loc
	Target int32
	Vector uint8
	HasErr bool
	Soft   bool // software interrupt (INT n): no error code, EIP advanced
}

// Program is a compiled instruction semantics body.
type Program struct {
	Name       string
	Stmts      []Stmt
	TempWidths []uint8
}

// NumTemps returns the number of temporaries the program uses.
func (p *Program) NumTemps() int { return len(p.TempWidths) }

func (o Operand) String() string {
	if o.IsConst {
		return fmt.Sprintf("0x%x:%d", o.Val, o.Width)
	}
	return fmt.Sprintf("t%d", o.Temp)
}

// String renders the program for debugging.
func (p *Program) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "program %s (%d temps)\n", p.Name, len(p.TempWidths))
	for i, s := range p.Stmts {
		fmt.Fprintf(&b, "%4d: ", i)
		switch s.Kind {
		case KAssign:
			fmt.Fprintf(&b, "t%d = %s", s.Dst, s.EOp)
			for _, a := range s.Args[:s.NArgs] {
				fmt.Fprintf(&b, " %s", a)
			}
			if s.EOp == expr.OpExtract {
				fmt.Fprintf(&b, " [lo=%d w=%d]", s.Lo, s.Width)
			}
		case KMove:
			fmt.Fprintf(&b, "t%d = %s", s.Dst, s.Args[0])
		case KGet:
			fmt.Fprintf(&b, "t%d = get %s", s.Dst, s.Loc)
		case KSet:
			fmt.Fprintf(&b, "set %s = %s", s.Loc, s.Args[0])
		case KLoad:
			fmt.Fprintf(&b, "t%d = load%d [%s]", s.Dst, s.Width, s.Args[0])
		case KStore:
			fmt.Fprintf(&b, "store%d [%s] = %s", s.Width, s.Args[0], s.Args[1])
		case KCJump:
			fmt.Fprintf(&b, "if %s goto %d", s.Args[0], s.Target)
		case KJump:
			fmt.Fprintf(&b, "goto %d", s.Target)
		case KRaise:
			fmt.Fprintf(&b, "raise #%d", s.Vector)
			if s.HasErr {
				fmt.Fprintf(&b, " err=%s", s.Args[0])
			}
			if s.Soft {
				b.WriteString(" soft")
			}
		case KEnd:
			b.WriteString("end")
		case KHalt:
			b.WriteString("halt")
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Label identifies a jump target during construction.
type Label int

// Builder incrementally constructs a Program. Value-producing methods return
// Operands so semantics code composes like expressions.
type Builder struct {
	p      *Program
	labels []int // label → stmt index, -1 while unbound
}

// NewBuilder starts a program with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{p: &Program{Name: name}}
}

// NewTemp allocates a fresh temporary of width w bits.
func (b *Builder) NewTemp(w uint8) Operand {
	t := Temp(len(b.p.TempWidths))
	b.p.TempWidths = append(b.p.TempWidths, w)
	return Operand{Temp: t, Width: w}
}

func (b *Builder) emit(s Stmt) {
	b.p.Stmts = append(b.p.Stmts, s)
}

func (b *Builder) widthOf(o Operand) uint8 {
	if o.IsConst {
		return o.Width
	}
	return b.p.TempWidths[o.Temp]
}

// Const builds a constant operand (no statement emitted).
func (b *Builder) Const(w uint8, v uint64) Operand { return C(w, v) }

// Get reads a machine-state location into a fresh temp.
func (b *Builder) Get(loc x86.Loc) Operand {
	d := b.NewTemp(loc.Width())
	b.emit(Stmt{Kind: KGet, Dst: d.Temp, Loc: loc})
	return d
}

// Set writes a machine-state location.
func (b *Builder) Set(loc x86.Loc, v Operand) {
	if b.widthOf(v) != loc.Width() {
		panic(fmt.Sprintf("ir: set %s width %d with %d-bit value", loc, loc.Width(), b.widthOf(v)))
	}
	b.emit(Stmt{Kind: KSet, Loc: loc, Args: [3]Operand{v}, NArgs: 1})
}

// Bin applies a binary operator.
func (b *Builder) Bin(op expr.Op, x, y Operand) Operand {
	wx, wy := b.widthOf(x), b.widthOf(y)
	if wx != wy && op != expr.OpConcat {
		panic(fmt.Sprintf("ir: %s width mismatch %d vs %d", op, wx, wy))
	}
	w := wx
	switch op {
	case expr.OpEq, expr.OpUlt, expr.OpSlt:
		w = 1
	case expr.OpConcat:
		w = wx + wy
	}
	d := b.NewTemp(w)
	b.emit(Stmt{Kind: KAssign, EOp: op, Dst: d.Temp, Args: [3]Operand{x, y}, NArgs: 2, Width: w})
	return d
}

// Un applies a unary operator (not/neg).
func (b *Builder) Un(op expr.Op, x Operand) Operand {
	d := b.NewTemp(b.widthOf(x))
	b.emit(Stmt{Kind: KAssign, EOp: op, Dst: d.Temp, Args: [3]Operand{x}, NArgs: 1, Width: d.Width})
	return d
}

// Convenience operator wrappers.

func (b *Builder) Add(x, y Operand) Operand  { return b.Bin(expr.OpAdd, x, y) }
func (b *Builder) Sub(x, y Operand) Operand  { return b.Bin(expr.OpSub, x, y) }
func (b *Builder) Mul(x, y Operand) Operand  { return b.Bin(expr.OpMul, x, y) }
func (b *Builder) And(x, y Operand) Operand  { return b.Bin(expr.OpAnd, x, y) }
func (b *Builder) Or(x, y Operand) Operand   { return b.Bin(expr.OpOr, x, y) }
func (b *Builder) Xor(x, y Operand) Operand  { return b.Bin(expr.OpXor, x, y) }
func (b *Builder) Shl(x, y Operand) Operand  { return b.binShift(expr.OpShl, x, y) }
func (b *Builder) Shr(x, y Operand) Operand  { return b.binShift(expr.OpLShr, x, y) }
func (b *Builder) Sar(x, y Operand) Operand  { return b.binShift(expr.OpAShr, x, y) }
func (b *Builder) Not(x Operand) Operand     { return b.Un(expr.OpNot, x) }
func (b *Builder) Neg(x Operand) Operand     { return b.Un(expr.OpNeg, x) }
func (b *Builder) Eq(x, y Operand) Operand   { return b.Bin(expr.OpEq, x, y) }
func (b *Builder) Ne(x, y Operand) Operand   { return b.Not(b.Eq(x, y)) }
func (b *Builder) Ult(x, y Operand) Operand  { return b.Bin(expr.OpUlt, x, y) }
func (b *Builder) Ule(x, y Operand) Operand  { return b.Not(b.Ult(y, x)) }
func (b *Builder) Ugt(x, y Operand) Operand  { return b.Ult(y, x) }
func (b *Builder) Slt(x, y Operand) Operand  { return b.Bin(expr.OpSlt, x, y) }
func (b *Builder) UDiv(x, y Operand) Operand { return b.Bin(expr.OpUDiv, x, y) }
func (b *Builder) URem(x, y Operand) Operand { return b.Bin(expr.OpURem, x, y) }

// binShift allows a narrower shift-amount operand.
func (b *Builder) binShift(op expr.Op, x, y Operand) Operand {
	d := b.NewTemp(b.widthOf(x))
	b.emit(Stmt{Kind: KAssign, EOp: op, Dst: d.Temp, Args: [3]Operand{x, y}, NArgs: 2, Width: d.Width})
	return d
}

// Ite builds a conditional value; cond must be 1 bit wide.
func (b *Builder) Ite(cond, t, f Operand) Operand {
	if b.widthOf(cond) != 1 {
		panic("ir: ite condition must be 1 bit")
	}
	if b.widthOf(t) != b.widthOf(f) {
		panic("ir: ite arm width mismatch")
	}
	d := b.NewTemp(b.widthOf(t))
	b.emit(Stmt{Kind: KAssign, EOp: expr.OpIte, Dst: d.Temp,
		Args: [3]Operand{cond, t, f}, NArgs: 3, Width: d.Width})
	return d
}

// Extract selects bits [lo, lo+w-1].
func (b *Builder) Extract(x Operand, lo, w uint8) Operand {
	d := b.NewTemp(w)
	b.emit(Stmt{Kind: KAssign, EOp: expr.OpExtract, Dst: d.Temp,
		Args: [3]Operand{x}, NArgs: 1, Lo: lo, Width: w})
	return d
}

// Concat joins hi and lo bit vectors.
func (b *Builder) Concat(hi, lo Operand) Operand { return b.Bin(expr.OpConcat, hi, lo) }

// ZExt zero-extends to w bits.
func (b *Builder) ZExt(x Operand, w uint8) Operand {
	if b.widthOf(x) == w {
		return x
	}
	d := b.NewTemp(w)
	b.emit(Stmt{Kind: KAssign, EOp: expr.OpZExt, Dst: d.Temp,
		Args: [3]Operand{x}, NArgs: 1, Width: w})
	return d
}

// SExt sign-extends to w bits.
func (b *Builder) SExt(x Operand, w uint8) Operand {
	if b.widthOf(x) == w {
		return x
	}
	d := b.NewTemp(w)
	b.emit(Stmt{Kind: KAssign, EOp: expr.OpSExt, Dst: d.Temp,
		Args: [3]Operand{x}, NArgs: 1, Width: w})
	return d
}

// Move copies src into the existing temp dst (used to merge control flow).
func (b *Builder) Move(dst, src Operand) {
	if dst.IsConst {
		panic("ir: move into constant")
	}
	if b.widthOf(dst) != b.widthOf(src) {
		panic("ir: move width mismatch")
	}
	b.emit(Stmt{Kind: KMove, Dst: dst.Temp, Args: [3]Operand{src}, NArgs: 1})
}

// Load reads bytes (1, 2 or 4) of physical memory at addr (32-bit operand).
func (b *Builder) Load(addr Operand, bytes uint8) Operand {
	d := b.NewTemp(bytes * 8)
	b.emit(Stmt{Kind: KLoad, Dst: d.Temp, Args: [3]Operand{addr}, NArgs: 1, Width: bytes})
	return d
}

// Store writes bytes of physical memory at addr.
func (b *Builder) Store(addr, val Operand, bytes uint8) {
	if b.widthOf(val) != bytes*8 {
		panic("ir: store width mismatch")
	}
	b.emit(Stmt{Kind: KStore, Args: [3]Operand{addr, val}, NArgs: 2, Width: bytes})
}

// NewLabel allocates an unbound jump target.
func (b *Builder) NewLabel() Label {
	b.labels = append(b.labels, -1)
	return Label(len(b.labels) - 1)
}

// Bind attaches the label to the next emitted statement.
func (b *Builder) Bind(l Label) {
	if b.labels[l] != -1 {
		panic("ir: label bound twice")
	}
	b.labels[l] = len(b.p.Stmts)
}

// CJump branches to l when cond (1-bit) is true.
func (b *Builder) CJump(cond Operand, l Label) {
	if b.widthOf(cond) != 1 {
		panic("ir: cjump condition must be 1 bit")
	}
	b.emit(Stmt{Kind: KCJump, Args: [3]Operand{cond}, NArgs: 1, Target: int32(l)})
}

// Jump branches unconditionally to l.
func (b *Builder) Jump(l Label) {
	b.emit(Stmt{Kind: KJump, Target: int32(l)})
}

// Raise ends the path with exception vector vec and error code err.
func (b *Builder) Raise(vec uint8, err Operand) {
	if b.widthOf(err) != 32 {
		panic("ir: error code must be 32 bits")
	}
	b.emit(Stmt{Kind: KRaise, Vector: vec, Args: [3]Operand{err}, NArgs: 1, HasErr: true})
}

// RaiseNoErr ends the path with an exception that has no error code.
func (b *Builder) RaiseNoErr(vec uint8) {
	b.emit(Stmt{Kind: KRaise, Vector: vec})
}

// RaiseSoft ends the path with a software interrupt (INT n semantics).
func (b *Builder) RaiseSoft(vec uint8) {
	b.emit(Stmt{Kind: KRaise, Vector: vec, Soft: true})
}

// End terminates the program normally.
func (b *Builder) End() { b.emit(Stmt{Kind: KEnd}) }

// Halt terminates with the CPU halted.
func (b *Builder) Halt() { b.emit(Stmt{Kind: KHalt}) }

// Concat chains programs into one: temporaries and jump targets are
// renumbered, and each non-final program's End statements fall through to
// the next program. Raise and Halt still terminate immediately, exactly
// like a fault or hlt between the instructions of a real sequence.
func Concat(name string, progs ...*Program) *Program {
	out := &Program{Name: name}
	for i, p := range progs {
		tempBase := Temp(len(out.TempWidths))
		stmtBase := len(out.Stmts)
		out.TempWidths = append(out.TempWidths, p.TempWidths...)
		next := stmtBase + len(p.Stmts) // start of the following program
		for _, s := range p.Stmts {
			ns := s
			if !ns.Args[0].IsConst && ns.NArgs >= 1 {
				ns.Args[0].Temp += tempBase
			}
			if !ns.Args[1].IsConst && ns.NArgs >= 2 {
				ns.Args[1].Temp += tempBase
			}
			if !ns.Args[2].IsConst && ns.NArgs >= 3 {
				ns.Args[2].Temp += tempBase
			}
			switch ns.Kind {
			case KAssign, KMove, KGet, KLoad:
				ns.Dst += tempBase
			}
			switch ns.Kind {
			case KCJump, KJump:
				ns.Target += int32(stmtBase)
			case KEnd:
				if i < len(progs)-1 {
					ns = Stmt{Kind: KJump, Target: int32(next)}
				}
			}
			out.Stmts = append(out.Stmts, ns)
		}
	}
	return out
}

// Build resolves labels and returns the finished program.
func (b *Builder) Build() *Program {
	for i := range b.p.Stmts {
		s := &b.p.Stmts[i]
		if s.Kind == KCJump || s.Kind == KJump {
			tgt := b.labels[s.Target]
			if tgt == -1 {
				panic(fmt.Sprintf("ir: unbound label %d in %s", s.Target, b.p.Name))
			}
			s.Target = int32(tgt)
		}
	}
	return b.p
}
