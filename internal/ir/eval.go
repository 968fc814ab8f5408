package ir

import (
	"errors"
	"fmt"
	"sync"

	"pokeemu/internal/expr"
	"pokeemu/internal/x86"
)

// State is the machine-state surface an IR program executes against.
// Addresses passed to Load/Store are physical.
type State interface {
	Get(loc x86.Loc) uint64
	Set(loc x86.Loc, v uint64)
	Load(phys uint32, bytes uint8) uint64
	Store(phys uint32, v uint64, bytes uint8)
}

// OutKind classifies how a program run ended.
type OutKind uint8

// Run outcomes.
const (
	OutEnd OutKind = iota
	OutRaise
	OutHalt
)

// Outcome describes the termination of a program run.
type Outcome struct {
	Kind    OutKind
	Vector  uint8
	ErrCode uint32
	HasErr  bool
	Soft    bool
}

func (o Outcome) String() string {
	switch o.Kind {
	case OutRaise:
		if o.HasErr {
			return fmt.Sprintf("raise #%d err=%#x", o.Vector, o.ErrCode)
		}
		return fmt.Sprintf("raise #%d", o.Vector)
	case OutHalt:
		return "halt"
	default:
		return "end"
	}
}

// ErrStepLimit is returned when a program exceeds its step budget
// (a diverging loop in the semantics, e.g. rep with a huge count).
var ErrStepLimit = errors.New("ir: step limit exceeded")

func signExtTo64(v uint64, w uint8) uint64 {
	if w >= 64 || v&(uint64(1)<<(w-1)) == 0 {
		return v
	}
	return v | ^expr.Mask(w)
}

// EdgeFunc observes one control-flow edge during concrete evaluation. It
// fires on program entry (from = -1), on every jump — taken and
// fall-through sides of KCJump, and KJump — and on termination (to = -1),
// i.e. roughly once per executed basic block. Straight-line statements never
// reach it.
type EdgeFunc func(from, to int)

// tempsPool recycles temporaries across runs, so a run allocates nothing.
var tempsPool = sync.Pool{New: func() any { return new([]uint64) }}

// Run executes the program concretely against st. maxSteps bounds the number
// of executed statements (0 means a generous default).
func Run(p *Program, st State, maxSteps int) (Outcome, error) {
	return RunEdges(p, st, maxSteps, nil)
}

// RunEdges is Run with an edge observer for coverage instrumentation. Both
// share one loop; with a nil observer the hook costs one nil check per jump.
func RunEdges(p *Program, st State, maxSteps int, edge EdgeFunc) (Outcome, error) {
	if maxSteps == 0 {
		maxSteps = 1 << 20
	}
	buf := tempsPool.Get().(*[]uint64)
	defer tempsPool.Put(buf)
	if n := len(p.TempWidths); cap(*buf) < n {
		*buf = make([]uint64, n)
	} else {
		// A temp read before it is written reads 0, as in a fresh slice.
		*buf = (*buf)[:n]
		clear(*buf)
	}
	temps := *buf

	pc := 0
	if edge != nil {
		edge(-1, 0)
	}
	for steps := 0; ; steps++ {
		if steps >= maxSteps {
			return Outcome{}, ErrStepLimit
		}
		if pc < 0 || pc >= len(p.Stmts) {
			return Outcome{}, fmt.Errorf("ir: pc %d out of range in %s", pc, p.Name)
		}
		s := &p.Stmts[pc]
		switch s.Kind {
		case KAssign:
			temps[s.Dst] = evalOp(s, temps, p.TempWidths)
		case KMove:
			temps[s.Dst] = val(&s.Args[0], temps)
		case KGet:
			temps[s.Dst] = st.Get(s.Loc) & expr.Mask(s.Loc.Width())
		case KSet:
			st.Set(s.Loc, val(&s.Args[0], temps))
		case KLoad:
			temps[s.Dst] = st.Load(uint32(val(&s.Args[0], temps)), s.Width)
		case KStore:
			st.Store(uint32(val(&s.Args[0], temps)), val(&s.Args[1], temps), s.Width)
		case KCJump:
			if val(&s.Args[0], temps)&1 == 1 {
				if edge != nil {
					edge(pc, int(s.Target))
				}
				pc = int(s.Target)
				continue
			}
			if edge != nil {
				edge(pc, pc+1)
			}
		case KJump:
			if edge != nil {
				edge(pc, int(s.Target))
			}
			pc = int(s.Target)
			continue
		case KRaise:
			out := Outcome{Kind: OutRaise, Vector: s.Vector, HasErr: s.HasErr, Soft: s.Soft}
			if s.HasErr {
				out.ErrCode = uint32(val(&s.Args[0], temps))
			}
			if edge != nil {
				edge(pc, -1)
			}
			return out, nil
		case KEnd:
			if edge != nil {
				edge(pc, -1)
			}
			return Outcome{Kind: OutEnd}, nil
		case KHalt:
			if edge != nil {
				edge(pc, -1)
			}
			return Outcome{Kind: OutHalt}, nil
		default:
			return Outcome{}, fmt.Errorf("ir: unknown stmt kind %d", s.Kind)
		}
		pc++
	}
}

// val reads an operand: its constant, or its temp's current value.
func val(o *Operand, temps []uint64) uint64 {
	if o.IsConst {
		return o.Val
	}
	return temps[o.Temp]
}

// width returns an operand's width in bits.
func width(o *Operand, widths []uint8) uint8 {
	if o.IsConst {
		return o.Width
	}
	return widths[o.Temp]
}

func evalOp(s *Stmt, temps []uint64, widths []uint8) uint64 {
	m := expr.Mask(s.Width)
	a := val(&s.Args[0], temps)
	switch s.EOp {
	case expr.OpNot:
		return ^a & m
	case expr.OpNeg:
		return -a & m
	case expr.OpZExt:
		return a
	case expr.OpSExt:
		return signExtTo64(a, width(&s.Args[0], widths)) & m
	case expr.OpExtract:
		return a >> s.Lo & m
	}
	bw := width(&s.Args[1], widths)
	b := val(&s.Args[1], temps)
	switch s.EOp {
	case expr.OpAnd:
		return a & b
	case expr.OpOr:
		return a | b
	case expr.OpXor:
		return a ^ b
	case expr.OpAdd:
		return (a + b) & m
	case expr.OpSub:
		return (a - b) & m
	case expr.OpMul:
		return (a * b) & m
	case expr.OpUDiv:
		if b == 0 {
			return m
		}
		return a / b
	case expr.OpURem:
		if b == 0 {
			return a
		}
		return a % b
	case expr.OpShl:
		if b >= uint64(s.Width) {
			return 0
		}
		return a << b & m
	case expr.OpLShr:
		if b >= uint64(s.Width) {
			return 0
		}
		return a >> b
	case expr.OpAShr:
		if b >= uint64(s.Width) {
			b = uint64(s.Width) - 1
		}
		return uint64(int64(signExtTo64(a, s.Width))>>b) & m
	case expr.OpEq:
		if a == b {
			return 1
		}
		return 0
	case expr.OpUlt:
		if a < b {
			return 1
		}
		return 0
	case expr.OpSlt:
		aw := width(&s.Args[0], widths)
		if int64(signExtTo64(a, aw)) < int64(signExtTo64(b, bw)) {
			return 1
		}
		return 0
	case expr.OpConcat:
		return (a<<bw | b) & m
	case expr.OpIte:
		if a&1 == 1 {
			return b
		}
		return val(&s.Args[2], temps)
	default:
		panic(fmt.Sprintf("ir: eval of op %s", s.EOp))
	}
}
