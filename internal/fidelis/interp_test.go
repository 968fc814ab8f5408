package fidelis_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"pokeemu/internal/core"
	"pokeemu/internal/expr"
	"pokeemu/internal/ir"
	"pokeemu/internal/machine"
	"pokeemu/internal/x86"
	"pokeemu/internal/x86/sem"
)

// The reference interpreter below is the closure-based pair of loops that
// ir.Run and ir.RunEdges replaced: a fresh temps slice per run, operands
// read through val/widthOf closures, and a separate copy of the loop for
// coverage. The single pooled loop must match it statement for statement.

func refSignExt(v uint64, w uint8) uint64 {
	if w >= 64 || v&(uint64(1)<<(w-1)) == 0 {
		return v
	}
	return v | ^expr.Mask(w)
}

func refRun(p *ir.Program, st ir.State, maxSteps int) (ir.Outcome, error) {
	if maxSteps == 0 {
		maxSteps = 1 << 20
	}
	temps := make([]uint64, len(p.TempWidths))
	val := func(o ir.Operand) uint64 {
		if o.IsConst {
			return o.Val
		}
		return temps[o.Temp]
	}
	widthOf := func(o ir.Operand) uint8 {
		if o.IsConst {
			return o.Width
		}
		return p.TempWidths[o.Temp]
	}

	pc := 0
	for steps := 0; ; steps++ {
		if steps >= maxSteps {
			return ir.Outcome{}, ir.ErrStepLimit
		}
		if pc < 0 || pc >= len(p.Stmts) {
			return ir.Outcome{}, fmt.Errorf("ir: pc %d out of range in %s", pc, p.Name)
		}
		s := &p.Stmts[pc]
		switch s.Kind {
		case ir.KAssign:
			temps[s.Dst] = refEvalOp(s, val, widthOf)
		case ir.KMove:
			temps[s.Dst] = val(s.Args[0])
		case ir.KGet:
			temps[s.Dst] = st.Get(s.Loc) & expr.Mask(s.Loc.Width())
		case ir.KSet:
			st.Set(s.Loc, val(s.Args[0]))
		case ir.KLoad:
			temps[s.Dst] = st.Load(uint32(val(s.Args[0])), s.Width)
		case ir.KStore:
			st.Store(uint32(val(s.Args[0])), val(s.Args[1]), s.Width)
		case ir.KCJump:
			if val(s.Args[0])&1 == 1 {
				pc = int(s.Target)
				continue
			}
		case ir.KJump:
			pc = int(s.Target)
			continue
		case ir.KRaise:
			out := ir.Outcome{Kind: ir.OutRaise, Vector: s.Vector, HasErr: s.HasErr, Soft: s.Soft}
			if s.HasErr {
				out.ErrCode = uint32(val(s.Args[0]))
			}
			return out, nil
		case ir.KEnd:
			return ir.Outcome{Kind: ir.OutEnd}, nil
		case ir.KHalt:
			return ir.Outcome{Kind: ir.OutHalt}, nil
		default:
			return ir.Outcome{}, fmt.Errorf("ir: unknown stmt kind %d", s.Kind)
		}
		pc++
	}
}

func refRunEdges(p *ir.Program, st ir.State, maxSteps int, edge ir.EdgeFunc) (ir.Outcome, error) {
	if edge == nil {
		return refRun(p, st, maxSteps)
	}
	if maxSteps == 0 {
		maxSteps = 1 << 20
	}
	temps := make([]uint64, len(p.TempWidths))
	val := func(o ir.Operand) uint64 {
		if o.IsConst {
			return o.Val
		}
		return temps[o.Temp]
	}
	widthOf := func(o ir.Operand) uint8 {
		if o.IsConst {
			return o.Width
		}
		return p.TempWidths[o.Temp]
	}

	pc := 0
	edge(-1, 0)
	for steps := 0; ; steps++ {
		if steps >= maxSteps {
			return ir.Outcome{}, ir.ErrStepLimit
		}
		if pc < 0 || pc >= len(p.Stmts) {
			return ir.Outcome{}, fmt.Errorf("ir: pc %d out of range in %s", pc, p.Name)
		}
		s := &p.Stmts[pc]
		switch s.Kind {
		case ir.KAssign:
			temps[s.Dst] = refEvalOp(s, val, widthOf)
		case ir.KMove:
			temps[s.Dst] = val(s.Args[0])
		case ir.KGet:
			temps[s.Dst] = st.Get(s.Loc) & expr.Mask(s.Loc.Width())
		case ir.KSet:
			st.Set(s.Loc, val(s.Args[0]))
		case ir.KLoad:
			temps[s.Dst] = st.Load(uint32(val(s.Args[0])), s.Width)
		case ir.KStore:
			st.Store(uint32(val(s.Args[0])), val(s.Args[1]), s.Width)
		case ir.KCJump:
			if val(s.Args[0])&1 == 1 {
				edge(pc, int(s.Target))
				pc = int(s.Target)
				continue
			}
			edge(pc, pc+1)
		case ir.KJump:
			edge(pc, int(s.Target))
			pc = int(s.Target)
			continue
		case ir.KRaise:
			out := ir.Outcome{Kind: ir.OutRaise, Vector: s.Vector, HasErr: s.HasErr, Soft: s.Soft}
			if s.HasErr {
				out.ErrCode = uint32(val(s.Args[0]))
			}
			edge(pc, -1)
			return out, nil
		case ir.KEnd:
			edge(pc, -1)
			return ir.Outcome{Kind: ir.OutEnd}, nil
		case ir.KHalt:
			edge(pc, -1)
			return ir.Outcome{Kind: ir.OutHalt}, nil
		default:
			return ir.Outcome{}, fmt.Errorf("ir: unknown stmt kind %d", s.Kind)
		}
		pc++
	}
}

func refEvalOp(s *ir.Stmt, val func(ir.Operand) uint64, widthOf func(ir.Operand) uint8) uint64 {
	m := expr.Mask(s.Width)
	a := val(s.Args[0])
	switch s.EOp {
	case expr.OpNot:
		return ^a & m
	case expr.OpNeg:
		return -a & m
	case expr.OpZExt:
		return a
	case expr.OpSExt:
		return refSignExt(a, widthOf(s.Args[0])) & m
	case expr.OpExtract:
		return a >> s.Lo & m
	}
	bw := widthOf(s.Args[1])
	b := val(s.Args[1])
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
		return uint64(int64(refSignExt(a, s.Width))>>b) & m
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
		aw := widthOf(s.Args[0])
		if int64(refSignExt(a, aw)) < int64(refSignExt(b, bw)) {
			return 1
		}
		return 0
	case expr.OpConcat:
		return (a<<bw | b) & m
	case expr.OpIte:
		if a&1 == 1 {
			return val(s.Args[1])
		}
		return val(s.Args[2])
	default:
		panic(fmt.Sprintf("ir: eval of op %s", s.EOp))
	}
}

// interpSteps is the step budget of a run on seeded state seed: every
// fourth run gets a budget of a few dozen statements, so the step-limit
// exit is compared too; the rest get the default.
func interpSteps(seed int64) int {
	if seed%4 == 3 {
		return 1 + int(seed/4%48)
	}
	return 0
}

// interpSeeds is the number of seeded machine states per body.
const interpSeeds = 3

// compiledBodies returns every instruction-set handler compiled under both
// configurations, the delivery bodies of TestCompileGolden (every
// architectural vector plus two software-interrupt vectors, with and
// without error codes) and the two descriptor-parse programs.
var compiledBodies = sync.OnceValue(func() []*ir.Program {
	var progs []*ir.Program
	unique := core.ExploreInstructionSet().Unique
	for _, cfg := range []sem.Config{sem.BochsConfig, sem.HardwareConfig} {
		for _, u := range unique {
			inst, err := x86.Decode(u.Repr)
			if err != nil {
				panic(fmt.Sprintf("%s: %v", u.Key(), err))
			}
			progs = append(progs, sem.Compile(inst, cfg))
		}
		for v := 0; v < 34; v++ {
			vec := uint8(v)
			if v >= 32 {
				vec = []uint8{0x80, 0xff}[v-32]
			}
			progs = append(progs, sem.CompileDelivery(vec, 0, false, cfg))
			for _, ec := range []uint32{0, 0x1b} {
				progs = append(progs, sem.CompileDelivery(vec, ec, true, cfg))
			}
		}
	}
	return append(progs, sem.DescriptorParseProgram(false), sem.DescriptorParseProgram(true))
})

var interpImage = sync.OnceValue(machine.BaselineImage)

// randWord picks a register value: random, small, or near a page end.
func randWord(r *rand.Rand) uint32 {
	switch r.Intn(3) {
	case 0:
		return r.Uint32()
	case 1:
		return uint32(r.Intn(64))
	default:
		return uint32(r.Intn(1024))<<12 | uint32(0x1000-1-r.Intn(8))
	}
}

// seededMachine returns machine state number seed: the baseline with
// random general registers and arithmetic flags; seed%3 == 1 also writes
// random bytes where the registers point, and seed%3 == 2 also shrinks the
// data segment limits and the IDT limit and moves the stack pointer.
func seededMachine(seed int64) *machine.Machine {
	r := rand.New(rand.NewSource(seed))
	m := machine.NewBaseline(interpImage())
	for i := range m.GPR {
		if i != int(x86.ESP) {
			m.GPR[i] = randWord(r)
		}
	}
	const arith = 1<<x86.FlagCF | 1<<x86.FlagPF | 1<<x86.FlagAF | 1<<x86.FlagZF |
		1<<x86.FlagSF | 1<<x86.FlagDF | 1<<x86.FlagOF
	m.EFLAGS ^= r.Uint32() & arith
	switch seed % 3 {
	case 1:
		for _, g := range m.GPR {
			for i := uint32(0); i < 16; i++ {
				m.Mem.Write8(g+i, byte(r.Intn(256)))
			}
		}
	case 2:
		for _, sr := range []x86.SegReg{x86.DS, x86.ES, x86.SS} {
			m.Seg[sr].Limit = uint32(r.Intn(1 << 16))
		}
		m.IDTRLimit = uint32(r.Intn(256))
		m.GPR[x86.ESP] = randWord(r)
	}
	return m
}

// interpResult is everything one run leaves behind.
type interpResult struct {
	out   ir.Outcome
	err   string
	cpu   machine.CPU
	mem   *machine.Memory
	edges []int
}

// interpRun runs p on seeded state seed through run, or through runEdges
// (recording every edge) when runEdges is set.
func interpRun(p *ir.Program, seed int64,
	run func(*ir.Program, ir.State, int) (ir.Outcome, error),
	runEdges func(*ir.Program, ir.State, int, ir.EdgeFunc) (ir.Outcome, error)) interpResult {
	m := seededMachine(seed)
	var res interpResult
	var err error
	if runEdges != nil {
		res.out, err = runEdges(p, m, interpSteps(seed), func(from, to int) {
			res.edges = append(res.edges, from, to)
		})
	} else {
		res.out, err = run(p, m, interpSteps(seed))
	}
	if err != nil {
		res.err = err.Error()
	}
	res.cpu, res.mem = m.CPU, m.Mem
	return res
}

// interpDiff describes how got differs from want, or returns "".
func interpDiff(got, want interpResult) string {
	switch {
	case got.out != want.out:
		return fmt.Sprintf("outcome %v, reference %v", got.out, want.out)
	case got.err != want.err:
		return fmt.Sprintf("error %q, reference %q", got.err, want.err)
	case got.cpu != want.cpu:
		return fmt.Sprintf("CPU\n%+v\nreference\n%+v", got.cpu, want.cpu)
	case len(got.edges) != len(want.edges):
		return fmt.Sprintf("%d edge endpoints, reference %d", len(got.edges), len(want.edges))
	}
	for i := range want.edges {
		if got.edges[i] != want.edges[i] {
			return fmt.Sprintf("edge endpoint %d is %d, reference %d", i, got.edges[i], want.edges[i])
		}
	}
	image := interpImage()
	gt, wt := got.mem.Touched(image), want.mem.Touched(image)
	if len(gt) != len(wt) {
		return fmt.Sprintf("%d pages touched, reference %d", len(gt), len(wt))
	}
	for pn := range wt {
		if !gt[pn] || !bytes.Equal(got.mem.ReadPage(pn), want.mem.ReadPage(pn)) {
			return fmt.Sprintf("page %#x differs", pn)
		}
	}
	return ""
}

// TestInterpreterMatchesReference runs every compiled body on seeded
// machine states through ir.Run and ir.RunEdges and through the reference
// loops: outcome, error, final CPU, final memory and the edge sequence must
// be equal.
func TestInterpreterMatchesReference(t *testing.T) {
	progs := compiledBodies()
	var raised, stepLimited int
	for i, p := range progs {
		for s := int64(0); s < interpSeeds; s++ {
			seed := int64(i)*interpSeeds + s
			want := interpRun(p, seed, refRun, nil)
			if d := interpDiff(interpRun(p, seed, ir.Run, nil), want); d != "" {
				t.Fatalf("%s seed %d: ir.Run: %s", p.Name, seed, d)
			}
			wantEdges := interpRun(p, seed, nil, refRunEdges)
			if d := interpDiff(interpRun(p, seed, nil, ir.RunEdges), wantEdges); d != "" {
				t.Fatalf("%s seed %d: ir.RunEdges: %s", p.Name, seed, d)
			}
			if want.out.Kind == ir.OutRaise {
				raised++
			}
			if want.err != "" {
				stepLimited++
			}
		}
	}
	// The seeded states must reach fault, completion and step-limit exits.
	n := len(progs) * interpSeeds
	t.Logf("%d runs: %d raised, %d hit the step limit", n, raised, stepLimited)
	if raised == 0 || raised+stepLimited == n || stepLimited == 0 {
		t.Error("the seeded states miss an exit kind")
	}
}

// TestInterpreterConcurrent runs bodies from several goroutines at once
// (for the race detector): pooled temps must never be shared between
// concurrent runs.
func TestInterpreterConcurrent(t *testing.T) {
	all := compiledBodies()
	var progs []*ir.Program
	for i := 0; i < len(all); i += 13 {
		progs = append(progs, all[i])
	}
	wantRun := make([]interpResult, len(progs))
	wantEdges := make([]interpResult, len(progs))
	for i, p := range progs {
		wantRun[i] = interpRun(p, int64(i), refRun, nil)
		wantEdges[i] = interpRun(p, int64(i), nil, refRunEdges)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range progs {
				i := (k + g*len(progs)/4) % len(progs)
				var got, want interpResult
				if (i+g)%2 == 0 {
					got, want = interpRun(progs[i], int64(i), ir.Run, nil), wantRun[i]
				} else {
					got, want = interpRun(progs[i], int64(i), nil, ir.RunEdges), wantEdges[i]
				}
				if d := interpDiff(got, want); d != "" {
					t.Errorf("goroutine %d, %s: %s", g, progs[i].Name, d)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
