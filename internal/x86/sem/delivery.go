package sem

import (
	"slices"
	"sync"

	"pokeemu/internal/ir"
	"pokeemu/internal/x86"
)

// deliveryMemoCap bounds the delivery memo. A campaign touches on the order
// of a hundred keys (vectors × the handful of error codes each raises); a
// run that keeps minting fresh error codes resets the memo instead of
// growing it.
const deliveryMemoCap = 256

// deliveryKey is everything a delivery body depends on. The error code only
// matters when it is pushed, so it is zeroed for vectors without one.
type deliveryKey struct {
	vector  uint8
	hasErr  bool
	errCode uint32
	cfg     Config
}

// deliveryMemo caches compiled delivery bodies process-wide. Delivery is a
// pure function of its key — it reads no guest bytes — and Programs are
// immutable after Build (ir.Run and ir.RunEdges only read them), so every
// emulator and guest can share one body per key.
var deliveryMemo struct {
	mu    sync.Mutex
	progs map[deliveryKey]*ir.Program
}

// CompileDelivery returns the IR program that delivers exception or
// software interrupt `vector` through the IDT: gate fetch and validation,
// the EFLAGS/CS/EIP (+ error code) pushes, flag clearing, and the CS:EIP
// load. A Raise outcome from this program means delivery itself failed,
// which the harness reports as a shutdown (the triple-fault analogue).
//
// Bodies are memoized per key (see deliveryMemo): callers get a shared
// program they must not modify, statement-for-statement identical to a
// fresh compile.
//
// Symbolic exploration never executes delivery: instruction paths end at the
// raise, exactly as in the paper (Section 3.3).
func CompileDelivery(vector uint8, errCode uint32, hasErr bool, cfg Config) *ir.Program {
	if !hasErr {
		errCode = 0
	}
	k := deliveryKey{vector: vector, hasErr: hasErr, errCode: errCode, cfg: cfg}
	deliveryMemo.mu.Lock()
	p, ok := deliveryMemo.progs[k]
	deliveryMemo.mu.Unlock()
	if ok {
		return p
	}
	// Compile outside the lock; when two callers race on one key, the first
	// insert wins so every caller ends up holding the same pointer.
	p = compileDelivery(vector, errCode, hasErr, cfg)
	deliveryMemo.mu.Lock()
	defer deliveryMemo.mu.Unlock()
	if q, ok := deliveryMemo.progs[k]; ok {
		return q
	}
	if deliveryMemo.progs == nil || len(deliveryMemo.progs) >= deliveryMemoCap {
		deliveryMemo.progs = make(map[deliveryKey]*ir.Program)
	}
	// The body outlives this call, so drop the builder's append slack.
	p.Stmts = slices.Clone(p.Stmts)
	deliveryMemo.progs[k] = p
	return p
}

// compileDelivery builds a delivery body from scratch, bypassing the memo.
func compileDelivery(vector uint8, errCode uint32, hasErr bool, cfg Config) *ir.Program {
	b := ir.NewBuilder("deliver")
	c := &ctx{b: b, cfg: cfg, osz: 32, inst: &x86.Inst{OpSize: 32}}

	fail := b.NewLabel()

	// Gate must lie inside the IDT limit.
	idtLimit := b.Get(x86.Loc{Kind: x86.LocIDTRLimit})
	end := c.konst(32, uint64(vector)*8+7)
	b.CJump(b.Ugt(end, idtLimit), fail)

	idtBase := b.Get(x86.Loc{Kind: x86.LocIDTRBase})
	gateLin := b.Add(idtBase, c.konst(32, uint64(vector)*8))
	lo := c.readLin(gateLin, 4)
	hi := c.readLin(b.Add(gateLin, c.konst(32, 4)), 4)

	// Present, and a 32-bit interrupt (0xE) or trap (0xF) gate.
	b.CJump(b.Not(b.Extract(hi, 15, 1)), fail)
	gtype := b.Extract(hi, 8, 4)
	isInt := b.Eq(gtype, c.konst(4, 0xe))
	isTrap := b.Eq(gtype, c.konst(4, 0xf))
	b.CJump(b.Not(b.Or(isInt, isTrap)), fail)

	// Push the interrupted context.
	c.push32(c.packEFLAGS())
	c.push32(b.ZExt(b.Get(x86.SegSel(x86.CS)), 32))
	c.push32(b.Get(x86.EIPLoc))
	if hasErr {
		c.push32(c.konst(32, uint64(errCode)))
	}

	// TF, NT, VM, RF always clear; IF clears for interrupt gates.
	for _, f := range []uint8{x86.FlagTF, x86.FlagNT, x86.FlagVM, x86.FlagRF} {
		c.setFlag(f, c.konst(1, 0))
	}
	oldIF := c.getFlag(x86.FlagIF)
	c.setFlag(x86.FlagIF, b.Ite(isInt, c.konst(1, 0), oldIF))

	// Target code segment and entry point.
	sel := b.Extract(lo, 16, 16)
	c.loadSegment(x86.CS, sel, true)
	offset := b.Or(b.And(lo, c.konst(32, 0xffff)), b.And(hi, c.konst(32, 0xffff0000)))
	b.Set(x86.EIPLoc, offset)
	b.End()

	b.Bind(fail)
	b.RaiseNoErr(x86.ExcDF)
	return b.Build()
}

// DescriptorParsePorts names the GPR locations the standalone parse program
// uses as its input/output ports. The program form lets the summarization
// machinery (internal/symex) explore the parse once, in isolation, and
// substitute the resulting formula wherever a descriptor cache is derived
// from symbolic GDT bytes — the Section 3.3.2 optimization.
var DescriptorParsePorts = struct {
	Lo, Hi, Sel       x86.Loc // inputs: raw descriptor words and selector
	Base, Limit, Attr x86.Loc // outputs: cache fields
}{
	Lo:    x86.GPR(x86.EAX),
	Hi:    x86.GPR(x86.EDX),
	Sel:   x86.GPR(x86.ECX),
	Base:  x86.GPR(x86.EBX),
	Limit: x86.GPR(x86.ESI),
	Attr:  x86.GPR(x86.EDI),
}

// DescriptorParseProgram builds a standalone program computing the
// descriptor-cache fields from raw descriptor words, with all the
// validation branching of a data-segment load (for segment register sr
// semantics). Fault paths end in the matching Raise.
func DescriptorParseProgram(forSS bool) *ir.Program {
	b := ir.NewBuilder("descparse")
	c := &ctx{b: b, cfg: HardwareConfig, osz: 32, inst: &x86.Inst{OpSize: 32}}
	p := DescriptorParsePorts

	lo := b.Get(p.Lo)
	hi := b.Get(p.Hi)
	sel := b.Extract(b.Get(p.Sel), 0, 16)
	gpSel := b.NewLabel()
	np := b.NewLabel()

	kind := loadData
	if forSS {
		kind = loadSS
	}
	base, limit, attr := c.parseDescriptor(lo, hi, sel, kind, gpSel, np)

	b.Set(p.Base, base)
	b.Set(p.Limit, limit)
	b.Set(p.Attr, b.ZExt(attr, 32))
	b.End()

	b.Bind(gpSel)
	b.Raise(x86.ExcGP, b.ZExt(b.And(sel, c.konst(16, 0xfffc)), 32))
	b.Bind(np)
	vec := uint8(x86.ExcNP)
	if forSS {
		vec = x86.ExcSS
	}
	b.Raise(vec, b.ZExt(b.And(sel, c.konst(16, 0xfffc)), 32))
	return b.Build()
}
