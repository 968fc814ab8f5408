// Package lento is the third reference implementation: a naive,
// direct-decode interpreter in the sim86 style. Each step fetches raw bytes,
// decodes them through the shared x86 tables, and executes the instruction
// in straight-line Go — no IR, no translation cache, no lowering.
//
// Independence is the point: lento shares no execution machinery with
// fidelis (the IR evaluator) or celer (the closure lowering), so a bug in
// either of those stacks cannot hide in lento too. It may import only the
// architecture definition (internal/x86), the guest state container
// (internal/machine), and the emulator interface (internal/emu) — DESIGN.md
// §13 records the constraint. With three independent implementations the
// campaign's differential oracle upgrades from "these two differ" to a
// majority vote that pinpoints which implementation is wrong.
//
// Fidelity target: lento implements the architecture the way a careful
// interpreter does — full segment checks, hardware-ordered (atomic)
// instruction commits, accessed-bit write-back, #GP on unknown MSRs, alias
// encodings accepted — with the Bochs-like policy for undefined status
// flags and far-load fetch order. Its observable behavior (event stream and
// final snapshot) must equal fidelis's on every program the harness runs;
// TestLentoDifferential enforces that over the whole 672-handler matrix.
package lento

import (
	"pokeemu/internal/emu"
	"pokeemu/internal/machine"
	"pokeemu/internal/x86"
)

// repBudget bounds one instruction's string-repeat iterations.
const repBudget = 1 << 22

// Emulator is the direct-decode interpreter.
type Emulator struct {
	m     *machine.Machine
	fetch [x86.MaxInstLen]byte // instruction fetch buffer

	// Decoded counts instructions executed.
	Decoded int64
}

// New wraps a machine with the interpreter.
func New(m *machine.Machine) *Emulator { return &Emulator{m: m} }

// Name implements emu.Emulator.
func (e *Emulator) Name() string { return "lento" }

// Machine implements emu.Emulator.
func (e *Emulator) Machine() *machine.Machine { return e.m }

// fault is an exception raised mid-instruction. Execution stops where the
// fault occurred; effects already committed stay committed, exactly like the
// in-order IR evaluation fidelis performs.
type fault struct {
	vec    uint8
	err    uint32
	hasErr bool
}

// exec carries per-instruction interpretation state.
type exec struct {
	m    *machine.Machine
	inst *x86.Inst
	osz  uint8 // operand size in bits (16 or 32)

	halted  bool // hlt executed
	timeout bool // rep iteration budget exhausted
}

// Step implements emu.Emulator: fetch, decode, execute, deliver.
func (e *Emulator) Step() emu.Event {
	m := e.m
	if m.Halted {
		return emu.Event{Kind: emu.EventHalt}
	}

	code, fexc := m.FetchCode(e.fetch[:0], x86.MaxInstLen)
	inst, derr := x86.Decode(code)
	if derr != nil {
		de := derr.(*x86.DecodeError)
		switch {
		case de.Kind == x86.ErrTruncated && fexc != nil:
			// The decoder ran into the faulting byte.
			return e.deliver(fexc)
		case de.Kind == x86.ErrTooLong:
			return e.deliver(&machine.ExceptionInfo{Vector: x86.ExcGP, HasErr: true})
		default:
			return e.deliver(&machine.ExceptionInfo{Vector: x86.ExcUD})
		}
	}
	e.Decoded++

	x := &exec{m: m, inst: inst, osz: uint8(inst.OpSize)}
	f := x.run()
	switch {
	case x.timeout:
		return emu.Event{Kind: emu.EventTimeout}
	case x.halted:
		m.Halted = true
		return emu.Event{Kind: emu.EventHalt}
	case f != nil:
		return e.deliver(&machine.ExceptionInfo{
			Vector: f.vec, ErrCode: f.err, HasErr: f.hasErr,
		})
	}
	return emu.Event{Kind: emu.EventNone}
}

// deliver pushes the exception frame through the IDT. If delivery itself
// faults at any point, the machine shuts down (triple-fault analogue);
// whatever delivery had already committed stays, matching the in-order
// evaluation of the compiled delivery program.
func (e *Emulator) deliver(exc *machine.ExceptionInfo) emu.Event {
	x := &exec{m: e.m, osz: 32}
	if f := x.deliverThroughIDT(exc); f != nil {
		e.m.Halted = true
		return emu.Event{Kind: emu.EventShutdown, Exception: exc}
	}
	return emu.Event{Kind: emu.EventException, Exception: exc}
}

// deliverThroughIDT performs the IDT dispatch: gate fetch and validation,
// the EFLAGS/CS/EIP (+ error code) pushes, flag clearing, and the CS:EIP
// load. Any fault (including an out-of-range or malformed gate, mapped to
// #DF by the reference semantics) aborts delivery.
func (x *exec) deliverThroughIDT(exc *machine.ExceptionInfo) *fault {
	m := x.m
	df := &fault{vec: x86.ExcDF}

	if uint32(exc.Vector)*8+7 > m.IDTRLimit {
		return df
	}
	gateLin := m.IDTRBase + uint32(exc.Vector)*8
	lo, f := x.readLin(gateLin, 4)
	if f != nil {
		return f
	}
	hi, f := x.readLin(gateLin+4, 4)
	if f != nil {
		return f
	}
	if hi>>15&1 == 0 { // present
		return df
	}
	gtype := hi >> 8 & 0xf
	if gtype != 0xe && gtype != 0xf {
		return df
	}

	if f := x.push32(uint64(x.packEFLAGS())); f != nil {
		return f
	}
	if f := x.push32(uint64(m.Seg[x86.CS].Sel)); f != nil {
		return f
	}
	if f := x.push32(uint64(m.EIP)); f != nil {
		return f
	}
	if exc.HasErr {
		if f := x.push32(uint64(exc.ErrCode)); f != nil {
			return f
		}
	}

	for _, bit := range []uint8{x86.FlagTF, x86.FlagNT, x86.FlagVM, x86.FlagRF} {
		x.setFlag(bit, 0)
	}
	if gtype == 0xe { // interrupt gate clears IF
		x.setFlag(x86.FlagIF, 0)
	}

	sel := uint16(lo >> 16)
	if f := x.loadSegment(x86.CS, sel, true); f != nil {
		return f
	}
	m.EIP = uint32(lo&0xffff | hi&0xffff0000)
	return nil
}

// run executes the decoded instruction, dispatching on the handler name the
// same way the semantics compiler does. It returns the fault to deliver, or
// nil when the instruction completed (EIP already advanced).
func (x *exec) run() *fault {
	in := x.inst
	// LOCK prefix legality: only on the architected read-modify-write forms,
	// and only with a memory destination.
	if in.Lock && (!in.Spec.LockOK || in.IsRegForm() || !in.HasModRM) {
		return &fault{vec: x86.ExcUD}
	}
	name := in.Spec.Name
	if f, ok := x.execALU(name); ok {
		return f
	}
	if f, ok := x.execMovLea(name); ok {
		return f
	}
	if f, ok := x.execStack(name); ok {
		return f
	}
	if f, ok := x.execFlow(name); ok {
		return f
	}
	if f, ok := x.execSystem(name); ok {
		return f
	}
	if f, ok := x.execString(name); ok {
		return f
	}
	if f, ok := x.execBitOps(name); ok {
		return f
	}
	panic("lento: no semantics for handler " + name)
}

// done advances EIP past the instruction; call it only on fault-free paths.
func (x *exec) done() {
	x.m.EIP += uint32(x.inst.Len)
}
