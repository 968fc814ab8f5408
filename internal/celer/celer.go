// Package celer is the low-fidelity emulator under test (the QEMU
// analogue). It is an independent implementation: instructions are
// translated once into closures and cached in a translation-block cache
// shared across guest instances (the DBT flavor), semantics are direct Go
// rather than the IR the Hi-Fi emulator executes, and it carries the bug
// classes the paper reports finding in QEMU:
//
//  1. Segment limits and rights are not enforced on ordinary data accesses
//     (only the base is applied) — the missing-security-feature finding.
//  2. leave is not atomic: ESP is updated before the stack read is checked,
//     so a fault corrupts ESP. Cross-page stores can also complete
//     partially before a fault on the second page.
//  3. cmpxchg updates the accumulator and flags before write permission is
//     checked on a memory destination.
//  4. iret pops outermost-to-innermost (EFLAGS, CS, EIP) — observable
//     through accessed bits and fault ordering across a page boundary.
//  5. rdmsr of an invalid MSR returns zero instead of raising #GP.
//  6. The descriptor "accessed" bit is never written back on segment loads.
//  7. Alias encodings (opcode 0x82, grp3 /1) are rejected with #UD, while
//     the undefined grp2 /6 encoding is accepted as shl.
//  8. Architecturally-undefined status flags are left unchanged where the
//     references compute or zero them.
package celer

import (
	"sync"

	"pokeemu/internal/emu"
	"pokeemu/internal/machine"
	"pokeemu/internal/x86"
)

// fault is an in-flight exception.
type fault struct {
	vec    uint8
	err    uint32
	hasErr bool
	soft   bool
}

func gp(err uint32) *fault { return &fault{vec: x86.ExcGP, err: err, hasErr: true} }

// opFunc executes one translated instruction; nil means completed.
type opFunc func(e *Emulator) *fault

// TB is a cached translation: the decoded instruction plus its executable,
// lowered once at translation time.
type TB struct {
	inst *x86.Inst
	op   opFunc
}

// Cache is the translation-block cache, shared across guests created from
// the same Cache (the persistent structure a DBT keeps between runs). It is
// safe for concurrent guests.
type Cache struct {
	mu   sync.Mutex
	tbs  map[string]*TB
	Hits int64
	Miss int64
}

// NewCache returns an empty translation cache.
func NewCache() *Cache { return &Cache{tbs: make(map[string]*TB)} }

// lookup finds the translation under key without allocating; only insert
// copies a key into the map.
func (c *Cache) lookup(key []byte) (*TB, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	tb, ok := c.tbs[string(key)]
	if ok {
		c.Hits++
	} else {
		c.Miss++
	}
	return tb, ok
}

func (c *Cache) insert(key []byte, tb *TB) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tbs[string(key)] = tb
}

// Emulator is one guest instance of the Lo-Fi emulator.
type Emulator struct {
	m     *machine.Machine
	cache *Cache

	// Guest-local direct-dispatch chain (dispatch.go). The shared Cache
	// stays the source of truth; these are per-guest prediction structures.
	chain   [chainSlots]*chainEntry
	lastEnt *chainEntry

	fetch [x86.MaxInstLen]byte     // instruction fetch buffer
	key   [x86.MaxInstLen + 1]byte // translation-cache key buffer (tbKey)
}

// New creates a guest with a private translation cache.
func New(m *machine.Machine) *Emulator { return NewWithCache(m, NewCache()) }

// NewWithCache creates a guest sharing a translation cache.
func NewWithCache(m *machine.Machine, c *Cache) *Emulator {
	return &Emulator{m: m, cache: c}
}

// Name implements emu.Emulator.
func (e *Emulator) Name() string { return "celer" }

// Machine implements emu.Emulator.
func (e *Emulator) Machine() *machine.Machine { return e.m }

// decode applies celer's own encoding acceptance rules on top of the byte
// parser: alias encodings are rejected, and grp2 /6 is accepted as shl.
func (e *Emulator) decode(code []byte) (*x86.Inst, error) {
	inst, err := x86.Decode(code)
	if err != nil {
		if de, ok := err.(*x86.DecodeError); ok && de.Kind == x86.ErrUndefined {
			if patched := decodeGrp2Slot6(code); patched != nil {
				return patched, nil
			}
		}
		return nil, err
	}
	if inst.Spec.AliasEnc {
		return nil, &x86.DecodeError{Kind: x86.ErrUndefined}
	}
	return inst, nil
}

// decodeGrp2Slot6 accepts the undefined /6 slot of the shift group as shl
// (the "accepts invalid encodings" side of finding 7). It rewrites the reg
// field to /4 and re-parses.
func decodeGrp2Slot6(code []byte) *x86.Inst {
	// Find the opcode position past any prefixes.
	i := 0
	for i < len(code) && i < x86.MaxInstLen {
		switch code[i] {
		case 0x26, 0x2e, 0x36, 0x3e, 0x64, 0x65, 0x66, 0xf0, 0xf2, 0xf3:
			i++
			continue
		}
		break
	}
	if i+1 >= len(code) {
		return nil
	}
	switch code[i] {
	case 0xc0, 0xc1, 0xd0, 0xd1, 0xd2, 0xd3:
	default:
		return nil
	}
	if code[i+1]>>3&7 != 6 {
		return nil
	}
	patched := append([]byte(nil), code...)
	patched[i+1] = patched[i+1]&^0x38 | 4<<3 // /6 → /4 (shl)
	inst, err := x86.Decode(patched)
	if err != nil {
		return nil
	}
	inst.Raw = append([]byte(nil), code[:inst.Len]...) // report original bytes
	return inst
}

// transState captures the machine state a translation depends on beyond
// the raw code bytes: the effective operand-size default (CS.D) and the
// CPU mode (CR0.PE). The same bytes under a different state must hit a
// different cache slot — keying by bytes alone aliased them.
func transState(m *machine.Machine) byte {
	var st byte
	if m.Seg[x86.CS].Attr&x86.AttrDB != 0 {
		st |= 1
	}
	if m.CR0&1 != 0 {
		st |= 2
	}
	return st
}

// tbKey builds the translation-cache key in dst's storage: the raw bytes
// plus the state byte they were decoded under.
func tbKey(dst, code []byte, st byte) []byte {
	return append(append(dst[:0], code...), st)
}

// translateTB resolves one instruction to a TB through the shared cache,
// translating on a miss. Decode failures are mapped to the fault the
// architecture would raise; fexc is the pending fetch fault when the code
// bytes were truncated by it.
func (e *Emulator) translateTB(code []byte, st byte, fexc *machine.ExceptionInfo) (*TB, *fault) {
	key := tbKey(e.key[:0], code, st)
	if tb, ok := e.cache.lookup(key); ok {
		return tb, nil
	}
	inst, err := e.decode(code)
	if err != nil {
		de, isDE := err.(*x86.DecodeError)
		switch {
		case isDE && de.Kind == x86.ErrTruncated && fexc != nil:
			return nil, &fault{vec: fexc.Vector, err: fexc.ErrCode, hasErr: fexc.HasErr}
		case isDE && de.Kind == x86.ErrTooLong:
			return nil, gp(0)
		default:
			return nil, &fault{vec: x86.ExcUD}
		}
	}
	tb := &TB{inst: inst, op: translate(inst)}
	e.cache.insert(key, tb)
	return tb, nil
}

// finishStep maps the executable's fault result to the step event.
func (e *Emulator) finishStep(f *fault) emu.Event {
	if f != nil {
		if f.vec == vecHalt {
			e.m.Halted = true
			return emu.Event{Kind: emu.EventHalt}
		}
		if f.vec == vecTimeout {
			return emu.Event{Kind: emu.EventTimeout}
		}
		return e.deliver(f)
	}
	return emu.Event{Kind: emu.EventNone}
}

// Pseudo-vectors used internally by translated code.
const (
	vecHalt    = 0xfe
	vecTimeout = 0xfd
)

// deliver implements celer's own IDT dispatch. The push order and flag
// handling match the architecture; the CS reload skips the accessed-bit
// write-back as everywhere else in celer.
func (e *Emulator) deliver(f *fault) emu.Event {
	m := e.m
	info := &machine.ExceptionInfo{Vector: f.vec, ErrCode: f.err, HasErr: f.hasErr}
	shutdown := func() emu.Event {
		m.Halted = true
		return emu.Event{Kind: emu.EventShutdown, Exception: info}
	}
	if uint32(f.vec)*8+7 > m.IDTRLimit {
		return shutdown()
	}
	gateLin := m.IDTRBase + uint32(f.vec)*8
	lo, ff := e.readLin(gateLin, 4)
	if ff != nil {
		return shutdown()
	}
	hi, ff := e.readLin(gateLin+4, 4)
	if ff != nil {
		return shutdown()
	}
	if hi>>15&1 == 0 {
		return shutdown()
	}
	gtype := hi >> 8 & 0xf
	if gtype != 0xe && gtype != 0xf {
		return shutdown()
	}
	if ff := e.push32(uint32(m.EFLAGS) & ^uint32(0) | x86.EflagsFixed1); ff != nil {
		return shutdown()
	}
	if ff := e.push32(uint32(m.Seg[x86.CS].Sel)); ff != nil {
		return shutdown()
	}
	if ff := e.push32(m.EIP); ff != nil {
		return shutdown()
	}
	if f.hasErr {
		if ff := e.push32(f.err); ff != nil {
			return shutdown()
		}
	}
	m.EFLAGS &^= 1<<x86.FlagTF | 1<<x86.FlagNT | 1<<x86.FlagVM | 1<<x86.FlagRF
	if gtype == 0xe {
		m.EFLAGS &^= 1 << x86.FlagIF
	}
	if ff := e.loadSeg(x86.CS, uint16(uint64(lo)>>16), true); ff != nil {
		return shutdown()
	}
	m.EIP = lo&0xffff | hi&0xffff0000
	return emu.Event{Kind: emu.EventException, Exception: info}
}
