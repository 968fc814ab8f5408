package celer

import (
	"pokeemu/internal/emu"
	"pokeemu/internal/x86"
)

// chainSlots sizes the guest-local direct-mapped dispatch table. Must be a
// power of two.
const chainSlots = 512

// chainEntry is one node of the guest-local dispatch chain: a translation
// pinned to the eip and state it was installed under, plus the raw bytes
// for revalidation and a fall-through link to its straight-line successor.
// The raw-byte compare on every dispatch makes the entry self-validating:
// self-modifying code or a remap at the same eip misses and re-translates.
type chainEntry struct {
	eip   uint32
	state byte
	raw   string
	tb    *TB
	next  *chainEntry
}

func entMatches(c *chainEntry, eip uint32, st byte, code []byte) bool {
	return c.eip == eip && c.state == st && c.raw == string(code)
}

// Step implements emu.Emulator with direct dispatch. The common case
// touches no shared state: the previous entry's fall-through link (or the
// guest-local table) predicts the next translation, the raw fetched bytes
// revalidate it, and the pre-lowered closure runs. Only a prediction miss
// re-enters the shared-cache dispatcher. Instruction fetch still happens
// every step, so paging faults and accessed-bit maintenance keep their
// timing.
func (e *Emulator) Step() emu.Event {
	m := e.m
	if m.Halted {
		return emu.Event{Kind: emu.EventHalt}
	}
	code, fexc := m.FetchCode(e.fetch[:0], x86.MaxInstLen)
	st := transState(m)
	eip := m.EIP

	var ent *chainEntry
	if p := e.lastEnt; p != nil && p.next != nil && entMatches(p.next, eip, st, code) {
		ent = p.next
	} else if c := e.chain[eip&(chainSlots-1)]; c != nil && entMatches(c, eip, st, code) {
		ent = c
	}
	if ent == nil {
		tb, f := e.translateTB(code, st, fexc)
		if f != nil {
			e.lastEnt = nil
			return e.deliver(f)
		}
		ent = &chainEntry{eip: eip, state: st, raw: string(code), tb: tb}
		e.chain[eip&(chainSlots-1)] = ent
	}
	// Chain straight-line predecessors: if the previous step fell through
	// to this entry, link it so hot loops skip the table lookup entirely.
	if p := e.lastEnt; p != nil && p.next != ent &&
		eip == p.eip+uint32(p.tb.inst.Len) {
		p.next = ent
	}

	f := ent.tb.op(e)
	if f != nil {
		e.lastEnt = nil
		return e.finishStep(f)
	}
	e.lastEnt = ent
	return emu.Event{Kind: emu.EventNone}
}
