package celer

import (
	"pokeemu/internal/emu"
	"pokeemu/internal/x86"
)

// refEmulator is the reference dispatcher Step must match exactly: every
// step fetches, resolves the translation through the shared cache (no
// guest-local chain, no prediction) and re-lowers the decoded instruction
// before running it. It shares translate and lower with Step, so the two
// differ only in how they find the code to run.
type refEmulator struct{ *Emulator }

// Step implements emu.Emulator.
func (r refEmulator) Step() emu.Event {
	e := r.Emulator
	m := e.m
	if m.Halted {
		return emu.Event{Kind: emu.EventHalt}
	}
	code, fexc := m.FetchCode(e.fetch[:0], x86.MaxInstLen)
	tb, f := e.translateTB(code, transState(m), fexc)
	if f != nil {
		return e.deliver(f)
	}
	return e.finishStep(translate(tb.inst)(e))
}
