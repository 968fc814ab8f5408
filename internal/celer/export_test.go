package celer

import (
	"pokeemu/internal/emu"
	"pokeemu/internal/machine"
)

// NewReferenceWithCache builds a guest that steps through the reference
// dispatcher (reference_test.go) over a shared translation cache, for the
// external differential tests.
func NewReferenceWithCache(m *machine.Machine, c *Cache) emu.Emulator {
	return refEmulator{NewWithCache(m, c)}
}

// Rebind moves a guest onto another machine, keeping its dispatch chain, so
// a test can run many programs through one warm chain.
func (e *Emulator) Rebind(m *machine.Machine) { e.m = m }
