// Package hwsim simulates the real-hardware reference of the paper's
// three-way comparison: an Intel workstation virtualized by a customized
// KVM. The "hardware" executes the ideal architectural semantics with the
// hardware undefined-flag policy. The KVM workflow of Section 5.2 — run the
// guest, intercept traps (exceptions, halts), snapshot the guest CPU and
// physical memory, and start a fresh guest per test without a physical
// reboot — is the harness's run loop (harness.HardwareFactory with
// harness.RunBootBudget), shared with every emulator.
package hwsim

import (
	"pokeemu/internal/fidelis"
	"pokeemu/internal/machine"
	"pokeemu/internal/x86/sem"
)

// Hardware is the bare-metal CPU model: the architectural semantics with
// the hardware's undefined-behavior choices (sem.HardwareConfig), and no
// emulator-specific quirks.
type Hardware struct {
	*fidelis.Emulator
}

// NewHardwareShared builds the hardware model with a shared program cache
// (hardware executes natively; nothing needs per-guest translation).
func NewHardwareShared(m *machine.Machine, cache *fidelis.Cache) *Hardware {
	return &Hardware{fidelis.NewShared(m, sem.HardwareConfig, cache)}
}

// Name implements emu.Emulator.
func (h *Hardware) Name() string { return "hardware" }
