package celer

import (
	"testing"

	"pokeemu/internal/emu"
	"pokeemu/internal/machine"
	"pokeemu/internal/x86"
)

// BenchmarkCelerDispatch prices one guest step with a hot counted loop,
// through Step (fast) and through the re-lowering reference dispatcher
// (slow) — the workload shape where direct dispatch matters: every step
// hits code that is already translated, so the whole cost is finding and
// entering the translation, not producing it. E16 quotes the
// fast/slow ratio from this benchmark; campaign-scale test programs are too
// short for the difference to be visible there.
func BenchmarkCelerDispatch(b *testing.B) {
	const iters = 1 << 15
	prog := cat(
		x86.AsmMovRegImm32(x86.EAX, 0),
		x86.AsmMovRegImm32(x86.ECX, iters),
		[]byte{0x01, 0xc8}, // body: add eax, ecx
		[]byte{0xe2, 0xfc}, // loop body
		hlt,
	)
	for _, bc := range []struct {
		name string
		fast bool
	}{{"fast", true}, {"slow", false}} {
		b.Run(bc.name, func(b *testing.B) {
			cache := NewCache()
			steps := 0
			for i := 0; i < b.N; i++ {
				m := machine.NewBaseline(nil)
				m.Mem.WriteBytes(machine.CodeBase, prog)
				var e emu.Emulator = NewWithCache(m, cache)
				if !bc.fast {
					e = refEmulator{NewWithCache(m, cache)}
				}
				for {
					ev := e.Step()
					steps++
					if ev.Kind == emu.EventHalt {
						break
					}
					if ev.Kind != emu.EventNone {
						b.Fatalf("unexpected event %v", ev.Kind)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(steps), "ns/step")
		})
	}
}
