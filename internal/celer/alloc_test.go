package celer

import (
	"testing"

	"pokeemu/internal/machine"
	"pokeemu/internal/x86"
)

// TestWarmStepAllocFree checks that a step through the dispatch chain
// allocates nothing: the fetch lands in the emulator's buffer and the raw
// bytes revalidate the chained entry in place.
func TestWarmStepAllocFree(t *testing.T) {
	m := machine.NewBaseline(nil)
	m.Mem.WriteBytes(machine.CodeBase, cat(
		x86.AsmMovRegImm32(x86.EAX, 0),
		x86.AsmMovRegImm32(x86.ECX, 1<<30),
		[]byte{0x01, 0xc8}, // add eax, ecx
		[]byte{0xe2, 0xfc}, // loop add
		hlt,
	))
	e := New(m)
	for i := 0; i < 16; i++ {
		e.Step()
	}
	if allocs := testing.AllocsPerRun(200, func() { e.Step() }); allocs != 0 {
		t.Errorf("warm step: %v allocations", allocs)
	}
}

// TestTranslateLookupAllocFree checks that a shared-cache hit — a guest
// whose chain has not seen the bytes yet — builds its key in the
// emulator's buffer and allocates nothing.
func TestTranslateLookupAllocFree(t *testing.T) {
	cache := NewCache()
	m := machine.NewBaseline(nil)
	code := []byte{0x01, 0xc8}
	e := NewWithCache(m, cache)
	if _, f := e.translateTB(code, transState(m), nil); f != nil {
		t.Fatal(f)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, f := e.translateTB(code, transState(m), nil); f != nil {
			t.Fatal(f)
		}
	})
	if allocs != 0 {
		t.Errorf("cached translateTB: %v allocations", allocs)
	}
	if cache.Hits < 200 {
		t.Errorf("hits %d, want every lookup after the first to hit", cache.Hits)
	}
}
