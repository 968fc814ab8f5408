//go:build !race

// The race detector makes sync.Pool drop items at random, so pool reuse
// and allocation counts only hold without it.

package fidelis

import (
	"runtime"
	"testing"

	"pokeemu/internal/ir"
	"pokeemu/internal/machine"
	"pokeemu/internal/x86"
)

// TestArenaReusedAcrossGuests checks that a released guest's arena is the
// next guest's: consecutive guests compile into recycled storage rather
// than fresh allocations. One P keeps the goroutine on the pool shard it
// puts to.
func TestArenaReusedAcrossGuests(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var prev *ir.Arena
	for g := 0; g < 4; g++ {
		m := machine.NewBaseline(nil)
		m.Mem.WriteBytes(machine.CodeBase, countedLoop(20))
		e := New(m)
		if prev != nil && e.arena != prev {
			t.Errorf("guest %d got a fresh arena, not the released one", g)
		}
		stepToHalt(t, e)
		prev = e.arena
		e.Release()
	}
}

// TestWarmStepAllocFree checks that a private-cache step whose body is
// already compiled allocates nothing: fetch, decode and cache lookup all
// run in emulator-owned storage. The warm-up compiles the loop's bodies
// and materializes the pages the fetch's accessed-bit updates write.
func TestWarmStepAllocFree(t *testing.T) {
	m := machine.NewBaseline(nil)
	m.Mem.WriteBytes(machine.CodeBase, countedLoop(1<<30))
	e := New(m)
	defer e.Release()
	for i := 0; i < 16; i++ {
		e.Step()
	}
	if allocs := testing.AllocsPerRun(200, func() { e.Step() }); allocs != 0 {
		t.Errorf("warm step: %v allocations", allocs)
	}
	if m.GPR[x86.ECX] >= 1<<30-8 {
		t.Fatal("the loop did not run")
	}
}
