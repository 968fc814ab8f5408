//go:build !race

// The race detector makes sync.Pool drop items at random, so allocation
// counts only hold without it.

package fidelis_test

import (
	"testing"

	"pokeemu/internal/ir"
)

// TestInterpreterAllocFree checks that concrete execution allocates
// nothing: on a warm pool, ir.Run and ir.RunEdges run every compiled body
// without one allocation. The first run materializes the overlay pages the
// body writes; the measured runs restart from the same CPU state.
func TestInterpreterAllocFree(t *testing.T) {
	noEdge := func(from, to int) {}
	for i, p := range compiledBodies() {
		m := seededMachine(int64(i))
		cpu := m.CPU
		allocs := testing.AllocsPerRun(1, func() {
			m.CPU = cpu
			_, _ = ir.Run(p, m, 0)
			m.CPU = cpu
			_, _ = ir.RunEdges(p, m, 0, noEdge)
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocations a run", p.Name, allocs)
		}
	}
}
