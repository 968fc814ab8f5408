//go:build !race

// The race detector instruments allocations and makes sync.Pool drop
// items at random, so the allocation bound only holds without it.

package equivcheck

import (
	"runtime"
	"testing"
)

// TestRunAllocBound pins what a second Run over the gate handlers
// allocates. Every handler builds an exploration solver and a miter
// solver; on a warm process both are built on storage the previous
// handler's solvers released, so a Run allocates little beyond its terms,
// paths and report: about 1.5 MB in 6,400 allocations, against 15.8 MB in
// 198,000 when every solver grew its storage from empty. One P keeps every
// handler on the pool shard the one before it put to.
func TestRunAllocBound(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	opts := Options{Handlers: DefaultGateHandlers, Workers: 1}
	if _, err := Run(opts); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := Run(opts); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	mb := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	mallocs := after.Mallocs - before.Mallocs
	if mb > allocBoundMB || mallocs > allocBoundMallocs {
		t.Errorf("second Run allocated %.1f MB in %d allocations, bound %d MB and %d",
			mb, mallocs, allocBoundMB, allocBoundMallocs)
	}
}

// The pinned bounds, a little over twice the measured second Run.
const (
	allocBoundMB      = 4
	allocBoundMallocs = 16_000
)
