//go:build !race

// The race detector makes sync.Pool drop items at random, so pool reuse
// only holds without it.

package ir

import (
	"runtime"
	"testing"
)

// TestArenaPool checks the pool policy: a released arena is the next one
// handed out, and one that grew past arenaCap is dropped instead. One P
// keeps the goroutine on the pool shard it puts to.
func TestArenaPool(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	a := NewArena()
	buildLoopIn(a, "small", 10)
	a.Release()
	if b := NewArena(); b != a {
		t.Error("a released arena was not reused")
	} else {
		b.Release()
	}

	big := NewArena()
	for big.bytes() <= arenaCap {
		buildLoopIn(big, "big", 1000)
	}
	big.Release()
	if b := NewArena(); b == big {
		t.Error("an arena past the cap was pooled")
	}
}
