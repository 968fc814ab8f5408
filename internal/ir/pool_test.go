//go:build !race

// The race detector makes sync.Pool drop items at random, so pool reuse
// only holds without it.

package ir

import (
	"runtime"
	"testing"
)

// TestArenaPool checks the pool policy: a released arena is the next one
// handed out. One P keeps the goroutine on the pool shard it puts to.
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

}

// TestArenaTrimKeepsCap checks that an arena that grew past arenaCap is
// pooled trimmed back to the cap, not dropped: the next guest gets it with
// its leading chunks kept, at most arenaCap bytes of them, and builds in
// it as in a fresh arena.
func TestArenaTrimKeepsCap(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	big := NewArena()
	for big.bytes() <= 3*arenaCap {
		buildLoopIn(big, "big", 1000)
	}
	first := &big.stmts.list[0][:1][0]
	big.Release()
	b := NewArena()
	if b != big {
		t.Fatal("an arena past the cap was not pooled")
	}
	if n := b.bytes(); n > arenaCap || n < arenaCap/2 {
		t.Fatalf("trimmed arena holds %d bytes, want at most arenaCap (%d) and at least half", n, arenaCap)
	}
	if len(b.stmts.list) == 0 || len(b.widths.list) == 0 || &b.stmts.list[0][:1][0] != first {
		t.Fatal("trim did not keep the leading chunks")
	}
	want := buildLoopIn(NewArena(), "fresh", 1500).String()
	if got := buildLoopIn(b, "fresh", 1500).String(); got != want {
		t.Fatalf("body built in a trimmed arena differs:\n%s\nwant\n%s", got, want)
	}
	b.Release()
}
