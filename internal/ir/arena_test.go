package ir

import (
	"testing"

	"pokeemu/internal/x86"
)

// buildLoopIn is buildLoop in a guest arena.
func buildLoopIn(a *Arena, name string, pad int) *Program {
	b := NewBuilderIn(name, a)
	n := b.Get(x86.GPR(x86.ECX))
	for k := 0; k < pad; k++ {
		b.Set(x86.GPR(x86.EDX), b.Xor(b.Get(x86.GPR(x86.EDX)), b.Const(32, uint64(k))))
	}
	sum := b.NewTemp(32)
	i := b.NewTemp(32)
	b.Move(sum, b.Const(32, 0))
	b.Move(i, b.Const(32, 0))
	top := b.NewLabel()
	done := b.NewLabel()
	b.Bind(top)
	b.CJump(b.Eq(i, n), done)
	b.Move(i, b.Add(i, b.Const(32, 1)))
	b.Move(sum, b.Add(sum, i))
	b.Jump(top)
	b.Bind(done)
	b.Set(x86.GPR(x86.EAX), sum)
	b.End()
	return b.Build()
}

// TestArenaBuildsInPlace builds bodies of growing size into one guest
// arena — past a chunk boundary partway through a body, and one body larger
// than a whole chunk — and checks that each renders and runs as its
// pooled-scratch build does once every build is done, that the first body
// lies where it was built, and that no body can append into its
// neighbor.
func TestArenaBuildsInPlace(t *testing.T) {
	a := NewArena()
	defer a.Release()
	pads := []int{0, 3, 100, 300, 2 * stmtChunk, 7, 0}
	progs := make([]*Program, len(pads))
	for k, pad := range pads {
		progs[k] = buildLoopIn(a, "arena", pad)
	}
	if &progs[0].Stmts[0] != &a.stmts.list[0][0] || &progs[0].TempWidths[0] != &a.widths.list[0][0] {
		t.Error("the first body was copied out of the arena")
	}
	for k, p := range progs {
		if want := buildLoop("arena", pads[k]).String(); p.String() != want {
			t.Fatalf("pad %d: arena body differs:\n%s--- want:\n%s", pads[k], p, want)
		}
		if len(p.Stmts) != cap(p.Stmts) || len(p.TempWidths) != cap(p.TempWidths) {
			t.Errorf("pad %d: body has room to append into the arena", pads[k])
		}
		st := newMapState()
		st.Set(x86.GPR(x86.ECX), 10)
		if _, err := Run(p, st, 0); err != nil {
			t.Fatal(err)
		}
		if got := st.Get(x86.GPR(x86.EAX)); got != 55 {
			t.Errorf("pad %d: sum = %d, want 55", pads[k], got)
		}
	}
	if len(a.stmts.list) < 3 {
		t.Errorf("%d stmt chunks: the bodies never crossed a chunk", len(a.stmts.list))
	}
}

// TestArenaResetReusesChunks checks that a released arena keeps its chunks
// and that the next guest's bodies fill them again from the start, so a
// recycled arena grows no further for a guest of the same size.
func TestArenaResetReusesChunks(t *testing.T) {
	var a Arena
	fill := func() {
		for k := 0; k < 20; k++ {
			buildLoopIn(&a, "reset", 50*k)
		}
	}
	fill()
	chunks, held := len(a.stmts.list), a.bytes()
	a.reset()
	first := buildLoopIn(&a, "reset", 0)
	if &first.Stmts[0] != &a.stmts.list[0][0] {
		t.Error("after reset the first body did not start the first chunk")
	}
	a.reset()
	fill()
	if len(a.stmts.list) != chunks || a.bytes() != held {
		t.Errorf("refill grew the arena: %d chunks, %d bytes; was %d, %d",
			len(a.stmts.list), a.bytes(), chunks, held)
	}
}
