package celer

import (
	"sync"
	"testing"

	"pokeemu/internal/emu"
	"pokeemu/internal/machine"
	"pokeemu/internal/x86"
)

// TestCelerCacheKeyIncludesMode is the regression test for the TB cache
// aliasing bug: the same code bytes executed under a different effective
// operand-size default (CS.D) or CPU mode (CR0.PE) must re-translate, not
// reuse the translation installed under the other state. Decode itself is
// state-independent today, so the observable is the cache Miss counter —
// an aliased key would hit where a correct key misses.
func TestCelerCacheKeyIncludesMode(t *testing.T) {
	prog := cat(x86.AsmMovRegImm32(x86.EAX, 42), hlt)
	cache := NewCache()
	stepOne := func(setup func(*machine.Machine)) {
		t.Helper()
		m := machine.NewBaseline(nil)
		m.Mem.WriteBytes(machine.CodeBase, prog)
		if setup != nil {
			setup(m)
		}
		e := NewWithCache(m, cache)
		if ev := e.Step(); ev.Kind != emu.EventNone {
			t.Fatalf("first step event = %v", ev.Kind)
		}
	}

	stepOne(nil)
	if cache.Miss != 1 {
		t.Fatalf("baseline translation: miss = %d, want 1", cache.Miss)
	}
	stepOne(func(m *machine.Machine) { m.Seg[x86.CS].Attr &^= x86.AttrDB })
	if cache.Miss != 2 {
		t.Fatalf("same bytes under a 16-bit code segment reused the 32-bit translation (miss = %d, want 2)", cache.Miss)
	}
	stepOne(func(m *machine.Machine) { m.CR0 &^= 1 })
	if cache.Miss != 3 {
		t.Fatalf("same bytes with CR0.PE cleared reused the protected-mode translation (miss = %d, want 3)", cache.Miss)
	}
	// Back to the original state: the first translation is still cached.
	hits := cache.Hits
	stepOne(nil)
	if cache.Miss != 3 || cache.Hits != hits+1 {
		t.Fatalf("baseline re-run: miss = %d hits = %d, want miss 3 and one new hit", cache.Miss, cache.Hits)
	}
}

// TestCelerTransState pins the state byte itself so a future refactor that
// drops a bit from the key fails loudly.
func TestCelerTransState(t *testing.T) {
	m := machine.NewBaseline(nil)
	if got := transState(m); got != 3 {
		t.Fatalf("baseline transState = %d, want 3 (CS.D=1, PE=1)", got)
	}
	m.Seg[x86.CS].Attr &^= x86.AttrDB
	if got := transState(m); got != 2 {
		t.Fatalf("16-bit CS transState = %d, want 2", got)
	}
	m.CR0 &^= 1
	if got := transState(m); got != 0 {
		t.Fatalf("real-mode transState = %d, want 0", got)
	}
}

// TestCelerConcurrentGuestsSharedCache runs many guests concurrently over
// one shared translation cache (the campaign's configuration). Run under
// -race this checks that the shared cache and the guest-local dispatch
// chains do not share mutable state across guests; the final state check
// verifies every guest computed the same result.
func TestCelerConcurrentGuestsSharedCache(t *testing.T) {
	cache := NewCache()
	// A hot loop so the dispatch chain's fall-through links get exercised:
	// sum 10..1 into EAX.
	prog := cat(
		x86.AsmMovRegImm32(x86.EAX, 0),
		x86.AsmMovRegImm32(x86.ECX, 10),
		[]byte{0x01, 0xc8}, // add eax, ecx
		[]byte{0xe2, 0xfc}, // loop -4
		hlt,
	)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m := machine.NewBaseline(nil)
			m.Mem.WriteBytes(machine.CodeBase, prog)
			e := NewWithCache(m, cache)
			for i := 0; i < 10000; i++ {
				if ev := e.Step(); ev.Kind == emu.EventHalt {
					if m.GPR[x86.EAX] != 55 {
						t.Errorf("eax = %d, want 55", m.GPR[x86.EAX])
					}
					return
				}
			}
			t.Error("guest did not halt")
		}()
	}
	wg.Wait()
	if cache.Hits == 0 {
		t.Error("concurrent guests never shared a translation")
	}
}

// TestCelerFastSlowEvents runs a fault-heavy program through Step and
// through the reference dispatcher and requires the event streams and final
// states to match exactly — direct dispatch must be invisible to everything
// the harness observes.
func TestCelerFastSlowEvents(t *testing.T) {
	prog := cat(
		x86.AsmMovRegImm32(x86.EAX, 7),
		[]byte{0xf7, 0xf0}, // div eax — fine
		x86.AsmMovRegImm32(x86.ECX, 0),
		[]byte{0xf7, 0xf1}, // div ecx — #DE
		hlt,
	)
	runPath := func(fast bool) (*machine.Machine, []emu.Event) {
		m := machine.NewBaseline(nil)
		m.Mem.WriteBytes(machine.CodeBase, prog)
		var e emu.Emulator = New(m)
		if !fast {
			e = refEmulator{New(m)}
		}
		var events []emu.Event
		for i := 0; i < 10000; i++ {
			ev := e.Step()
			events = append(events, ev)
			if ev.Kind == emu.EventHalt || ev.Kind == emu.EventShutdown {
				return m, events
			}
		}
		t.Fatal("program did not terminate")
		return nil, nil
	}
	mf, ef := runPath(true)
	ms, es := runPath(false)
	if len(ef) != len(es) {
		t.Fatalf("event count: fast %d, slow %d", len(ef), len(es))
	}
	for i := range ef {
		if ef[i].Kind != es[i].Kind {
			t.Fatalf("event %d: fast %v, slow %v", i, ef[i].Kind, es[i].Kind)
		}
	}
	if mf.GPR[x86.EAX] != ms.GPR[x86.EAX] || mf.EIP != ms.EIP || mf.EFLAGS != ms.EFLAGS {
		t.Fatalf("final state diverged: fast eax=%#x eip=%#x efl=%#x, slow eax=%#x eip=%#x efl=%#x",
			mf.GPR[x86.EAX], mf.EIP, mf.EFLAGS, ms.GPR[x86.EAX], ms.EIP, ms.EFLAGS)
	}
}

// TestCelerSelfModifyingCodeFastPath: the dispatch chain revalidates raw
// bytes every step, so a loop that patches an instruction it already
// executed must run the new bytes on the next iteration, not the stale
// chained translation installed on the first pass.
func TestCelerSelfModifyingCodeFastPath(t *testing.T) {
	// mov eax,0 ; mov ecx,2
	// body: mov ebx,1 ; add eax,ebx ; mov byte [body+1],5 ; loop body
	// hlt
	// Iteration 1 adds 1 and patches the imm; iteration 2 must add 5.
	const bodyOff = 10
	prog := cat(
		x86.AsmMovRegImm32(x86.EAX, 0),
		x86.AsmMovRegImm32(x86.ECX, 2),
		x86.AsmMovRegImm32(x86.EBX, 1), // body (patched below)
		[]byte{0x01, 0xd8},             // add eax, ebx
		x86.AsmMovMemImm8(machine.CodeBase+bodyOff+1, 5),
		[]byte{0xe2, 0xf0}, // loop body (-16)
		hlt,
	)
	m, _ := run(t, prog, nil)
	if m.GPR[x86.EAX] != 6 {
		t.Fatalf("eax = %d, want 6 (stale translation executed after self-modification)", m.GPR[x86.EAX])
	}
}
