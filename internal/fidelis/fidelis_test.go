package fidelis

import (
	"math/rand"
	"testing"

	"pokeemu/internal/emu"
	"pokeemu/internal/machine"
	"pokeemu/internal/x86"
	"pokeemu/internal/x86/sem"
)

// run loads code at the entry point and steps until halt/shutdown.
func run(t *testing.T, code []byte, setup func(*machine.Machine)) (*machine.Machine, []emu.Event) {
	t.Helper()
	m := machine.NewBaseline(nil)
	m.Mem.WriteBytes(machine.CodeBase, code)
	if setup != nil {
		setup(m)
	}
	e := New(m)
	var events []emu.Event
	for i := 0; i < 10000; i++ {
		ev := e.Step()
		events = append(events, ev)
		if ev.Kind == emu.EventHalt || ev.Kind == emu.EventShutdown ||
			ev.Kind == emu.EventTimeout {
			return m, events
		}
	}
	t.Fatal("program did not halt")
	return nil, nil
}

// firstException returns the first raised exception, whether delivery
// succeeded (exception event) or itself failed (shutdown event).
func firstException(events []emu.Event) *machine.ExceptionInfo {
	for _, ev := range events {
		if ev.Kind == emu.EventException || ev.Kind == emu.EventShutdown {
			return ev.Exception
		}
	}
	return nil
}

func cat(parts ...[]byte) []byte {
	var out []byte
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

var hlt = []byte{0xf4}

func TestMovAndALU(t *testing.T) {
	code := cat(
		x86.AsmMovRegImm32(x86.EAX, 10),
		x86.AsmMovRegImm32(x86.EBX, 32),
		[]byte{0x01, 0xd8}, // add %ebx, %eax
		hlt,
	)
	m, _ := run(t, code, nil)
	if m.GPR[x86.EAX] != 42 {
		t.Errorf("eax = %d, want 42", m.GPR[x86.EAX])
	}
	if m.EFLAGS&(1<<x86.FlagZF) != 0 || m.EFLAGS&(1<<x86.FlagCF) != 0 {
		t.Errorf("flags = %#x", m.EFLAGS)
	}
}

func TestAddFlags(t *testing.T) {
	cases := []struct {
		a, b       uint32
		cf, zf, of bool
		af, sf     bool
	}{
		{0xffffffff, 1, true, true, false, true, false},
		{0x7fffffff, 1, false, false, true, true, true},
		{0, 0, false, true, false, false, false},
		{0x80000000, 0x80000000, true, true, true, false, false},
	}
	for _, c := range cases {
		code := cat(
			x86.AsmMovRegImm32(x86.EAX, c.a),
			x86.AsmMovRegImm32(x86.EBX, c.b),
			[]byte{0x01, 0xd8},
			hlt,
		)
		m, _ := run(t, code, nil)
		check := func(bit uint8, want bool, name string) {
			got := m.EFLAGS&(1<<bit) != 0
			if got != want {
				t.Errorf("add(%#x,%#x): %s = %v, want %v", c.a, c.b, name, got, want)
			}
		}
		check(x86.FlagCF, c.cf, "CF")
		check(x86.FlagZF, c.zf, "ZF")
		check(x86.FlagOF, c.of, "OF")
		check(x86.FlagAF, c.af, "AF")
		check(x86.FlagSF, c.sf, "SF")
	}
}

func TestSubCmpFlags(t *testing.T) {
	// cmp $5, %eax with eax=3: borrow → CF, SF.
	code := cat(
		x86.AsmMovRegImm32(x86.EAX, 3),
		[]byte{0x83, 0xf8, 0x05}, // cmp $5, %eax
		hlt,
	)
	m, _ := run(t, code, nil)
	if m.EFLAGS&(1<<x86.FlagCF) == 0 || m.EFLAGS&(1<<x86.FlagSF) == 0 {
		t.Errorf("cmp flags = %#x", m.EFLAGS)
	}
	if m.GPR[x86.EAX] != 3 {
		t.Error("cmp must not write its destination")
	}
}

func TestPushPop(t *testing.T) {
	code := cat(
		x86.AsmMovRegImm32(x86.EAX, 0xdeadbeef),
		[]byte{0x50}, // push %eax
		[]byte{0x5b}, // pop %ebx
		hlt,
	)
	m, _ := run(t, code, nil)
	if m.GPR[x86.EBX] != 0xdeadbeef {
		t.Errorf("ebx = %#x", m.GPR[x86.EBX])
	}
	if m.GPR[x86.ESP] != machine.StackTop {
		t.Errorf("esp = %#x, want restored", m.GPR[x86.ESP])
	}
}

func TestMemoryRoundTrip(t *testing.T) {
	code := cat(
		x86.AsmMovMemImm32(0x300000, 0x11223344),
		x86.AsmMovRegMem32(x86.ECX, 0x300000),
		hlt,
	)
	m, _ := run(t, code, nil)
	if m.GPR[x86.ECX] != 0x11223344 {
		t.Errorf("ecx = %#x", m.GPR[x86.ECX])
	}
	if got := m.Mem.Read(0x300000, 4); got != 0x11223344 {
		t.Errorf("mem = %#x", got)
	}
}

func TestConditionalJump(t *testing.T) {
	// xor %eax,%eax ; jz +5 (over mov ebx,1) ; mov ebx,1 ; hlt
	code := cat(
		[]byte{0x31, 0xc0}, // xor %eax,%eax → ZF
		[]byte{0x74, 0x05}, // jz over the mov
		x86.AsmMovRegImm32(x86.EBX, 1),
		hlt,
	)
	m, _ := run(t, code, nil)
	if m.GPR[x86.EBX] != 0 {
		t.Error("jz should have skipped the mov")
	}
}

func TestCallRet(t *testing.T) {
	// call +1 (to the hlt-preceded routine) … layout:
	// 0: call rel32 (+6) → 11
	// 5: mov ebx, 7
	// 10: hlt
	// 11: mov eax, 5
	// 16: ret
	code := cat(
		[]byte{0xe8, 6, 0, 0, 0},
		x86.AsmMovRegImm32(x86.EBX, 7),
		hlt,
		x86.AsmMovRegImm32(x86.EAX, 5),
		[]byte{0xc3},
	)
	m, _ := run(t, code, nil)
	if m.GPR[x86.EAX] != 5 || m.GPR[x86.EBX] != 7 {
		t.Errorf("eax=%d ebx=%d", m.GPR[x86.EAX], m.GPR[x86.EBX])
	}
	if m.GPR[x86.ESP] != machine.StackTop {
		t.Error("esp not balanced")
	}
}

func TestLeave(t *testing.T) {
	code := cat(
		x86.AsmMovRegImm32(x86.EBP, machine.StackTop-8),
		x86.AsmMovMemImm32(machine.StackTop-8, 0x1234), // saved EBP value
		[]byte{0xc9}, // leave
		hlt,
	)
	m, _ := run(t, code, nil)
	if m.GPR[x86.EBP] != 0x1234 {
		t.Errorf("ebp = %#x", m.GPR[x86.EBP])
	}
	if m.GPR[x86.ESP] != machine.StackTop-4 {
		t.Errorf("esp = %#x", m.GPR[x86.ESP])
	}
}

func TestLeaveAtomicOnFault(t *testing.T) {
	// Point EBP at a not-present page: leave must fault without touching
	// ESP or EBP (the atomicity property QEMU violates).
	const badLin = 0x00350000
	code := cat(
		x86.AsmMovRegImm32(x86.EBP, badLin),
		[]byte{0xc9},
		hlt,
	)
	m, events := run(t, code, func(m *machine.Machine) {
		// Clear P on the PTE for badLin.
		pteAddr := uint32(machine.PTBase + (badLin>>12&0x3ff)*4)
		pte := m.Mem.Read(pteAddr, 4)
		m.Mem.Write(pteAddr, pte&^uint64(x86.PteP), 4)
	})
	exc := firstException(events)
	if exc == nil || exc.Vector != x86.ExcPF {
		t.Fatalf("expected #PF, got %v", exc)
	}
	if m.CR2 != badLin {
		t.Errorf("cr2 = %#x, want %#x", m.CR2, badLin)
	}
	if m.GPR[x86.EBP] != badLin {
		t.Error("ebp was modified despite the fault")
	}
	// ESP: the fault delivery pushed 16 bytes (eflags, cs, eip, err) below
	// the original top, so compare against StackTop-16.
	if m.GPR[x86.ESP] != machine.StackTop-16 {
		t.Errorf("esp = %#x; leave must not move esp before the fault",
			m.GPR[x86.ESP])
	}
}

func TestDivideByZero(t *testing.T) {
	code := cat(
		x86.AsmMovRegImm32(x86.EAX, 100),
		x86.AsmMovRegImm32(x86.ECX, 0),
		[]byte{0xf7, 0xf1}, // div %ecx
		hlt,
	)
	m, events := run(t, code, nil)
	exc := firstException(events)
	if exc == nil || exc.Vector != x86.ExcDE {
		t.Fatalf("expected #DE, got %v", exc)
	}
	// The handler halts; EIP must be inside the #DE stub.
	if m.EIP < machine.HandlerBase || m.EIP > machine.HandlerBase+8 {
		t.Errorf("eip = %#x, want inside the #DE handler", m.EIP)
	}
}

func TestDivision(t *testing.T) {
	code := cat(
		x86.AsmMovRegImm32(x86.EDX, 0),
		x86.AsmMovRegImm32(x86.EAX, 100),
		x86.AsmMovRegImm32(x86.ECX, 7),
		[]byte{0xf7, 0xf1}, // div %ecx
		hlt,
	)
	m, _ := run(t, code, nil)
	if m.GPR[x86.EAX] != 14 || m.GPR[x86.EDX] != 2 {
		t.Errorf("div: q=%d r=%d", m.GPR[x86.EAX], m.GPR[x86.EDX])
	}
}

func TestIDivNegative(t *testing.T) {
	code := cat(
		x86.AsmMovRegImm32(x86.EDX, 0xffffffff), // sign extension of -100
		x86.AsmMovRegImm32(x86.EAX, uint32(-100&0xffffffff)),
		x86.AsmMovRegImm32(x86.ECX, 7),
		[]byte{0xf7, 0xf9}, // idiv %ecx
		hlt,
	)
	m, _ := run(t, code, nil)
	if int32(m.GPR[x86.EAX]) != -14 || int32(m.GPR[x86.EDX]) != -2 {
		t.Errorf("idiv: q=%d r=%d", int32(m.GPR[x86.EAX]), int32(m.GPR[x86.EDX]))
	}
}

func TestMul(t *testing.T) {
	code := cat(
		x86.AsmMovRegImm32(x86.EAX, 0x10000000),
		x86.AsmMovRegImm32(x86.ECX, 0x100),
		[]byte{0xf7, 0xe1}, // mul %ecx
		hlt,
	)
	m, _ := run(t, code, nil)
	if m.GPR[x86.EAX] != 0 || m.GPR[x86.EDX] != 0x10 {
		t.Errorf("mul: lo=%#x hi=%#x", m.GPR[x86.EAX], m.GPR[x86.EDX])
	}
	if m.EFLAGS&(1<<x86.FlagCF) == 0 {
		t.Error("CF should be set for a wide product")
	}
}

func TestCmpxchg(t *testing.T) {
	// Equal case: [mem]=5, eax=5, ecx=9 → [mem]=9, ZF=1.
	code := cat(
		x86.AsmMovMemImm32(0x300000, 5),
		x86.AsmMovRegImm32(x86.EAX, 5),
		x86.AsmMovRegImm32(x86.ECX, 9),
		[]byte{0x0f, 0xb1, 0x0d, 0x00, 0x00, 0x30, 0x00}, // cmpxchg %ecx, mem
		hlt,
	)
	m, _ := run(t, code, nil)
	if got := m.Mem.Read(0x300000, 4); got != 9 {
		t.Errorf("mem = %d, want 9", got)
	}
	if m.EFLAGS&(1<<x86.FlagZF) == 0 {
		t.Error("ZF should be set")
	}
	// Unequal case: accumulator reloaded.
	code = cat(
		x86.AsmMovMemImm32(0x300000, 7),
		x86.AsmMovRegImm32(x86.EAX, 5),
		x86.AsmMovRegImm32(x86.ECX, 9),
		[]byte{0x0f, 0xb1, 0x0d, 0x00, 0x00, 0x30, 0x00},
		hlt,
	)
	m, _ = run(t, code, nil)
	if m.GPR[x86.EAX] != 7 {
		t.Errorf("eax = %d, want 7 (reloaded)", m.GPR[x86.EAX])
	}
	if got := m.Mem.Read(0x300000, 4); got != 7 {
		t.Errorf("mem = %d, want 7 (written back)", got)
	}
}

func TestStackSegmentLimitViolation(t *testing.T) {
	// Shrink the SS descriptor cache limit so the push target is outside.
	code := cat(
		[]byte{0x50}, // push %eax
		hlt,
	)
	_, events := run(t, code, func(m *machine.Machine) {
		m.Seg[x86.SS].Limit = 0x1000 // ESP is 0x200800: push lands above limit
	})
	exc := firstException(events)
	if exc == nil || exc.Vector != x86.ExcSS {
		t.Fatalf("expected #SS, got %v", exc)
	}
}

func TestSegmentNotWritable(t *testing.T) {
	// Make DS read-only; a store through it must #GP.
	code := cat(
		x86.AsmMovMemImm32(0x300000, 1),
		hlt,
	)
	_, events := run(t, code, func(m *machine.Machine) {
		m.Seg[x86.DS].Attr &^= x86.AttrWritable
	})
	exc := firstException(events)
	if exc == nil || exc.Vector != x86.ExcGP {
		t.Fatalf("expected #GP, got %v", exc)
	}
}

func TestMovSregLoadsDescriptorAndSetsAccessed(t *testing.T) {
	// Install a fresh descriptor (accessed clear) at GDT index 12, then
	// load it into FS: the cache must be filled and the accessed bit set.
	lo, hi := x86.MakeDescriptor(0x1000, 0x0ffff, x86.AttrP|x86.AttrS|x86.AttrWritable)
	sel := uint16(12 << 3)
	code := cat(
		x86.AsmMovRegImm16(x86.EAX, sel),
		x86.AsmMovSregReg(x86.FS, x86.EAX),
		hlt,
	)
	m, _ := run(t, code, func(m *machine.Machine) {
		m.Mem.Write(machine.GDTBase+12*8, uint64(lo), 4)
		m.Mem.Write(machine.GDTBase+12*8+4, uint64(hi), 4)
	})
	fs := m.Seg[x86.FS]
	if fs.Sel != sel || fs.Base != 0x1000 || fs.Limit != 0xffff {
		t.Errorf("fs = %+v", fs)
	}
	if fs.Attr&x86.AttrAccessed == 0 {
		t.Error("cache attr should record accessed")
	}
	gotHi := uint32(m.Mem.Read(machine.GDTBase+12*8+4, 4))
	if gotHi&(1<<8) == 0 {
		t.Error("descriptor accessed bit not written back")
	}
}

func TestMovSregNotPresent(t *testing.T) {
	lo, hi := x86.MakeDescriptor(0, 0xfffff, x86.AttrS|x86.AttrWritable) // P clear
	sel := uint16(12 << 3)
	code := cat(
		x86.AsmMovRegImm16(x86.EAX, sel),
		x86.AsmMovSregReg(x86.FS, x86.EAX),
		hlt,
	)
	_, events := run(t, code, func(m *machine.Machine) {
		m.Mem.Write(machine.GDTBase+12*8, uint64(lo), 4)
		m.Mem.Write(machine.GDTBase+12*8+4, uint64(hi), 4)
	})
	exc := firstException(events)
	if exc == nil || exc.Vector != x86.ExcNP || exc.ErrCode != uint32(sel) {
		t.Fatalf("expected #NP(sel), got %v", exc)
	}
}

func TestRdmsrInvalidRaisesGP(t *testing.T) {
	code := cat(
		x86.AsmMovRegImm32(x86.ECX, 0x12345),
		[]byte{0x0f, 0x32}, // rdmsr
		hlt,
	)
	_, events := run(t, code, nil)
	exc := firstException(events)
	if exc == nil || exc.Vector != x86.ExcGP {
		t.Fatalf("expected #GP, got %v", exc)
	}
}

func TestWrmsrRdmsrRoundTrip(t *testing.T) {
	code := cat(
		x86.AsmMovRegImm32(x86.ECX, 0x174), // SYSENTER_CS
		x86.AsmMovRegImm32(x86.EAX, 0xabcd),
		x86.AsmMovRegImm32(x86.EDX, 0x1234),
		x86.AsmWrmsr(),
		x86.AsmMovRegImm32(x86.EAX, 0),
		x86.AsmMovRegImm32(x86.EDX, 0),
		[]byte{0x0f, 0x32}, // rdmsr
		hlt,
	)
	m, _ := run(t, code, nil)
	if m.GPR[x86.EAX] != 0xabcd || m.GPR[x86.EDX] != 0x1234 {
		t.Errorf("rdmsr: eax=%#x edx=%#x", m.GPR[x86.EAX], m.GPR[x86.EDX])
	}
}

func TestInt3DeliversThroughIDT(t *testing.T) {
	code := cat([]byte{0xcc}, hlt)
	m, events := run(t, code, nil)
	exc := firstException(events)
	if exc == nil || exc.Vector != x86.ExcBP {
		t.Fatalf("expected #BP, got %v", exc)
	}
	// The pushed return EIP must point after int3.
	// Frame: [esp]=EIP, [esp+4]=CS, [esp+8]=EFLAGS at the handler.
	retEIP := uint32(m.Mem.Read(uint64ToAddr(m.GPR[x86.ESP]), 4))
	if retEIP != machine.CodeBase+1 {
		t.Errorf("pushed EIP = %#x, want %#x", retEIP, machine.CodeBase+1)
	}
}

func uint64ToAddr(v uint32) uint32 { return v }

func TestIretRoundTrip(t *testing.T) {
	// Build an iret frame by pushing EFLAGS, CS, and a return EIP, then
	// iret to the hlt at the target.
	target := uint32(machine.CodeBase + 20)
	code := cat(
		x86.AsmPushf(), // EFLAGS
		x86.AsmMovRegImm32(x86.EAX, machine.SelCode),
		[]byte{0x50},             // push CS selector
		x86.AsmPushImm32(target), // EIP
		[]byte{0xcf},             // iret
	)
	for len(code) < 20 {
		code = append(code, 0x90)
	}
	code = append(code, 0xf4)
	m, _ := run(t, code, nil)
	if m.EIP != target+1 {
		t.Errorf("eip = %#x, want after hlt at %#x", m.EIP, target)
	}
	if m.GPR[x86.ESP] != machine.StackTop {
		t.Errorf("esp = %#x, not rebalanced", m.GPR[x86.ESP])
	}
}

func TestRepMovsb(t *testing.T) {
	code := cat(
		x86.AsmMovRegImm32(x86.ESI, 0x300000),
		x86.AsmMovRegImm32(x86.EDI, 0x300100),
		x86.AsmMovRegImm32(x86.ECX, 4),
		[]byte{0xf3, 0xa4}, // rep movsb
		hlt,
	)
	m, _ := run(t, code, func(m *machine.Machine) {
		m.Mem.WriteBytes(0x300000, []byte{1, 2, 3, 4})
	})
	for i := uint32(0); i < 4; i++ {
		if m.Mem.Read8(0x300100+i) != byte(i+1) {
			t.Fatalf("byte %d not copied", i)
		}
	}
	if m.GPR[x86.ECX] != 0 || m.GPR[x86.ESI] != 0x300004 || m.GPR[x86.EDI] != 0x300104 {
		t.Errorf("regs: ecx=%d esi=%#x edi=%#x", m.GPR[x86.ECX], m.GPR[x86.ESI], m.GPR[x86.EDI])
	}
}

func TestShiftFlags(t *testing.T) {
	// shl $1, %eax with eax=0x80000000 → result 0, CF=1, ZF=1, OF=1 (msb^cf).
	code := cat(
		x86.AsmMovRegImm32(x86.EAX, 0x80000000),
		[]byte{0xd1, 0xe0}, // shl $1, %eax
		hlt,
	)
	m, _ := run(t, code, nil)
	if m.GPR[x86.EAX] != 0 {
		t.Errorf("eax = %#x", m.GPR[x86.EAX])
	}
	for _, f := range []struct {
		bit  uint8
		name string
	}{{x86.FlagCF, "CF"}, {x86.FlagZF, "ZF"}, {x86.FlagOF, "OF"}} {
		if m.EFLAGS&(1<<f.bit) == 0 {
			t.Errorf("%s should be set", f.name)
		}
	}
}

func TestPushfPopf(t *testing.T) {
	code := cat(
		[]byte{0xf9}, // stc
		x86.AsmPushf(),
		[]byte{0xf8}, // clc
		x86.AsmPopf(),
		hlt,
	)
	m, _ := run(t, code, nil)
	if m.EFLAGS&(1<<x86.FlagCF) == 0 {
		t.Error("popf should restore CF")
	}
}

func TestEnter(t *testing.T) {
	code := cat(
		[]byte{0xc8, 0x10, 0x00, 0x00}, // enter $16, $0
		hlt,
	)
	m, _ := run(t, code, nil)
	if m.GPR[x86.EBP] != machine.StackTop-4 {
		t.Errorf("ebp = %#x", m.GPR[x86.EBP])
	}
	if m.GPR[x86.ESP] != machine.StackTop-4-16 {
		t.Errorf("esp = %#x", m.GPR[x86.ESP])
	}
}

func TestUndefinedOpcode(t *testing.T) {
	_, events := run(t, cat([]byte{0xd8, 0x00}, hlt), nil) // x87: outside subset
	exc := firstException(events)
	if exc == nil || exc.Vector != x86.ExcUD {
		t.Fatalf("expected #UD, got %v", exc)
	}
}

func TestAliasEncodingAccepted(t *testing.T) {
	// 0x82 is the undocumented alias of 0x80; the Hi-Fi emulator accepts it.
	code := cat(
		x86.AsmMovRegImm32(x86.EAX, 40),
		[]byte{0x82, 0xc0, 0x02}, // add $2, %al (alias form)
		hlt,
	)
	m, events := run(t, code, nil)
	if exc := firstException(events); exc != nil {
		t.Fatalf("alias encoding raised %v", exc)
	}
	if m.GPR[x86.EAX]&0xff != 42 {
		t.Errorf("al = %d", m.GPR[x86.EAX]&0xff)
	}
}

func TestOperandSizePrefix(t *testing.T) {
	code := cat(
		x86.AsmMovRegImm32(x86.EAX, 0xffff0000),
		[]byte{0x66, 0x05, 0x34, 0x12}, // add $0x1234, %ax
		hlt,
	)
	m, _ := run(t, code, nil)
	if m.GPR[x86.EAX] != 0xffff1234 {
		t.Errorf("eax = %#x (16-bit add must preserve the high half)", m.GPR[x86.EAX])
	}
}

func TestHighByteRegisters(t *testing.T) {
	code := cat(
		x86.AsmMovRegImm32(x86.EAX, 0),
		[]byte{0xb4, 0x7f},       // mov $0x7f, %ah
		[]byte{0x80, 0xc4, 0x01}, // add $1, %ah
		hlt,
	)
	m, _ := run(t, code, nil)
	if m.GPR[x86.EAX] != 0x8000 {
		t.Errorf("eax = %#x, want 0x8000", m.GPR[x86.EAX])
	}
	if m.EFLAGS&(1<<x86.FlagOF) == 0 {
		t.Error("OF should be set (0x7f+1 signed overflow)")
	}
}

func TestLfsLoadsFarPointer(t *testing.T) {
	// Far pointer at 0x300000: offset 0x11223344, selector = flat data.
	code := cat(
		[]byte{0x0f, 0xb4, 0x1d, 0x00, 0x00, 0x30, 0x00}, // lfs mem, %ebx
		hlt,
	)
	m, _ := run(t, code, func(m *machine.Machine) {
		m.Mem.Write(0x300000, 0x11223344, 4)
		m.Mem.Write(0x300004, machine.SelData, 2)
	})
	if m.GPR[x86.EBX] != 0x11223344 {
		t.Errorf("ebx = %#x", m.GPR[x86.EBX])
	}
	if m.Seg[x86.FS].Sel != machine.SelData {
		t.Errorf("fs.sel = %#x", m.Seg[x86.FS].Sel)
	}
}

func TestMovCr(t *testing.T) {
	code := cat(
		x86.AsmMovRegCR(x86.EAX, 0), // read CR0
		x86.AsmMovMemReg32(0x300000, x86.EAX),
		hlt,
	)
	m, _ := run(t, code, nil)
	want := uint64(1<<x86.CR0PE | 1<<x86.CR0ET | 1<<x86.CR0PG)
	if got := m.Mem.Read(0x300000, 4); got != want {
		t.Errorf("cr0 read = %#x, want %#x", got, want)
	}
}

func TestBtsMemory(t *testing.T) {
	code := cat(
		x86.AsmMovRegImm32(x86.EAX, 35),                  // bit 35 → dword 1, bit 3
		[]byte{0x0f, 0xab, 0x05, 0x00, 0x00, 0x30, 0x00}, // bts %eax, mem
		hlt,
	)
	m, _ := run(t, code, nil)
	if got := m.Mem.Read(0x300004, 4); got != 8 {
		t.Errorf("mem+4 = %#x, want bit 3 set", got)
	}
	if m.EFLAGS&(1<<x86.FlagCF) != 0 {
		t.Error("CF should be clear (bit was 0)")
	}
}

func TestTranslationCache(t *testing.T) {
	code := cat(
		x86.AsmMovRegImm32(x86.ECX, 5),
		// loop body: dec %ecx; jnz -3
		[]byte{0x49},       // dec %ecx
		[]byte{0x75, 0xfd}, // jnz back to dec
		hlt,
	)
	m := machine.NewBaseline(nil)
	m.Mem.WriteBytes(machine.CodeBase, code)
	e := New(m)
	for i := 0; i < 100; i++ {
		if ev := e.Step(); ev.Kind == emu.EventHalt {
			break
		}
	}
	if e.CacheHits() == 0 {
		t.Error("translation cache never hit in a loop")
	}
	if m.GPR[x86.ECX] != 0 {
		t.Errorf("ecx = %d", m.GPR[x86.ECX])
	}
}

// TestBoundedCache checks the bound-and-reset policy: a bounded cache never
// holds more than its cap, an insert into a full cache starts it over, and
// it keeps serving hits after a reset.
func TestBoundedCache(t *testing.T) {
	const max = 4
	cache := NewBoundedCache(max)
	e := NewShared(machine.NewBaseline(nil), sem.HardwareConfig, cache)
	inst := func(imm uint32) *x86.Inst {
		in, err := x86.Decode(x86.AsmMovRegImm32(x86.EAX, imm))
		if err != nil {
			t.Fatal(err)
		}
		return in
	}
	for imm := uint32(0); imm < 3*max+1; imm++ {
		p := e.program(inst(imm))
		if n := cache.Len(); n > max || n != int(imm)%max+1 {
			t.Fatalf("after %d inserts: len %d (cap %d)", imm+1, n, max)
		}
		hits := e.CacheHits()
		if e.program(inst(imm)) != p || e.CacheHits() != hits+1 {
			t.Fatalf("insert %d: repeat lookup missed", imm+1)
		}
	}
	// The last reset dropped the earliest bodies: a lookup recompiles them.
	hits := e.CacheHits()
	e.program(inst(0))
	if e.CacheHits() != hits {
		t.Error("a body dropped by the reset was served")
	}
}

func TestAccessedBitsSetByPageWalk(t *testing.T) {
	m, _ := run(t, cat(x86.AsmMovMemImm32(0x300000, 1), hlt), nil)
	pte := uint32(m.Mem.Read(machine.PTBase+(0x300000>>12)*4, 4))
	if pte&x86.PteA == 0 || pte&x86.PteD == 0 {
		t.Errorf("pte = %#x: A and D should be set after a write", pte)
	}
	// The code page was only read: A set, D clear.
	ptec := uint32(m.Mem.Read(machine.PTBase+(machine.CodeBase>>12)*4, 4))
	if ptec&x86.PteA == 0 {
		t.Error("code page A bit should be set by fetch")
	}
	if ptec&x86.PteD != 0 {
		t.Error("code page D bit must not be set by fetch")
	}
}

// TestWalkMatchesConcreteTranslate cross-checks the IR page walk emitted by
// the semantics compiler against the direct Go walker (machine.Translate)
// on randomized PTE/PDE flag bytes: same fault-or-success decision, same
// accessed/dirty maintenance.
func TestWalkMatchesConcreteTranslate(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	const lin = 0x00455000 // PDE index 1: does not alias the code/stack mappings
	for iter := 0; iter < 200; iter++ {
		pdeFlags := uint64(r.Intn(256))
		pteFlags := uint64(r.Intn(256))
		wp := r.Intn(2) == 1
		write := r.Intn(2) == 1
		pse := r.Intn(2) == 1

		setup := func(m *machine.Machine) {
			pdeAddr := uint32(machine.PDBase + (lin>>22)*4)
			pteAddr := uint32(machine.PTBase + (lin>>12&0x3ff)*4)
			m.Mem.Write(pdeAddr, uint64(machine.PTBase)|pdeFlags&^uint64(x86.PdePS), 4)
			if pse && pdeFlags&x86.PdePS != 0 {
				// Large page: the PDE maps 4 MiB directly at 0.
				m.Mem.Write(pdeAddr, pdeFlags, 4)
			}
			m.Mem.Write(pteAddr, uint64(lin&0xfffff000)|pteFlags, 4)
			if wp {
				m.CR0 |= 1 << x86.CR0WP
			}
			if pse {
				m.CR4 |= 1 << x86.CR4PSE
			}
		}

		// Direct walker.
		mA := machine.NewBaseline(nil)
		setup(mA)
		_, excA := mA.Translate(lin, write)

		// IR walk, by executing a load/store through fidelis.
		mB := machine.NewBaseline(nil)
		setup(mB)
		var code []byte
		code = append(code, x86.AsmMovRegImm32(x86.EBX, lin)...)
		if write {
			code = append(code, 0x89, 0x03) // mov %eax, (%ebx)
		} else {
			code = append(code, 0x8b, 0x03) // mov (%ebx), %eax
		}
		code = append(code, 0xf4)
		mB.Mem.WriteBytes(machine.CodeBase, code)
		e := New(mB)
		var excB *machine.ExceptionInfo
		for i := 0; i < 50; i++ {
			ev := e.Step()
			if ev.Kind == emu.EventException || ev.Kind == emu.EventShutdown {
				excB = ev.Exception
			}
			if ev.Kind != emu.EventNone {
				break
			}
		}

		faultA := excA != nil
		faultB := excB != nil && excB.Vector == x86.ExcPF
		if faultA != faultB {
			t.Fatalf("iter %d (pde %#x pte %#x wp=%v write=%v pse=%v): direct fault=%v, IR fault=%v",
				iter, pdeFlags, pteFlags, wp, write, pse, faultA, faultB)
		}
		if faultA && excB != nil && excA.ErrCode != excB.ErrCode {
			t.Fatalf("iter %d: error code %#x vs %#x", iter, excA.ErrCode, excB.ErrCode)
		}
		// A/D maintenance agrees on the PTE when the walk succeeded.
		if !faultA {
			pteAddr := uint32(machine.PTBase + (lin>>12&0x3ff)*4)
			a := mA.Mem.Read(pteAddr, 4)
			b := mB.Mem.Read(pteAddr, 4)
			if a != b {
				t.Fatalf("iter %d: PTE after walk %#x vs %#x", iter, a, b)
			}
		}
	}
}

// countedLoop is a guest that steps add/loop until ECX runs out, then
// halts: three distinct instruction encodings besides the two movs.
func countedLoop(iters uint32) []byte {
	var code []byte
	for _, part := range [][]byte{
		x86.AsmMovRegImm32(x86.EAX, 0),
		x86.AsmMovRegImm32(x86.ECX, iters),
		{0x01, 0xc8}, // add eax, ecx
		{0xe2, 0xfc}, // loop add
		x86.AsmHlt(),
	} {
		code = append(code, part...)
	}
	return code
}

// stepToHalt steps e until the guest halts.
func stepToHalt(t *testing.T, e *Emulator) {
	t.Helper()
	for i := 0; i < 10000; i++ {
		if ev := e.Step(); ev.Kind == emu.EventHalt {
			return
		}
	}
	t.Fatal("program did not halt")
}

// TestCompilesOncePerGuest pins the cost model the E6 profile measures: a
// private-cache guest compiles each distinct instruction once, and the
// next guest compiles all of them again, while guests on a shared cache
// (the hardware model) compile them once between them.
func TestCompilesOncePerGuest(t *testing.T) {
	const distinct = 5 // mov, mov, add, loop, hlt
	code := countedLoop(50)
	guest := func(newEmu func(*machine.Machine) *Emulator) int64 {
		m := machine.NewBaseline(nil)
		m.Mem.WriteBytes(machine.CodeBase, code)
		e := newEmu(m)
		hits := e.CacheHits()
		stepToHalt(t, e)
		compiles := e.Decoded - (e.CacheHits() - hits)
		e.Release()
		return compiles
	}
	for g := 0; g < 3; g++ {
		if n := guest(New); n != distinct {
			t.Errorf("private guest %d compiled %d bodies, want %d", g, n, distinct)
		}
	}
	shared := NewCache()
	for g, want := range []int64{distinct, 0, 0} {
		n := guest(func(m *machine.Machine) *Emulator { return NewShared(m, sem.HardwareConfig, shared) })
		if n != want {
			t.Errorf("shared guest %d compiled %d bodies, want %d", g, n, want)
		}
	}
}

// TestReleasedEmulatorPanics: stepping a released emulator fails loudly
// instead of running bodies whose arena a later guest now owns. Release is
// idempotent, and releasing a shared-cache guest leaves the cache serving
// other guests.
func TestReleasedEmulatorPanics(t *testing.T) {
	shared := NewCache()
	for name, newEmu := range map[string]func(*machine.Machine) *Emulator{
		"private": New,
		"shared":  func(m *machine.Machine) *Emulator { return NewShared(m, sem.HardwareConfig, shared) },
	} {
		m := machine.NewBaseline(nil)
		m.Mem.WriteBytes(machine.CodeBase, countedLoop(1<<20))
		e := newEmu(m)
		for i := 0; i < 8; i++ {
			e.Step()
		}
		e.Release()
		e.Release()
		if e.arena != nil || e.cache != nil {
			t.Errorf("%s: a released emulator still reaches its cache", name)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Step after Release did not panic", name)
				}
			}()
			e.Step()
		}()
	}
	if shared.Len() == 0 {
		t.Error("releasing a shared-cache guest emptied the shared cache")
	}
}
