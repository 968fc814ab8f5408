package harness

import (
	"testing"

	"pokeemu/internal/diff"
	"pokeemu/internal/machine"
	"pokeemu/internal/x86"
)

// The central cross-validation property: on ordinary programs, the Hi-Fi
// emulator, the Lo-Fi emulator, and the hardware oracle must produce
// identical final states (after the undefined-behavior filter). The Lo-Fi
// emulator may diverge only through its documented defect classes, and
// dedicated tests below confirm each of those fires.

func cat(parts ...[]byte) []byte {
	var out []byte
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

var hlt = []byte{0xf4}

// agreementPrograms is a battery of concrete programs touching most of the
// instruction subset in benign ways.
func agreementPrograms() map[string][]byte {
	progs := map[string][]byte{}
	mov := func(r x86.Reg, v uint32) []byte { return x86.AsmMovRegImm32(r, v) }

	progs["alu-mix"] = cat(
		mov(x86.EAX, 0x12345678), mov(x86.EBX, 0x9abcdef0),
		[]byte{0x01, 0xd8}, // add
		[]byte{0x11, 0xd8}, // adc
		[]byte{0x29, 0xd8}, // sub
		[]byte{0x19, 0xd8}, // sbb
		[]byte{0x21, 0xd8}, // and
		[]byte{0x09, 0xd8}, // or
		[]byte{0x31, 0xd8}, // xor
		[]byte{0x39, 0xd8}, // cmp
		[]byte{0x85, 0xd8}, // test
		hlt,
	)
	progs["alu-imm"] = cat(
		mov(x86.ECX, 77),
		[]byte{0x83, 0xc1, 0x7f},                   // add $0x7f, %ecx
		[]byte{0x81, 0xe9, 0x10, 0x00, 0x00, 0x00}, // sub $16, %ecx
		[]byte{0x83, 0xc9, 0x0f},                   // or
		[]byte{0x80, 0xc1, 0x05},                   // add $5, %cl
		hlt,
	)
	progs["inc-dec-neg"] = cat(
		mov(x86.EDX, 0xffffffff),
		[]byte{0x42},       // inc %edx
		[]byte{0x4a},       // dec %edx
		[]byte{0xf7, 0xda}, // neg %edx
		[]byte{0xf7, 0xd2}, // not %edx
		[]byte{0xfe, 0xc2}, // inc %dl
		hlt,
	)
	progs["mul-div"] = cat(
		mov(x86.EDX, 0), mov(x86.EAX, 1000), mov(x86.ECX, 37),
		[]byte{0xf7, 0xe1}, // mul %ecx
		mov(x86.EDX, 0), mov(x86.EAX, 1000),
		[]byte{0xf7, 0xf1},       // div %ecx
		[]byte{0x0f, 0xaf, 0xc1}, // imul %ecx, %eax
		[]byte{0x6b, 0xd8, 0x11}, // imul $17, %eax, %ebx
		[]byte{0xf6, 0xe9},       // imul %cl
		hlt,
	)
	progs["shifts"] = cat(
		mov(x86.EAX, 0x80000001), mov(x86.ECX, 4),
		[]byte{0xd3, 0xe0},       // shl %cl
		[]byte{0xd3, 0xe8},       // shr %cl
		[]byte{0xd3, 0xf8},       // sar %cl
		[]byte{0xc1, 0xc0, 0x03}, // rol $3
		[]byte{0xc1, 0xc8, 0x05}, // ror $5
		[]byte{0xd1, 0xd0},       // rcl $1
		[]byte{0xd1, 0xd8},       // rcr $1
		hlt,
	)
	progs["shift-one-forms"] = cat(
		mov(x86.EBX, 0xc0000003),
		[]byte{0xd1, 0xe3}, // shl $1, %ebx
		[]byte{0xd1, 0xeb}, // shr $1
		[]byte{0xd1, 0xfb}, // sar $1
		hlt,
	)
	progs["stack"] = cat(
		mov(x86.EAX, 0x1111), mov(x86.EBX, 0x2222),
		[]byte{0x50, 0x53},       // push push
		[]byte{0x59, 0x5a},       // pop ecx, pop edx
		[]byte{0x60},             // pusha
		[]byte{0x61},             // popa
		[]byte{0x68, 1, 2, 3, 4}, // push imm
		[]byte{0x8f, 0x05, 0x00, 0x00, 0x30, 0x00}, // pop to mem
		hlt,
	)
	progs["memory-forms"] = cat(
		mov(x86.EBX, 0x300000), mov(x86.ESI, 0x10),
		x86.AsmMovMemImm32(0x300010, 0xcafebabe),
		[]byte{0x8b, 0x04, 0x33},       // mov (%ebx,%esi), %eax
		[]byte{0x89, 0x44, 0x33, 0x04}, // mov %eax, 4(%ebx,%esi)
		[]byte{0x8b, 0x4c, 0xb3, 0x08}, // mov 8(%ebx,%esi,4), %ecx
		[]byte{0x8d, 0x54, 0x73, 0x7f}, // lea 127(%ebx,%esi,2), %edx
		[]byte{0x0f, 0xb6, 0x03},       // movzx (%ebx), %eax
		[]byte{0x0f, 0xbe, 0x43, 0x01}, // movsx 1(%ebx), %eax
		hlt,
	)
	progs["branches"] = cat(
		mov(x86.ECX, 3),
		[]byte{0x49},             // dec
		[]byte{0x75, 0xfd},       // jnz loop
		[]byte{0x83, 0xf9, 0x00}, // cmp $0
		[]byte{0x0f, 0x94, 0xc0}, // sete %al
		[]byte{0x0f, 0x44, 0xd9}, // cmove %ecx, %ebx
		hlt,
	)
	progs["strings"] = cat(
		mov(x86.ESI, 0x300000), mov(x86.EDI, 0x300040), mov(x86.ECX, 8),
		x86.AsmMovMemImm32(0x300000, 0x04030201),
		x86.AsmMovMemImm32(0x300004, 0x08070605),
		[]byte{0xf3, 0xa4}, // rep movsb
		mov(x86.ESI, 0x300000), mov(x86.EDI, 0x300040), mov(x86.ECX, 8),
		[]byte{0xf3, 0xa6}, // repe cmpsb
		mov(x86.EDI, 0x300080), mov(x86.ECX, 4), mov(x86.EAX, 0x5a),
		[]byte{0xf3, 0xaa}, // rep stosb
		[]byte{0xad},       // lodsd
		[]byte{0xaf},       // scasd
		hlt,
	)
	progs["bitops"] = cat(
		mov(x86.EAX, 0x00010000), mov(x86.EBX, 16),
		[]byte{0x0f, 0xa3, 0xd8},       // bt %ebx, %eax
		[]byte{0x0f, 0xab, 0xd8},       // bts
		[]byte{0x0f, 0xb3, 0xd8},       // btr
		[]byte{0x0f, 0xbb, 0xd8},       // btc
		[]byte{0x0f, 0xbc, 0xc8},       // bsf %eax, %ecx
		[]byte{0x0f, 0xbd, 0xd0},       // bsr %eax, %edx
		[]byte{0x0f, 0xba, 0xe0, 0x07}, // bt $7, %eax
		hlt,
	)
	progs["shld-shrd"] = cat(
		mov(x86.EAX, 0xf000000f), mov(x86.EBX, 0x12345678),
		[]byte{0x0f, 0xa4, 0xd8, 0x08}, // shld $8, %ebx, %eax
		[]byte{0x0f, 0xac, 0xd8, 0x04}, // shrd $4, %ebx, %eax
		hlt,
	)
	progs["flags-misc"] = cat(
		[]byte{0xf9, 0xf5, 0xf8}, // stc cmc clc
		[]byte{0xfd, 0xfc},       // std cld
		[]byte{0x9f},             // lahf
		[]byte{0x9e},             // sahf
		x86.AsmPushf(), x86.AsmPopf(),
		hlt,
	)
	progs["xchg-xadd"] = cat(
		mov(x86.EAX, 1), mov(x86.EBX, 2),
		[]byte{0x93},             // xchg %eax, %ebx
		[]byte{0x87, 0xd9},       // xchg %ebx, %ecx
		[]byte{0x0f, 0xc1, 0xc3}, // xadd %eax, %ebx
		x86.AsmMovMemImm32(0x300000, 5),
		[]byte{0x87, 0x1d, 0x00, 0x00, 0x30, 0x00}, // xchg %ebx, mem
		hlt,
	)
	progs["cmpxchg-equal"] = cat(
		x86.AsmMovMemImm32(0x300000, 5),
		mov(x86.EAX, 5), mov(x86.ECX, 9),
		[]byte{0x0f, 0xb1, 0x0d, 0x00, 0x00, 0x30, 0x00},
		hlt,
	)
	progs["convert"] = cat(
		mov(x86.EAX, 0x8001),
		[]byte{0x98},       // cwde
		[]byte{0x99},       // cdq
		[]byte{0x0f, 0xc8}, // bswap %eax
		hlt,
	)
	progs["enter-leave"] = cat(
		[]byte{0xc8, 0x20, 0x00, 0x00}, // enter $32, $0
		[]byte{0xc9},                   // leave
		[]byte{0xc8, 0x08, 0x00, 0x02}, // enter $8, $2
		[]byte{0xc9},
		hlt,
	)
	progs["call-ret"] = cat(
		[]byte{0xe8, 6, 0, 0, 0},
		x86.AsmMovRegImm32(x86.EBX, 7),
		hlt,
		x86.AsmMovRegImm32(x86.EAX, 5),
		[]byte{0xc3},
	)
	progs["seg-load"] = cat(
		x86.AsmMovRegImm16(x86.EAX, machine.SelData),
		x86.AsmMovSregReg(x86.ES, x86.EAX),
		x86.AsmMovRegSreg(x86.EBX, x86.ES),
		[]byte{0x06, 0x07}, // push %es / pop %es
		hlt,
	)
	progs["segment-override"] = cat(
		mov(x86.EBX, 0x300000),
		x86.AsmMovMemImm32(0x300000, 0x77),
		[]byte{0x64, 0x8b, 0x03}, // mov %fs:(%ebx), %eax
		[]byte{0x36, 0x8b, 0x0b}, // mov %ss:(%ebx), %ecx
		hlt,
	)
	progs["sys-regs"] = cat(
		x86.AsmMovRegCR(x86.EAX, 0),
		x86.AsmMovRegCR(x86.EBX, 3),
		x86.AsmMovRegCR(x86.ECX, 4),
		[]byte{0x0f, 0x01, 0x25, 0x00, 0x00, 0x30, 0x00}, // smsw mem... (grp7/4)
		hlt,
	)
	progs["gdt-idt"] = cat(
		[]byte{0x0f, 0x01, 0x05, 0x00, 0x00, 0x30, 0x00}, // sgdt mem
		[]byte{0x0f, 0x01, 0x0d, 0x08, 0x00, 0x30, 0x00}, // sidt mem+8
		hlt,
	)
	progs["msr-tsc"] = cat(
		mov(x86.ECX, 0x174),
		mov(x86.EAX, 0x1234), mov(x86.EDX, 0),
		x86.AsmWrmsr(),
		[]byte{0x0f, 0x32}, // rdmsr
		[]byte{0x0f, 0x31}, // rdtsc
		[]byte{0x0f, 0xa2}, // cpuid
		hlt,
	)
	progs["int3-into"] = cat(
		[]byte{0xcc}, // int3 → handler halts
	)
	progs["int-n"] = cat(
		[]byte{0xcd, 0x40}, // int $0x40
	)
	progs["aam-aad"] = cat(
		mov(x86.EAX, 123),
		[]byte{0xd4, 0x0a}, // aam
		[]byte{0xd5, 0x0a}, // aad
		hlt,
	)
	progs["xlat"] = cat(
		mov(x86.EBX, 0x300000), mov(x86.EAX, 3),
		x86.AsmMovMemImm32(0x300000, 0x44332211),
		[]byte{0xd7}, // xlat
		hlt,
	)
	progs["op16-mix"] = cat(
		mov(x86.EAX, 0xdead0000),
		[]byte{0x66, 0x05, 0x34, 0x12}, // add $0x1234, %ax
		[]byte{0x66, 0x50},             // push %ax
		[]byte{0x66, 0x5b},             // pop %bx
		[]byte{0x66, 0xc1, 0xc0, 0x04}, // rol $4, %ax
		hlt,
	)
	progs["loops"] = cat(
		mov(x86.ECX, 5), mov(x86.EAX, 0),
		[]byte{0x40},       // inc %eax
		[]byte{0xe2, 0xfd}, // loop
		[]byte{0xe3, 0x02}, // jecxz +2
		[]byte{0x40},       // skipped? ecx==0 so jumped
		[]byte{0x90},
		hlt,
	)
	progs["pf-read"] = cat(
		// Touch a page whose PTE we cleared: all implementations must
		// deliver the same #PF with the same CR2.
		x86.AsmMovRegMem32(x86.EAX, 0x00350000),
		hlt,
	)
	return progs
}

func clearPTE(image *machine.Memory, lin uint32) {
	pteAddr := uint32(machine.PTBase + (lin>>12&0x3ff)*4)
	pte := image.Read(pteAddr, 4)
	image.Write(pteAddr, pte&^uint64(x86.PteP), 4)
}

func TestThreeWayAgreementOnBenignPrograms(t *testing.T) {
	image := machine.BaselineImage()
	clearPTE(image, 0x00350000) // for the pf-read program
	factories := []Factory{FidelisFactory(), CelerFactory(), HardwareFactory()}
	for name, prog := range agreementPrograms() {
		results := runAll(factories, image, prog, 0)
		filter := diff.Filter{EFLAGSMask: x86.StatusFlags} // benign battery:
		// flag-precision is compared separately below; here we check
		// architecture state, memory, and exceptions.
		for i := 1; i < len(results); i++ {
			ds := diff.Compare(results[0].Snapshot, results[i].Snapshot, filter)
			if len(ds) > 0 {
				t.Errorf("%s: %s vs %s differ: %v", name,
					results[0].Impl, results[i].Impl, ds[:minInt(len(ds), 8)])
			}
		}
	}
}

// TestDefinedFlagsAgree compares EFLAGS with only the per-instruction
// undefined bits masked, on programs whose final flags come from a single
// known instruction class.
func TestDefinedFlagsAgree(t *testing.T) {
	image := machine.BaselineImage()
	factories := []Factory{FidelisFactory(), CelerFactory(), HardwareFactory()}
	cases := []struct {
		name    string
		handler string
		prog    []byte
	}{
		{"add", "add_rmv_rv", cat(x86.AsmMovRegImm32(x86.EAX, 0xffffffff),
			x86.AsmMovRegImm32(x86.EBX, 1), []byte{0x01, 0xd8}, hlt)},
		{"and", "and_rmv_rv", cat(x86.AsmMovRegImm32(x86.EAX, 0xf0),
			x86.AsmMovRegImm32(x86.EBX, 0x1f), []byte{0x21, 0xd8}, hlt)},
		{"shl-multi", "shl_rmv_imm8", cat(x86.AsmMovRegImm32(x86.EAX, 0x40000001),
			[]byte{0xc1, 0xe0, 0x07}, hlt)},
		{"mul", "mul_rmv", cat(x86.AsmMovRegImm32(x86.EAX, 0x10000),
			x86.AsmMovRegImm32(x86.ECX, 0x10000), []byte{0xf7, 0xe1}, hlt)},
		{"div", "div_rmv", cat(x86.AsmMovRegImm32(x86.EDX, 0),
			x86.AsmMovRegImm32(x86.EAX, 100), x86.AsmMovRegImm32(x86.ECX, 9),
			[]byte{0xf7, 0xf1}, hlt)},
	}
	for _, c := range cases {
		results := runAll(factories, image, c.prog, 0)
		filter := diff.UndefFilterFor(c.handler)
		for i := 1; i < len(results); i++ {
			ds := diff.Compare(results[0].Snapshot, results[i].Snapshot, filter)
			if len(ds) > 0 {
				t.Errorf("%s: %s vs %s: %v", c.name, results[0].Impl,
					results[i].Impl, ds)
			}
		}
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// --- The documented Lo-Fi defects must actually fire. ---

func TestCelerMissesSegmentLimit(t *testing.T) {
	image := machine.BaselineImage()
	// Shrink the DS limit via a fresh descriptor, reload DS, then read
	// beyond the limit: references raise #GP, celer reads happily.
	lo, hi := x86.MakeDescriptor(0, 0x0ffff, x86.AttrP|x86.AttrS|x86.AttrWritable) // 64 KiB limit
	prog := cat(
		x86.AsmMovMemImm32(machine.GDTBase+12*8, uint32(lo)),
		x86.AsmMovMemImm32(machine.GDTBase+12*8+4, uint32(hi)),
		x86.AsmMovRegImm16(x86.EAX, 12<<3),
		x86.AsmMovSregReg(x86.DS, x86.EAX),
		x86.AsmMovRegMem32(x86.EBX, 0x300000), // beyond the 64 KiB limit
		hlt,
	)
	fi := run(FidelisFactory(), image, prog, 0)
	hw := run(HardwareFactory(), image, prog, 0)
	ce := run(CelerFactory(), image, prog, 0)
	if fi.Snapshot.Exception == nil || fi.Snapshot.Exception.Vector != x86.ExcGP {
		t.Fatalf("fidelis should #GP, got %v", fi.Snapshot.Exception)
	}
	if hw.Snapshot.Exception == nil || hw.Snapshot.Exception.Vector != x86.ExcGP {
		t.Fatalf("hardware should #GP, got %v", hw.Snapshot.Exception)
	}
	if ce.Snapshot.Exception != nil {
		t.Fatalf("celer should not enforce the limit, got %v", ce.Snapshot.Exception)
	}
}

func TestCelerLeaveNotAtomic(t *testing.T) {
	image := machine.BaselineImage()
	clearPTE(image, 0x00350000)
	prog := cat(
		x86.AsmMovRegImm32(x86.EBP, 0x00350000),
		[]byte{0xc9}, // leave → #PF on the read
		hlt,
	)
	fi := run(FidelisFactory(), image, prog, 0)
	ce := run(CelerFactory(), image, prog, 0)
	// Both fault; fidelis leaves ESP at the delivery-adjusted baseline,
	// celer has clobbered ESP with EBP before faulting.
	fiESP := fi.Snapshot.CPU.GPR[x86.ESP]
	ceESP := ce.Snapshot.CPU.GPR[x86.ESP]
	if fiESP == ceESP {
		t.Fatalf("expected divergent ESP, both %#x", fiESP)
	}
}

func TestCelerCmpxchgNotAtomic(t *testing.T) {
	image := machine.BaselineImage()
	// Write-protect the destination page and set WP so a supervisor write
	// faults. The values are unequal so the accumulator gets reloaded (in
	// celer, before the failed write).
	prog := cat(
		x86.AsmMovMemImm32(0x300000, 7), // before protection kicks in? No:
		// the page is writable; we instead flip WP+RO via CR0 and the PTE.
		hlt,
	)
	_ = prog
	// Build the scenario directly: protect page, enable WP, run cmpxchg.
	pteAddr := uint32(machine.PTBase + (0x00350000>>12&0x3ff)*4)
	pte := image.Read(pteAddr, 4)
	image.Write(pteAddr, pte&^uint64(x86.PteRW), 4)
	image.Write(0x00350000, 7, 4) // destination value
	test := cat(
		// Enable CR0.WP.
		x86.AsmMovRegCR(x86.EAX, 0),
		[]byte{0x0d, 0x00, 0x00, 0x01, 0x00}, // or $0x10000, %eax
		x86.AsmMovCRReg(0, x86.EAX),
		x86.AsmMovRegImm32(x86.EAX, 5), // accumulator ≠ dest
		x86.AsmMovRegImm32(x86.ECX, 9),
		[]byte{0x0f, 0xb1, 0x0d, 0x00, 0x00, 0x35, 0x00}, // cmpxchg %ecx, mem
		hlt,
	)
	fi := run(FidelisFactory(), image, test, 0)
	ce := run(CelerFactory(), image, test, 0)
	if fi.Snapshot.Exception == nil || ce.Snapshot.Exception == nil {
		t.Fatalf("both should #PF: fi=%v ce=%v",
			fi.Snapshot.Exception, ce.Snapshot.Exception)
	}
	fiEAX := fi.Snapshot.CPU.GPR[x86.EAX]
	ceEAX := ce.Snapshot.CPU.GPR[x86.EAX]
	if fiEAX != 5 {
		t.Errorf("fidelis corrupted the accumulator: %#x", fiEAX)
	}
	if ceEAX != 7 {
		t.Errorf("celer should have corrupted the accumulator to 7, got %#x", ceEAX)
	}
}

func TestCelerIretPopOrder(t *testing.T) {
	image := machine.BaselineImage()
	// Place the iret frame across a page boundary with the *lower* page
	// (holding EIP and CS) not present and EFLAGS on the next, present
	// page. The references read EIP first and fault with CR2 = &EIP,
	// never touching the upper page; celer reads EFLAGS first (setting the
	// upper page's accessed bit) and then faults on CS with CR2 = &CS —
	// exactly the paper's "significant only across pages" observation.
	const frameBase = 0x00351ff8 // EIP at +0, CS at +4 (missing page), EFLAGS at +8
	clearPTE(image, 0x00351000)
	prog := cat(
		x86.AsmMovRegImm32(x86.ESP, frameBase),
		[]byte{0xcf}, // iret
		hlt,
	)
	fi := run(FidelisFactory(), image, prog, 0)
	ce := run(CelerFactory(), image, prog, 0)
	hw := run(HardwareFactory(), image, prog, 0)
	// CR2 ends up reflecting the delivery fault (the exception frame lands
	// on the same missing page), so the observable signal is the accessed
	// bit of the EFLAGS page: only celer touches it before faulting.
	pteUpper := func(r *Result) uint64 {
		return r.Snapshot.Mem.Read(machine.PTBase+(0x00352000>>12)*4, 4)
	}
	if pteUpper(fi)&x86.PteA != 0 || pteUpper(hw)&x86.PteA != 0 {
		t.Error("references must not touch the EFLAGS page before faulting")
	}
	if pteUpper(ce)&x86.PteA == 0 {
		t.Error("celer reads EFLAGS first and must touch its page")
	}
}

func TestCelerRdmsrNoGP(t *testing.T) {
	image := machine.BaselineImage()
	prog := cat(
		x86.AsmMovRegImm32(x86.ECX, 0xdead),
		[]byte{0x0f, 0x32},
		hlt,
	)
	fi := run(FidelisFactory(), image, prog, 0)
	ce := run(CelerFactory(), image, prog, 0)
	if fi.Snapshot.Exception == nil || fi.Snapshot.Exception.Vector != x86.ExcGP {
		t.Errorf("fidelis should #GP, got %v", fi.Snapshot.Exception)
	}
	if ce.Snapshot.Exception != nil {
		t.Errorf("celer should not raise, got %v", ce.Snapshot.Exception)
	}
}

func TestCelerAccessedBitNotSet(t *testing.T) {
	image := machine.BaselineImage()
	lo, hi := x86.MakeDescriptor(0, 0xfffff,
		x86.AttrP|x86.AttrS|x86.AttrWritable|x86.AttrG|x86.AttrDB) // A clear
	prog := cat(
		x86.AsmMovMemImm32(machine.GDTBase+12*8, uint32(lo)),
		x86.AsmMovMemImm32(machine.GDTBase+12*8+4, uint32(hi)),
		x86.AsmMovRegImm16(x86.EAX, 12<<3),
		x86.AsmMovSregReg(x86.GS, x86.EAX),
		hlt,
	)
	fi := run(FidelisFactory(), image, prog, 0)
	ce := run(CelerFactory(), image, prog, 0)
	descHi := func(r *Result) uint64 {
		return r.Snapshot.Mem.Read(machine.GDTBase+12*8+4, 4)
	}
	if descHi(fi)&(1<<8) == 0 {
		t.Error("fidelis should set the accessed bit")
	}
	if descHi(ce)&(1<<8) != 0 {
		t.Error("celer should not set the accessed bit")
	}
}

func TestCelerEncodingAcceptance(t *testing.T) {
	image := machine.BaselineImage()
	alias := cat([]byte{0x82, 0xc0, 0x01}, hlt) // 0x80 alias
	fi := run(FidelisFactory(), image, alias, 0)
	ce := run(CelerFactory(), image, alias, 0)
	if fi.Snapshot.Exception != nil {
		t.Errorf("fidelis should accept 0x82, got %v", fi.Snapshot.Exception)
	}
	if ce.Snapshot.Exception == nil || ce.Snapshot.Exception.Vector != x86.ExcUD {
		t.Errorf("celer should reject 0x82, got %v", ce.Snapshot.Exception)
	}
	// grp2 /6: references #UD, celer executes it as shl.
	slot6 := cat(x86.AsmMovRegImm32(x86.EAX, 1), []byte{0xc1, 0xf0, 0x03}, hlt)
	fi = run(FidelisFactory(), image, slot6, 0)
	ce = run(CelerFactory(), image, slot6, 0)
	if fi.Snapshot.Exception == nil || fi.Snapshot.Exception.Vector != x86.ExcUD {
		t.Errorf("fidelis should reject grp2 /6, got %v", fi.Snapshot.Exception)
	}
	if ce.Snapshot.Exception != nil {
		t.Errorf("celer should accept grp2 /6, got %v", ce.Snapshot.Exception)
	}
	if ce.Snapshot.CPU.GPR[x86.EAX] != 8 {
		t.Errorf("celer grp2/6 as shl: eax = %#x, want 8", ce.Snapshot.CPU.GPR[x86.EAX])
	}
}

func TestFidelisLfsFetchOrderQuirk(t *testing.T) {
	image := machine.BaselineImage()
	// Far pointer straddling a page boundary: offset dword on the missing
	// lower page? Arrange: offset at 0x351ffc (present), selector at
	// 0x352000 (not present). Hardware reads the offset first (touches the
	// lower page, then faults); Bochs-like fidelis reads the selector first
	// and faults before touching the lower page.
	clearPTE(image, 0x00352000)
	prog := cat(
		[]byte{0x0f, 0xb4, 0x1d, 0xfc, 0x1f, 0x35, 0x00}, // lfs mem, %ebx
		hlt,
	)
	fi := run(FidelisFactory(), image, prog, 0)
	hw := run(HardwareFactory(), image, prog, 0)
	pteLower := func(r *Result) uint64 {
		return r.Snapshot.Mem.Read(machine.PTBase+(0x00351000>>12)*4, 4)
	}
	if pteLower(hw)&x86.PteA == 0 {
		t.Error("hardware reads the offset first: lower page should be accessed")
	}
	if pteLower(fi)&x86.PteA != 0 {
		t.Error("fidelis reads the selector first: lower page should be untouched")
	}
}

func TestVerrVerwAgreeAcrossImplementations(t *testing.T) {
	image := machine.BaselineImage()
	// Install a read-only data descriptor at slot 12 and a non-present one
	// at slot 13; verr/verw must report the same ZF on every implementation.
	lo, hi := x86.MakeDescriptor(0, 0xfffff, x86.AttrP|x86.AttrS) // RO data
	image.Write(machine.GDTBase+12*8, uint64(lo), 4)
	image.Write(machine.GDTBase+12*8+4, uint64(hi), 4)
	lo2, hi2 := x86.MakeDescriptor(0, 0xfffff, x86.AttrS|x86.AttrWritable) // not present
	image.Write(machine.GDTBase+13*8, uint64(lo2), 4)
	image.Write(machine.GDTBase+13*8+4, uint64(hi2), 4)

	cases := []struct {
		name   string
		sel    uint16
		opcode byte // /4 verr, /5 verw
		wantZF bool
	}{
		{"verr-ro-data", 12 << 3, 4, true},
		{"verw-ro-data", 12 << 3, 5, false},
		{"verr-not-present", 13 << 3, 4, false},
		{"verw-flat-data", machine.SelData, 5, true},
		{"verr-null", 0, 4, false},
		{"verr-ldt", 12<<3 | 4, 4, false},
		{"verr-beyond-limit", 15 << 3, 4, false},
		{"verw-code", machine.SelCode, 5, false},
	}
	factories := []Factory{FidelisFactory(), CelerFactory(), HardwareFactory()}
	for _, c := range cases {
		prog := cat(
			x86.AsmMovRegImm16(x86.EAX, c.sel),
			[]byte{0x0f, 0x00, 0xc0 | c.opcode<<3}, // verr/verw %ax
			hlt,
		)
		for _, f := range factories {
			r := run(f, image, prog, 0)
			if r.Snapshot.Exception != nil {
				t.Fatalf("%s/%s: raised %v", c.name, r.Impl, r.Snapshot.Exception)
			}
			zf := r.Snapshot.CPU.EFLAGS&(1<<x86.FlagZF) != 0
			if zf != c.wantZF {
				t.Errorf("%s/%s: ZF=%v, want %v", c.name, r.Impl, zf, c.wantZF)
			}
		}
	}
}
