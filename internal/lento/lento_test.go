// In-package coverage suite for the direct-decode interpreter. Every test
// here is differential: the program runs on lento and on fidelis (the hi-fi
// IR evaluator) and the observable behavior — event stream, step count, and
// final snapshot — must be identical. That way the expected values are never
// hand-computed; the suite both drives lento's statement coverage (the
// `make cover` floor) and re-checks the voting-peer contract on each path.
package lento_test

import (
	"reflect"
	"sync"
	"testing"

	"pokeemu/internal/core"
	"pokeemu/internal/emu"
	"pokeemu/internal/harness"
	"pokeemu/internal/lento"
	"pokeemu/internal/machine"
	"pokeemu/internal/x86"
)

// uniqueInstrs caches the decoder exploration (it walks ~200k paths).
var uniqueInstrs = sync.OnceValue(func() []*core.UniqueInstr {
	return core.ExploreInstructionSet().Unique
})

// runBoth executes prog on lento and fidelis over the same image and fails
// the test on any observable divergence. It returns the lento result so
// callers can assert what actually happened (fault vectors, halts).
func runBoth(t *testing.T, name string, image *machine.Memory, prog []byte, maxSteps int) *harness.Result {
	t.Helper()
	rl := harness.Run(harness.LentoFactory(), image, prog, maxSteps)
	rf := harness.Run(harness.FidelisFactory(), image, prog, maxSteps)
	if !reflect.DeepEqual(rl.Events, rf.Events) {
		t.Errorf("%s: event streams differ:\n  lento:   %v\n  fidelis: %v", name, rl.Events, rf.Events)
	}
	if rl.Steps != rf.Steps {
		t.Errorf("%s: steps differ: lento %d, fidelis %d", name, rl.Steps, rf.Steps)
	}
	if !reflect.DeepEqual(rl.Snapshot, rf.Snapshot) {
		t.Errorf("%s: final snapshots differ", name)
	}
	return rl
}

// lastVector returns the exception vector of the final exception event, or
// -1 if the run raised none.
func lastVector(r *harness.Result) int {
	for i := len(r.Events) - 1; i >= 0; i-- {
		if r.Events[i].Exception != nil {
			return int(r.Events[i].Exception.Vector)
		}
	}
	return -1
}

// expectVector runs the program differentially and additionally requires
// that it faulted with the given vector (sanity that the scenario really
// exercised the intended path, not a decode error).
func expectVector(t *testing.T, name string, image *machine.Memory, prog []byte, vec int) {
	t.Helper()
	r := runBoth(t, name, image, prog, 64)
	if got := lastVector(r); got != vec {
		t.Errorf("%s: last exception vector = %d, want %d (events %v)", name, got, vec, r.Events)
	}
}

// prog concatenates instruction byte slices and appends hlt.
func prog(chunks ...[]byte) []byte {
	var p []byte
	for _, c := range chunks {
		p = append(p, c...)
	}
	return append(p, x86.AsmHlt()...)
}

// sweep runs the full unique-instruction matrix under the given register
// and flags pre-state. The matrix is the same one TestLentoDifferential in
// the harness package runs; doing it here (with a second pre-state) is what
// earns the lento package its own coverage profile.
func sweep(t *testing.T, regs map[x86.Reg]uint32, flags uint32) {
	t.Helper()
	pre := []byte{}
	for _, r := range []x86.Reg{x86.EAX, x86.ECX, x86.EDX, x86.EBX, x86.EBP, x86.ESI, x86.EDI} {
		pre = append(pre, x86.AsmMovRegImm32(r, regs[r])...)
	}
	pre = append(pre, x86.AsmPushImm32(flags)...)
	pre = append(pre, x86.AsmPopf()...)

	lf := harness.LentoFactory()
	ff := harness.FidelisFactory()
	for _, u := range uniqueInstrs() {
		p := append(append([]byte{}, pre...), u.Repr...)
		p = append(p, x86.AsmHlt()...)
		rl := harness.Run(lf, nil, p, 256)
		rf := harness.Run(ff, nil, p, 256)
		if !reflect.DeepEqual(rl.Events, rf.Events) || rl.Steps != rf.Steps ||
			!reflect.DeepEqual(rl.Snapshot, rf.Snapshot) {
			t.Errorf("%s (% x): lento and fidelis diverge", u.Key(), u.Repr)
		}
	}
}

// TestMatrixBaseline is the in-package edition of the harness differential
// matrix: mixed flags, small shift/rep counts, addresses into the data
// window.
func TestMatrixBaseline(t *testing.T) {
	sweep(t, map[x86.Reg]uint32{
		x86.EAX: 0x00010203, x86.ECX: 3, x86.EDX: 0x80,
		x86.EBX: 0x2000, x86.EBP: 0x3000, x86.ESI: 0x2100, x86.EDI: 0x2200,
	}, 0x8d5)
}

// TestMatrixAlternate reruns the matrix under an adversarial pre-state:
// all flags clear but DF set (string ops walk down, every condition code
// takes the other branch), a zero divisor register, an out-of-lane shift
// count, and ECX large enough to exercise multi-iteration rep loops.
func TestMatrixAlternate(t *testing.T) {
	sweep(t, map[x86.Reg]uint32{
		x86.EAX: 0xffffffff, x86.ECX: 0x21, x86.EDX: 0,
		x86.EBX: 0x5000, x86.EBP: 0x5100, x86.ESI: 0x5180, x86.EDI: 0x51c0,
	}, 0x402) // DF only
}

// ---- Paging ----

func TestPageFaultPaths(t *testing.T) {
	pte := func(page uint32) uint32 { return machine.PTBase + page*4 }

	// Read from a page whose PTE has been cleared: #PF, CR2 = fault address.
	img := machine.BaselineImage()
	img.Write(pte(0x123), 0, 4)
	expectVector(t, "pf-read", img,
		prog(x86.AsmMovRegMem32(x86.EAX, 0x123000)), int(x86.ExcPF))

	// Write to a present page without the RW bit: supervisor writes honor it
	// only under CR0.WP, so the program raises WP first. #PF with the write
	// bit in the error code.
	img = machine.BaselineImage()
	img.Write(pte(0x124), 0x124000|0x5, 4) // P|US, no RW
	expectVector(t, "pf-write-protect", img,
		prog(x86.AsmMovRegCR(x86.EAX, 0),
			[]byte{0x0d, 0x00, 0x00, 0x01, 0x00}, // or eax, 1<<16 (WP)
			x86.AsmMovCRReg(0, x86.EAX),
			x86.AsmMovMemImm32(0x124000, 0xdead)), int(x86.ExcPF))

	// A 4-byte access straddling into a not-present page faults on the
	// second page of the crossing.
	img = machine.BaselineImage()
	img.Write(pte(0x126), 0, 4)
	expectVector(t, "pf-cross", img,
		prog(x86.AsmMovRegMem32(x86.EAX, 0x125ffd)), int(x86.ExcPF))

	// Not-present page directory entry: the walk faults at the PDE level.
	img = machine.BaselineImage()
	img.Write(machine.PDBase+3*4, 0, 4)
	expectVector(t, "pf-pde", img,
		prog(x86.AsmMovRegMem32(x86.EAX, 3<<22)), int(x86.ExcPF))
}

// ---- Segmentation ----

// descImage builds a baseline image with an extra GDT descriptor at index
// 11 (selector 0x58).
func descImage(base, limit20 uint32, attr uint16) *machine.Memory {
	img := machine.BaselineImage()
	lo, hi := x86.MakeDescriptor(base, limit20, attr)
	img.Write(machine.GDTBase+11*8, uint64(lo), 4)
	img.Write(machine.GDTBase+11*8+4, uint64(hi), 4)
	return img
}

const sel11 = 11 << 3 // the descriptor descImage plants

// loadES assembles "mov ax, sel; mov es, ax".
func loadES(sel uint16) []byte {
	return append(x86.AsmMovRegImm32(x86.EAX, uint32(sel)), x86.AsmMovSregReg(x86.ES, x86.EAX)...)
}

func TestSegmentLoadFaults(t *testing.T) {
	flatData := uint16(x86.AttrP | x86.AttrS | x86.AttrWritable | x86.AttrG | x86.AttrDB)

	// Selector with the TI bit: no LDT exists, #GP.
	expectVector(t, "seg-ti", nil, prog(loadES(sel11|4)), int(x86.ExcGP))

	// Selector beyond the GDT limit.
	expectVector(t, "seg-limit", nil, prog(loadES(machine.GDTEntries*8)), int(x86.ExcGP))

	// System descriptor (S clear).
	expectVector(t, "seg-system", descImage(0, 0xfffff, flatData&^x86.AttrS),
		prog(loadES(sel11)), int(x86.ExcGP))

	// Not-present data segment: #NP.
	expectVector(t, "seg-np", descImage(0, 0xfffff, flatData&^x86.AttrP),
		prog(loadES(sel11)), int(x86.ExcNP))

	// Execute-only code segment is not readable as data.
	expectVector(t, "seg-execonly", descImage(0, 0xfffff, uint16(x86.AttrP|x86.AttrS|x86.AttrCode|x86.AttrG|x86.AttrDB)),
		prog(loadES(sel11)), int(x86.ExcGP))

	// RPL 3 against a DPL 0 descriptor: privilege check fails.
	expectVector(t, "seg-rpl", descImage(0, 0xfffff, flatData),
		prog(loadES(sel11|3)), int(x86.ExcGP))

	// Null selector loads fine but leaves the segment unusable; the next
	// ES-relative access faults.
	expectVector(t, "seg-null-use", nil,
		prog(loadES(0),
			x86.AsmMovRegImm32(x86.EBX, 0x5000),
			[]byte{0x26, 0x8b, 0x03}), // mov eax, es:[ebx]
		int(x86.ExcGP))
}

func TestStackSegmentFaults(t *testing.T) {
	flatData := uint16(x86.AttrP | x86.AttrS | x86.AttrWritable | x86.AttrG | x86.AttrDB)
	loadSS := func(sel uint16) []byte {
		return append(x86.AsmMovRegImm32(x86.EAX, uint32(sel)), x86.AsmMovSregReg(x86.SS, x86.EAX)...)
	}

	// Null SS is a #GP(0) at load time.
	expectVector(t, "ss-null", nil, prog(loadSS(0)), int(x86.ExcGP))

	// SS requires RPL == DPL == 0.
	expectVector(t, "ss-rpl", descImage(0, 0xfffff, flatData),
		prog(loadSS(sel11|1)), int(x86.ExcGP))
	expectVector(t, "ss-dpl", descImage(0, 0xfffff, flatData|3<<x86.AttrDPLShift),
		prog(loadSS(sel11)), int(x86.ExcGP))

	// Read-only data can't back a stack.
	expectVector(t, "ss-readonly", descImage(0, 0xfffff, flatData&^x86.AttrWritable),
		prog(loadSS(sel11)), int(x86.ExcGP))

	// Not-present SS raises #SS (not #NP).
	expectVector(t, "ss-np", descImage(0, 0xfffff, flatData&^x86.AttrP),
		prog(loadSS(sel11)), int(x86.ExcSS))
}

func TestSegmentLimitChecks(t *testing.T) {
	// Byte-granular ES with limit 0xfff: an access whose last byte is past
	// the limit takes #GP, an in-range one succeeds.
	smallData := uint16(x86.AttrP | x86.AttrS | x86.AttrWritable | x86.AttrDB)
	img := descImage(0x5000, 0xfff, smallData)
	expectVector(t, "limit-over", img,
		prog(loadES(sel11),
			x86.AsmMovRegImm32(x86.EBX, 0xffd),
			[]byte{0x26, 0x8b, 0x03}), // crosses the limit
		int(x86.ExcGP))
	r := runBoth(t, "limit-in", img,
		prog(loadES(sel11),
			x86.AsmMovRegImm32(x86.EBX, 0xffc),
			[]byte{0x26, 0x8b, 0x03}), 64)
	if v := lastVector(r); v != -1 {
		t.Errorf("limit-in faulted with vector %d", v)
	}

	// Offset arithmetic that wraps the 4 GiB space is rejected.
	expectVector(t, "limit-wrap", nil,
		prog(x86.AsmMovRegImm32(x86.EBX, 0xffffffff),
			[]byte{0x26, 0x8b, 0x03}),
		int(x86.ExcGP))

	// Expand-down: offsets at or below the limit fault, above it are valid
	// (up to the 32-bit upper bound with the DB bit).
	expDown := uint16(x86.AttrP | x86.AttrS | x86.AttrWritable | x86.AttrExpand | x86.AttrDB)
	img = descImage(0, 0xfff, expDown)
	expectVector(t, "expanddown-low", img,
		prog(loadES(sel11),
			x86.AsmMovRegImm32(x86.EBX, 0x800),
			[]byte{0x26, 0x8b, 0x03}),
		int(x86.ExcGP))
	r = runBoth(t, "expanddown-ok", img,
		prog(loadES(sel11),
			x86.AsmMovRegImm32(x86.EBX, 0x5000),
			[]byte{0x26, 0x8b, 0x03}), 64)
	if v := lastVector(r); v != -1 {
		t.Errorf("expanddown-ok faulted with vector %d", v)
	}
	// Without DB the upper bound is 0xffff.
	img = descImage(0, 0xfff, expDown&^x86.AttrDB)
	expectVector(t, "expanddown-16bit-over", img,
		prog(loadES(sel11),
			x86.AsmMovRegImm32(x86.EBX, 0x1fffd),
			[]byte{0x26, 0x8b, 0x03}),
		int(x86.ExcGP))

	// Writing through a read-only ES faults even though reads succeed.
	img = descImage(0, 0xfffff, uint16(x86.AttrP|x86.AttrS|x86.AttrG|x86.AttrDB))
	expectVector(t, "write-readonly", img,
		prog(loadES(sel11),
			x86.AsmMovRegImm32(x86.EBX, 0x5000),
			[]byte{0x26, 0x89, 0x03}), // mov es:[ebx], eax
		int(x86.ExcGP))
}

// ---- Exception delivery ----

func TestDeliveryFailures(t *testing.T) {
	gate := func(v uint32) uint32 { return machine.IDTBase + v*8 }

	// #UD with the IDT limit pulled to zero: the gate is out of range, #DF
	// is out of range too — shutdown.
	shrink := prog(
		x86.AsmMovMemImm16(machine.ScratchBase+0x100, 0),
		x86.AsmMovMemImm32(machine.ScratchBase+0x102, machine.IDTBase),
		x86.AsmLIDT(machine.ScratchBase+0x100),
		[]byte{0x0f, 0x0b}, // ud2
	)
	r := runBoth(t, "idt-empty", nil, shrink, 64)
	if len(r.Events) == 0 || r.Events[len(r.Events)-1].Kind != emu.EventShutdown {
		t.Errorf("idt-empty: events %v, want terminal shutdown", r.Events)
	}

	// Non-present #UD gate: delivery fails, escalates to a working #DF gate.
	img := machine.BaselineImage()
	img.Write(gate(uint32(x86.ExcUD))+4, 0, 4)
	expectVector(t, "gate-notpresent", img, prog([]byte{0x0f, 0x0b}), int(x86.ExcUD))

	// Malformed gate type (task gate bits): same escalation.
	img = machine.BaselineImage()
	img.Write(gate(uint32(x86.ExcUD))+4, 0x8500, 4)
	expectVector(t, "gate-badtype", img, prog([]byte{0x0f, 0x0b}), int(x86.ExcUD))

	// Trap gate (type 0xf) leaves IF set; the differential snapshot pins it.
	img = machine.BaselineImage()
	hi := img.Read(gate(3)+4, 4)
	img.Write(gate(3)+4, hi|0x100, 4) // type 0xe -> 0xf
	expectVector(t, "trap-gate", img, prog([]byte{0xcc}), 3)

	// Stack unable to hold the exception frame: the delivery pushes fault,
	// shutdown. SS gets a tiny segment whose limit ESP is far beyond.
	flatData := uint16(x86.AttrP | x86.AttrS | x86.AttrWritable | x86.AttrDB)
	img = descImage(0, 0xfff, flatData)
	bad := prog(
		x86.AsmMovRegImm32(x86.EAX, sel11),
		x86.AsmMovSregReg(x86.SS, x86.EAX),
		[]byte{0x0f, 0x0b}, // ud2; frame push at ESP=0x200800 > limit
	)
	r = runBoth(t, "frame-push-fault", img, bad, 64)
	if len(r.Events) == 0 || r.Events[len(r.Events)-1].Kind != emu.EventShutdown {
		t.Errorf("frame-push-fault: events %v, want terminal shutdown", r.Events)
	}
}

func TestSoftwareInterrupts(t *testing.T) {
	expectVector(t, "int3", nil, prog([]byte{0xcc}), 3)
	expectVector(t, "int-0x40", nil, prog([]byte{0xcd, 0x40}), 0x40)
	// into with OF set traps; with OF clear it falls through.
	expectVector(t, "into-of", nil,
		prog(x86.AsmPushImm32(0x802), x86.AsmPopf(), []byte{0xce}), int(x86.ExcOF))
	r := runBoth(t, "into-clear", nil,
		prog(x86.AsmPushImm32(0x2), x86.AsmPopf(), []byte{0xce}), 64)
	if v := lastVector(r); v != -1 {
		t.Errorf("into-clear faulted with vector %d", v)
	}
}

// ---- Arithmetic fault and edge paths ----

func TestDivideFaults(t *testing.T) {
	// div by zero at 8/32-bit widths.
	expectVector(t, "div32-zero", nil,
		prog(x86.AsmMovRegImm32(x86.ECX, 0), []byte{0xf7, 0xf1}), int(x86.ExcDE))
	expectVector(t, "div8-zero", nil,
		prog(x86.AsmMovRegImm32(x86.ECX, 0), []byte{0xf6, 0xf1}), int(x86.ExcDE))
	// Quotient overflow.
	expectVector(t, "div8-overflow", nil,
		prog(x86.AsmMovRegImm32(x86.EAX, 0x1000),
			x86.AsmMovRegImm32(x86.ECX, 1), []byte{0xf6, 0xf1}), int(x86.ExcDE))
	// idiv INT_MIN / -1 overflows.
	expectVector(t, "idiv32-overflow", nil,
		prog(x86.AsmMovRegImm32(x86.EAX, 0x80000000),
			x86.AsmMovRegImm32(x86.EDX, 0xffffffff),
			x86.AsmMovRegImm32(x86.ECX, 0xffffffff),
			[]byte{0xf7, 0xf9}), int(x86.ExcDE))
	// aam 0 divides by the immediate.
	expectVector(t, "aam-zero", nil, prog([]byte{0xd4, 0x00}), int(x86.ExcDE))
	// A successful idiv with negative operands (sign-handling branches).
	r := runBoth(t, "idiv-negative", nil,
		prog(x86.AsmMovRegImm32(x86.EAX, 0xffffff85), // -123
			[]byte{0x99},                            // cdq
			x86.AsmMovRegImm32(x86.ECX, 0xfffffff6), // -10
			[]byte{0xf7, 0xf9}), 64)
	if v := lastVector(r); v != -1 {
		t.Errorf("idiv-negative faulted with vector %d", v)
	}
}

func TestShiftEdges(t *testing.T) {
	// Count 0 leaves flags untouched; counts masked mod 32; rcl/rcr wide
	// rotates through CF; single-bit forms define OF.
	cases := [][]byte{
		{0xc1, 0xe0, 0x00},             // shl eax, 0
		{0xc1, 0xe0, 0x20},             // shl eax, 32 (masked to 0)
		{0xd3, 0xe0},                   // shl eax, cl
		{0xd3, 0xd0},                   // rcl eax, cl
		{0xd3, 0xd8},                   // rcr eax, cl
		{0xc1, 0xd0, 0x09},             // rcl eax, 9
		{0x66, 0xc1, 0xd0, 0x11},       // rcl ax, 17 (mod 17 lane)
		{0x66, 0xc1, 0xd8, 0x11},       // rcr ax, 17
		{0xd1, 0xd0},                   // rcl eax, 1
		{0xd1, 0xd8},                   // rcr eax, 1
		{0xc1, 0xc0, 0x21},             // rol eax, 33
		{0xc1, 0xc8, 0x21},             // ror eax, 33
		{0x0f, 0xa4, 0xc8, 0x00},       // shld eax, ecx, 0
		{0x0f, 0xa4, 0xc8, 0x21},       // shld eax, ecx, 33
		{0x0f, 0xac, 0xc8, 0x05},       // shrd eax, ecx, 5
		{0x66, 0x0f, 0xa4, 0xc8, 0x12}, // shld ax, cx, 18 (count > width)
	}
	for _, c := range cases {
		runBoth(t, "shift", nil,
			prog(x86.AsmMovRegImm32(x86.EAX, 0x80000001),
				x86.AsmMovRegImm32(x86.ECX, 0x23), c), 64)
	}
}

func TestHighByteRegisters(t *testing.T) {
	// AH/CH/DH/BH operand paths (ModRM reg and r/m indices 4-7 at width 8).
	p := prog(
		x86.AsmMovRegImm32(x86.EAX, 0x11223344),
		x86.AsmMovRegImm32(x86.EBX, 0x55667788),
		[]byte{0xb4, 0x7f}, // mov ah, 0x7f
		[]byte{0x00, 0xe7}, // add bh, ah
		[]byte{0x28, 0xfc}, // sub ah, bh
		[]byte{0x88, 0xe5}, // mov ch, ah
		[]byte{0xf6, 0xdd}, // neg ch
		[]byte{0x86, 0xe6}, // xchg ah, dh
	)
	runBoth(t, "high-bytes", nil, p, 64)
}

// ---- Bit operations ----

func TestBitOpsMemoryForms(t *testing.T) {
	// The memory forms of bt/bts/btr/btc address bits beyond the operand:
	// bit 100 of [ebx] touches dword [ebx+12].
	for _, op := range [][]byte{
		{0x0f, 0xa3, 0x0b}, // bt [ebx], ecx
		{0x0f, 0xab, 0x0b}, // bts [ebx], ecx
		{0x0f, 0xb3, 0x0b}, // btr [ebx], ecx
		{0x0f, 0xbb, 0x0b}, // btc [ebx], ecx
	} {
		runBoth(t, "btx-mem", nil,
			prog(x86.AsmMovRegImm32(x86.EBX, 0x5000),
				x86.AsmMovRegImm32(x86.ECX, 100),
				x86.AsmMovMemImm32(0x500c, 0xa5a5a5a5), op), 64)
		// Negative bit index walks backwards.
		runBoth(t, "btx-mem-neg", nil,
			prog(x86.AsmMovRegImm32(x86.EBX, 0x5010),
				x86.AsmMovRegImm32(x86.ECX, 0xffffffe0), // bit -32
				x86.AsmMovMemImm32(0x500c, 0x5a5a5a5a), op), 64)
	}
	// bsf/bsr on zero and nonzero sources.
	for _, src := range []uint32{0, 0x00800100} {
		runBoth(t, "bsf-bsr", nil,
			prog(x86.AsmMovRegImm32(x86.ECX, src),
				[]byte{0x0f, 0xbc, 0xc1},  // bsf eax, ecx
				[]byte{0x0f, 0xbd, 0xd1}), // bsr edx, ecx
			64)
	}
}

// ---- String operations ----

func TestStringEdges(t *testing.T) {
	setup := prog(
		x86.AsmMovRegImm32(x86.ESI, 0x5100),
		x86.AsmMovRegImm32(x86.EDI, 0x5200),
		x86.AsmMovRegImm32(x86.EAX, 0x61626364),
		x86.AsmMovRegImm32(x86.ECX, 0),
		[]byte{0xf3, 0xa4}, // rep movsb with ecx=0: no iterations
	)
	runBoth(t, "rep-zero", nil, setup, 64)

	// DF set: every string op walks down.
	down := prog(
		x86.AsmMovRegImm32(x86.ESI, 0x5100),
		x86.AsmMovRegImm32(x86.EDI, 0x5200),
		x86.AsmMovRegImm32(x86.EAX, 0x61626364),
		x86.AsmMovRegImm32(x86.ECX, 5),
		[]byte{0xfd},       // std
		[]byte{0xf3, 0xa5}, // rep movsd
		x86.AsmMovRegImm32(x86.ECX, 5),
		[]byte{0xf3, 0xaa}, // rep stosb
		x86.AsmMovRegImm32(x86.ECX, 5),
		[]byte{0xf3, 0xac}, // rep lodsb
	)
	runBoth(t, "string-down", nil, down, 64)

	// repne scasb finding a match mid-buffer vs. exhausting the count;
	// repe cmpsb diverging mid-buffer.
	scan := prog(
		x86.AsmMovMemImm32(0x5200, 0x00414141), // "AAA\0"
		x86.AsmMovRegImm32(x86.EDI, 0x5200),
		x86.AsmMovRegImm32(x86.EAX, 0),
		x86.AsmMovRegImm32(x86.ECX, 8),
		[]byte{0xf2, 0xae}, // repne scasb: stops at the NUL
		x86.AsmMovRegImm32(x86.EDI, 0x5200),
		x86.AsmMovRegImm32(x86.ESI, 0x5204),
		x86.AsmMovRegImm32(x86.ECX, 4),
		[]byte{0xf3, 0xa6}, // repe cmpsb: mismatch immediately
	)
	runBoth(t, "string-scan", nil, scan, 64)

	// A string iteration that faults mid-rep commits the completed
	// iterations (ESI/EDI/ECX show the progress).
	img := machine.BaselineImage()
	img.Write(machine.PTBase+0x53*4, 0, 4) // page 0x53000 not present
	faulting := prog(
		x86.AsmMovRegImm32(x86.EDI, 0x52ffc),
		x86.AsmMovRegImm32(x86.EAX, 0x2a),
		x86.AsmMovRegImm32(x86.ECX, 16),
		[]byte{0xf3, 0xaa}, // rep stosb runs off the mapped page
	)
	expectVector(t, "rep-fault", img, faulting, int(x86.ExcPF))
}

// TestRepTimeout: a rep count past the interpreter's iteration budget ends
// the run with a timeout event instead of looping forever. Lento-only: the
// event contract is already pinned differentially elsewhere, and fidelis
// takes orders of magnitude longer to burn 4M iterations.
func TestRepTimeout(t *testing.T) {
	p := prog(
		x86.AsmMovRegImm32(x86.ESI, 0x5000),
		x86.AsmMovRegImm32(x86.ECX, 0x500000), // > repBudget (1<<22)
		[]byte{0xf3, 0xac},                    // rep lodsb (reads only: page tables survive)
	)
	r := harness.Run(harness.LentoFactory(), nil, p, 64)
	if len(r.Events) == 0 || r.Events[len(r.Events)-1].Kind != emu.EventTimeout {
		t.Errorf("events %v, want terminal timeout", r.Events)
	}
}

// ---- Control flow ----

func TestFlowEdges(t *testing.T) {
	// jecxz taken and not taken; loop family with counts that terminate.
	runBothDefault(t, "jecxz-taken",
		prog(x86.AsmMovRegImm32(x86.ECX, 0),
			[]byte{0xe3, 0x01, 0xf4})) // jecxz +1 over a hlt
	runBothDefault(t, "jecxz-not",
		prog(x86.AsmMovRegImm32(x86.ECX, 1),
			[]byte{0xe3, 0x01, 0x90}))
	// loop: decrement until zero. loope/loopne with ZF play.
	runBothDefault(t, "loop",
		prog(x86.AsmMovRegImm32(x86.ECX, 3),
			[]byte{0x90},        // target
			[]byte{0xe2, 0xfd})) // loop -3
	runBothDefault(t, "loopne",
		prog(x86.AsmMovRegImm32(x86.ECX, 5),
			x86.AsmMovRegImm32(x86.EAX, 3),
			[]byte{0x48},        // dec eax (sets ZF when 0)
			[]byte{0xe0, 0xfd})) // loopne -3
	runBothDefault(t, "loope",
		prog(x86.AsmMovRegImm32(x86.ECX, 5),
			[]byte{0x31, 0xc0},  // xor eax, eax: ZF set
			[]byte{0xe1, 0xfe})) // loope -2 (spins until ecx hits 0)

	// call/ret through a register target, ret imm16.
	runBothDefault(t, "call-ret",
		prog([]byte{0xe8, 0x01, 0x00, 0x00, 0x00}, // call over the hlt to ret
			[]byte{0xf4},  // executed after the ret
			[]byte{0xc3})) // ret
	runBothDefault(t, "call-rm",
		prog(x86.AsmMovRegImm32(x86.EAX, machine.CodeBase+8),
			[]byte{0xff, 0xd0}, // call eax -> the trailing hlt
			[]byte{0x90}))
	runBothDefault(t, "ret-imm",
		prog(x86.AsmPushImm32(machine.CodeBase+9),
			[]byte{0xc2, 0x08, 0x00}, // ret 8 -> the trailing hlt
			[]byte{0x90}))
	// jmp through a register.
	runBothDefault(t, "jmp-rm",
		prog(x86.AsmMovRegImm32(x86.EAX, machine.CodeBase+7),
			[]byte{0xff, 0xe0}))
}

func runBothDefault(t *testing.T, name string, p []byte) *harness.Result {
	t.Helper()
	return runBoth(t, name, nil, p, 64)
}

func TestIret(t *testing.T) {
	// Hand-built frame: EIP, CS, EFLAGS pushed in reverse, then iret
	// resumes past the hlt it jumps over.
	p := prog(
		x86.AsmPushImm32(0x8d7),               // EFLAGS image
		x86.AsmPushImm32(machine.SelCode),     // CS
		x86.AsmPushImm32(machine.CodeBase+17), // EIP: the trailing hlt
		[]byte{0xcf},                          // iret
		[]byte{0xf4},                          // skipped
	)
	r := runBoth(t, "iret", nil, p, 64)
	if v := lastVector(r); v != -1 {
		t.Errorf("iret faulted with vector %d", v)
	}

	// iret to a bad CS selector faults after the frame is consumed.
	expectVector(t, "iret-badcs", nil,
		prog(x86.AsmPushImm32(0x8d7),
			x86.AsmPushImm32(machine.GDTEntries*8), // out of GDT
			x86.AsmPushImm32(machine.CodeBase),
			[]byte{0xcf}),
		int(x86.ExcGP))
	// iret to a data selector: CS must be code.
	expectVector(t, "iret-datacs", nil,
		prog(x86.AsmPushImm32(0x8d7),
			x86.AsmPushImm32(machine.SelData),
			x86.AsmPushImm32(machine.CodeBase),
			[]byte{0xcf}),
		int(x86.ExcGP))
}

// ---- Stack frame instructions ----

func TestEnterLeave(t *testing.T) {
	// enter with nesting levels 0, 1, and 3 (the level-loop copies frame
	// pointers), then leave unwinds.
	for _, c := range [][]byte{
		{0xc8, 0x10, 0x00, 0x00}, // enter 16, 0
		{0xc8, 0x10, 0x00, 0x01}, // enter 16, 1
		{0xc8, 0x08, 0x00, 0x03}, // enter 8, 3
	} {
		runBothDefault(t, "enter",
			prog(x86.AsmMovRegImm32(x86.EBP, machine.StackTop-0x40),
				c, []byte{0xc9})) // leave
	}
}

// ---- System instruction edges ----

func TestControlRegisterFaults(t *testing.T) {
	movToCR0 := func(v uint32) []byte {
		return append(x86.AsmMovRegImm32(x86.EAX, v), x86.AsmMovCRReg(0, x86.EAX)...)
	}
	// PG without PE.
	expectVector(t, "cr0-pg-no-pe", nil, prog(movToCR0(0x80000000)), int(x86.ExcGP))
	// NW without CD.
	expectVector(t, "cr0-nw-no-cd", nil, prog(movToCR0(0x20000001)), int(x86.ExcGP))
	// CR4 reserved bit.
	expectVector(t, "cr4-reserved", nil,
		prog(x86.AsmMovRegImm32(x86.EAX, 0x10000), x86.AsmMovCRReg(4, x86.EAX)), int(x86.ExcGP))
	// cr1 is not a register, either direction.
	expectVector(t, "cr1-write", nil, prog([]byte{0x0f, 0x22, 0xc8}), int(x86.ExcUD))
	expectVector(t, "cr1-read", nil, prog([]byte{0x0f, 0x20, 0xc8}), int(x86.ExcUD))
	// Valid CR2/CR3/CR4 writes and read-back.
	runBothDefault(t, "cr-roundtrip",
		prog(x86.AsmMovRegImm32(x86.EAX, 0xdeadb000),
			x86.AsmMovCRReg(2, x86.EAX),
			x86.AsmMovRegImm32(x86.EAX, machine.PDBase),
			x86.AsmMovCRReg(3, x86.EAX),
			x86.AsmMovRegImm32(x86.EAX, 0x10),
			x86.AsmMovCRReg(4, x86.EAX),
			x86.AsmMovRegCR(x86.EBX, 2),
			x86.AsmMovRegCR(x86.ECX, 3),
			x86.AsmMovRegCR(x86.EDX, 4),
			x86.AsmMovRegCR(x86.ESI, 0)))
}

func TestMSRs(t *testing.T) {
	// Unknown MSR index faults both directions.
	expectVector(t, "rdmsr-bad", nil,
		prog(x86.AsmMovRegImm32(x86.ECX, 0x12345), []byte{0x0f, 0x32}), int(x86.ExcGP))
	expectVector(t, "wrmsr-bad", nil,
		prog(x86.AsmMovRegImm32(x86.ECX, 0x12345), x86.AsmWrmsr()), int(x86.ExcGP))
	// TSC write is visible to rdtsc.
	runBothDefault(t, "msr-roundtrip",
		prog(x86.AsmMovRegImm32(x86.ECX, 0x10),
			x86.AsmMovRegImm32(x86.EAX, 0x11223344),
			x86.AsmMovRegImm32(x86.EDX, 0x55667788),
			x86.AsmWrmsr(),
			[]byte{0x0f, 0x31}, // rdtsc
			x86.AsmMovRegImm32(x86.ECX, 0x10),
			[]byte{0x0f, 0x32})) // rdmsr
}

func TestCpuidLeaves(t *testing.T) {
	for _, leaf := range []uint32{0, 1, 7} {
		runBothDefault(t, "cpuid",
			prog(x86.AsmMovRegImm32(x86.EAX, leaf), []byte{0x0f, 0xa2}))
	}
}

func TestDescriptorTableInstrs(t *testing.T) {
	// sgdt/sidt store the live bases; lgdt/lidt reload them from the stored
	// image; lmsw/smsw/clts round-trip CR0 bits.
	runBothDefault(t, "dt-roundtrip",
		prog([]byte{0x0f, 0x01, 0x05, 0x00, 0x51, 0x00, 0x00}, // sgdt [0x5100]
			[]byte{0x0f, 0x01, 0x0d, 0x10, 0x51, 0x00, 0x00}, // sidt [0x5110]
			x86.AsmLGDT(0x5100),
			x86.AsmLIDT(0x5110),
			x86.AsmMovRegImm32(x86.EAX, 0xb),
			[]byte{0x0f, 0x01, 0xf0},                          // lmsw ax
			[]byte{0x0f, 0x01, 0xe3},                          // smsw ebx
			[]byte{0x0f, 0x06},                                // clts
			[]byte{0x0f, 0x01, 0x3d, 0x00, 0x50, 0x00, 0x00})) // invlpg [0x5000]
}

func TestVerrVerw(t *testing.T) {
	// One program probes every verify path: null, TI, out-of-limit, the
	// flat data and code selectors, then verw against read-only data.
	img := descImage(0, 0xfffff, uint16(x86.AttrP|x86.AttrS|x86.AttrG|x86.AttrDB)) // RO data
	probe := func(sel uint16, verw bool) []byte {
		op := []byte{0x0f, 0x00, 0xe0} // verr ax
		if verw {
			op = []byte{0x0f, 0x00, 0xe8} // verw ax
		}
		return append(x86.AsmMovRegImm32(x86.EAX, uint32(sel)), op...)
	}
	runBoth(t, "verr-verw", img,
		prog(probe(0, false),
			probe(sel11|4, false),              // TI set
			probe(machine.GDTEntries*8, false), // out of limit
			probe(machine.SelData, false),      // readable data
			probe(machine.SelData, true),       // writable data
			probe(machine.SelCode, false),      // readable code
			probe(machine.SelCode, true),       // code never writable
			probe(sel11, true),                 // RO data: verw fails
			probe(sel11, false)),               // but verr succeeds
		64)
}

func TestSegmentRegisterMoves(t *testing.T) {
	// mov cs, r is undefined; segment register fields 6/7 are undefined.
	expectVector(t, "mov-cs", nil, prog([]byte{0x8e, 0xc8}), int(x86.ExcUD))
	expectVector(t, "mov-sreg6", nil, prog([]byte{0x8e, 0xf0}), int(x86.ExcUD))
	expectVector(t, "mov-rm-sreg7", nil, prog([]byte{0x8c, 0xf8}), int(x86.ExcUD))
	// Store and reload a data segment through memory, plus far loads.
	runBothDefault(t, "sreg-roundtrip",
		prog([]byte{0x8c, 0x1d, 0x00, 0x51, 0x00, 0x00}, // mov [0x5100], ds
			[]byte{0x8e, 0x05, 0x00, 0x51, 0x00, 0x00},        // mov es, [0x5100]
			x86.AsmMovMemImm32(0x5200, 0x00005300),            // far pointer offset
			x86.AsmMovMemImm16(0x5204, machine.SelData),       // selector
			[]byte{0xc4, 0x0d, 0x00, 0x52, 0x00, 0x00},        // les ecx, [0x5200]
			[]byte{0xc5, 0x15, 0x00, 0x52, 0x00, 0x00},        // lds edx, [0x5200]
			[]byte{0x0f, 0xb4, 0x1d, 0x00, 0x52, 0x00, 0x00},  // lfs ebx, [0x5200]
			[]byte{0x0f, 0xb5, 0x35, 0x00, 0x52, 0x00, 0x00})) // lgs esi, [0x5200]
	// lss with a valid stack selector.
	runBothDefault(t, "lss",
		prog(x86.AsmMovMemImm32(0x5200, machine.StackTop-0x10),
			x86.AsmMovMemImm16(0x5204, machine.SelSS),
			[]byte{0x0f, 0xb2, 0x25, 0x00, 0x52, 0x00, 0x00})) // lss esp, [0x5200]
	// Far load with a bad selector leaves the register untouched.
	expectVector(t, "les-bad", nil,
		prog(x86.AsmMovMemImm32(0x5200, 0x1234),
			x86.AsmMovMemImm16(0x5204, machine.GDTEntries*8),
			[]byte{0xc4, 0x0d, 0x00, 0x52, 0x00, 0x00}),
		int(x86.ExcGP))
}

// ---- Decode edges ----

func TestDecodeFaults(t *testing.T) {
	// 15 prefix bytes push the instruction past the architectural length
	// limit; the 15-byte fetch window truncates mid-decode, which the
	// reference semantics map to #UD.
	long := make([]byte, 0, 17)
	for i := 0; i < 15; i++ {
		long = append(long, 0x66)
	}
	long = append(long, 0x90)
	expectVector(t, "too-long", nil, prog(long), int(x86.ExcUD))

	// Unknown opcode.
	expectVector(t, "bad-opcode", nil, prog([]byte{0xf1}), int(x86.ExcUD))

	// lock on a non-lockable instruction, on a register form, and valid on
	// a memory read-modify-write.
	expectVector(t, "lock-nop", nil, prog([]byte{0xf0, 0x90}), int(x86.ExcUD))
	expectVector(t, "lock-reg", nil, prog([]byte{0xf0, 0x01, 0xc8}), int(x86.ExcUD))
	runBothDefault(t, "lock-mem",
		prog(x86.AsmMovRegImm32(x86.EBX, 0x5000),
			[]byte{0xf0, 0x01, 0x03})) // lock add [ebx], eax

	// An instruction whose bytes run into a not-present page: the fetch
	// fault surfaces once decode reports truncation.
	img := machine.BaselineImage()
	img.Write(machine.PTBase+0x101*4, 0, 4) // page after the code page
	p := make([]byte, 0xffe)
	for i := range p {
		p[i] = 0x90
	}
	p[0] = 0xe9 // jmp rel32 to 0xffd (one byte before the page end)
	rel := 0xffd - 5
	p[1], p[2], p[3], p[4] = byte(rel), byte(rel>>8), byte(rel>>16), byte(rel>>24)
	p[0xffd] = 0xc7 // mov rm32, imm32 truncated at the page boundary
	expectVector(t, "fetch-fault", img, p, int(x86.ExcPF))
}

// ---- Addressing-mode coverage ----

func TestAddressingModes(t *testing.T) {
	p := prog(
		x86.AsmMovRegImm32(x86.EBX, 0x5000),
		x86.AsmMovRegImm32(x86.ECX, 0x10),
		x86.AsmMovRegImm32(x86.EBP, 0x5100),
		[]byte{0x89, 0x03},                               // [ebx]
		[]byte{0x89, 0x43, 0x08},                         // [ebx+8]
		[]byte{0x89, 0x83, 0x00, 0x01, 0x00, 0x00},       // [ebx+0x100]
		[]byte{0x89, 0x45, 0x04},                         // [ebp+4] (SS default)
		[]byte{0x89, 0x04, 0x0b},                         // [ebx+ecx] (SIB)
		[]byte{0x89, 0x04, 0x4b},                         // [ebx+ecx*2]
		[]byte{0x89, 0x04, 0x8b},                         // [ebx+ecx*4]
		[]byte{0x89, 0x04, 0xcb},                         // [ebx+ecx*8]
		[]byte{0x89, 0x04, 0x25, 0x00, 0x52, 0x00, 0x00}, // [disp32] via SIB base=5
		[]byte{0x89, 0x04, 0x24},                         // [esp] (SIB base=4 -> SS)
		[]byte{0x89, 0x44, 0x8d, 0x20},                   // [ebp+ecx*4+0x20] (SS)
		[]byte{0x89, 0x05, 0x30, 0x52, 0x00, 0x00},       // [disp32] mod0 rm5
		[]byte{0x64, 0x89, 0x03},                         // fs: override
		[]byte{0x65, 0x8b, 0x03},                         // gs: override
		[]byte{0x36, 0x89, 0x03},                         // ss: override
		[]byte{0x3e, 0x89, 0x03},                         // ds: override
		[]byte{0x2e, 0x8b, 0x03},                         // cs: override (read)
	)
	runBoth(t, "addr-modes", nil, p, 96)
}

// TestMemoryCrossPage drives the split-access path: a dword written across
// a page boundary lands byte-correct on both frames.
func TestMemoryCrossPage(t *testing.T) {
	runBothDefault(t, "cross-write",
		prog(x86.AsmMovRegImm32(x86.EAX, 0xa1b2c3d4),
			x86.AsmMovRegImm32(x86.EBX, 0x5ffe),
			[]byte{0x89, 0x03},  // write straddling 0x5fff/0x6000
			[]byte{0x8b, 0x0b})) // read it back

	// Misaligned 16-bit operand-size access across the boundary.
	runBothDefault(t, "cross-16",
		prog(x86.AsmMovRegImm32(x86.EBX, 0x5fff),
			[]byte{0x66, 0xc7, 0x03, 0x34, 0x12}, // mov word [ebx], 0x1234
			[]byte{0x66, 0x8b, 0x0b}))
}

// TestEmulatorIdentity covers the emu.Emulator surface directly.
func TestEmulatorIdentity(t *testing.T) {
	m := machine.NewBaseline(machine.BaselineImage())
	e := lento.New(m)
	if e.Name() != "lento" {
		t.Errorf("Name() = %q", e.Name())
	}
	if e.Machine() != m {
		t.Error("Machine() does not return the wrapped machine")
	}
}

// TestAsciiAdjust exercises the successful aam/aad paths (the matrix and
// TestDivideFaults only reach the #DE branch).
func TestAsciiAdjust(t *testing.T) {
	runBothDefault(t, "aam-aad",
		prog(x86.AsmMovRegImm32(x86.EAX, 123),
			[]byte{0xd4, 0x0a},  // aam 10
			[]byte{0xd5, 0x0a})) // aad 10
	// Non-decimal base.
	runBothDefault(t, "aam-base7",
		prog(x86.AsmMovRegImm32(x86.EAX, 0x55),
			[]byte{0xd4, 0x07}))
}

// TestMoffsOverride: the direct-offset mov forms with a segment override.
func TestMoffsOverride(t *testing.T) {
	runBothDefault(t, "moffs-override",
		prog(x86.AsmMovRegImm32(x86.EAX, 0x99aabbcc),
			[]byte{0x64, 0xa3, 0x00, 0x51, 0x00, 0x00},  // mov fs:[0x5100], eax
			[]byte{0x26, 0xa1, 0x00, 0x51, 0x00, 0x00},  // mov eax, es:[0x5100]
			[]byte{0x65, 0xa2, 0x08, 0x51, 0x00, 0x00},  // mov gs:[0x5108], al
			[]byte{0x36, 0xa0, 0x08, 0x51, 0x00, 0x00})) // mov al, ss:[0x5108]
}

// TestSarSaturate: arithmetic shifts whose masked count still reaches the
// lane width saturate to a sign fill.
func TestSarSaturate(t *testing.T) {
	runBothDefault(t, "sar-saturate",
		prog(x86.AsmMovRegImm32(x86.EAX, 0x8000cc81),
			[]byte{0xc0, 0xf8, 0x09},        // sar al, 9 (>= 8)
			[]byte{0x66, 0xc1, 0xf8, 0x1f})) // sar ax, 31 (>= 16)
}

// ---- Flag-image instructions ----

func TestFlagImages(t *testing.T) {
	runBothDefault(t, "pushf-popf-16",
		prog(x86.AsmPushImm32(0xed5),
			x86.AsmPopf(),
			[]byte{0x66, 0x9c}, // pushfw
			[]byte{0x66, 0x9d}, // popfw
			[]byte{0x9c},       // pushfd
			[]byte{0x9d}))      // popfd
	runBothDefault(t, "sahf-lahf",
		prog(x86.AsmMovRegImm32(x86.EAX, 0xd500),
			[]byte{0x9e},  // sahf
			[]byte{0x9f})) // lahf
	// AC and ID are writable only through the 32-bit image.
	runBothDefault(t, "popf-ac-id",
		prog(x86.AsmPushImm32(1<<18|1<<21|0x2),
			x86.AsmPopf(),
			[]byte{0x9c}))
}
