// Package testgen generates runnable test programs from explored test
// cases (paper Section 4): a fixed baseline state initializer that brings
// the boot-loader state to the baseline machine state, plus per-test state
// initializers assembled from a gadget library with prerequisite and
// side-effect tracking and a topological ordering — the Figure 5 pipeline.
package testgen

import (
	"fmt"
	"sort"
	"strings"

	"pokeemu/internal/core"
	"pokeemu/internal/emu"
	"pokeemu/internal/fidelis"
	"pokeemu/internal/machine"
	"pokeemu/internal/x86"
	"pokeemu/internal/x86/sem"
)

// Version identifies the generator's output format: the gadget library, the
// ordering rules, and the baseline initializer. Any change that could alter
// the bytes of a generated test program — or what cached entries record
// about it (v2 added the test-instruction offset, the triage minimizer's
// split point) — must bump it, so corpus entries produced by an older
// generator are regenerated instead of reused.
const Version = 2

// BaselineInit returns the fixed baseline state initializer (Section 4.1),
// loaded at machine.BootBase: it loads the descriptor table registers,
// enables paging, reloads every data segment from the baseline GDT, resets
// the general registers and stack, enables interrupts, and jumps to the
// test program. Its final state is exactly machine.BaselineCPU (verified by
// tests).
func BaselineInit() []byte {
	var out []byte
	app := func(b []byte) { out = append(out, b...) }
	app(x86.AsmLGDT(machine.ScratchBase))
	app(x86.AsmLIDT(machine.ScratchBase + 8))
	app(x86.AsmMovRegImm32(x86.EAX, machine.PDBase))
	app(x86.AsmMovCRReg(3, x86.EAX))
	app(x86.AsmMovRegImm32(x86.EAX,
		1<<x86.CR0PE|1<<x86.CR0ET|1<<x86.CR0PG))
	app(x86.AsmMovCRReg(0, x86.EAX))
	// Reload the data segments from the (now live) GDT.
	reload := func(sel uint16, sr x86.SegReg) {
		app(x86.AsmMovRegImm16(x86.EAX, sel))
		app(x86.AsmMovSregReg(sr, x86.EAX))
	}
	reload(machine.SelData, x86.DS)
	reload(machine.SelES, x86.ES)
	reload(machine.SelFS, x86.FS)
	reload(machine.SelGS, x86.GS)
	reload(machine.SelSS, x86.SS)
	// Reset registers to the baseline values.
	for r := x86.EAX; r <= x86.EDI; r++ {
		if r == x86.ESP {
			app(x86.AsmMovRegImm32(x86.ESP, machine.StackTop))
		} else {
			app(x86.AsmMovRegImm32(r, 0))
		}
	}
	// Enable interrupts via popf so EFLAGS matches the baseline exactly.
	app(x86.AsmPushImm32(x86.EflagsFixed1 | 1<<x86.FlagIF))
	app(x86.AsmPopf())
	// Jump to the test program.
	rel := int32(machine.CodeBase) - int32(machine.BootBase+uint32(len(out))+5)
	app(x86.AsmJmpRel32(rel))
	return out
}

// Gadget is one state-initializer snippet with its ordering metadata.
type Gadget struct {
	Name     string
	Code     []byte
	Class    gadgetClass
	Requires []string // names of gadgets that must precede this one
	Clobbers []x86.Reg
}

type gadgetClass int

// Gadget classes establish the coarse ordering constraints described in
// Section 4.2: flags first (they need a pristine stack), then general and
// GDT memory, then page-table entries (which may unmap pages later gadgets
// would have needed), then segment reloads (which read the GDT), then
// control registers (which change translation behavior), and registers
// last, with the scratch register restored at the very end — exactly the
// structure of Figure 5.
const (
	classFlags gadgetClass = iota
	classMem
	classMemPT
	classSeg
	classCR
	classGPR
	classScratchRestore
)

// Program is a generated test program.
type Program struct {
	Code       []byte // gadgets + test instruction + hlt, loaded at CodeBase
	Gadgets    []Gadget
	TestOffset int // offset of the test instruction within Code
}

// String renders the program like Figure 5(b).
func (p *Program) String() string {
	var b strings.Builder
	for _, g := range p.Gadgets {
		fmt.Fprintf(&b, "%-28s // % x\n", g.Name, g.Code)
	}
	return b.String()
}

// ErrUnliftable reports a state component no gadget can establish.
type ErrUnliftable struct{ Var string }

func (e *ErrUnliftable) Error() string {
	return "testgen: no gadget can initialize " + e.Var
}

// Build lifts a test case into a test program (Section 4.2): one gadget per
// differing state component, correction gadgets for side effects, a
// dependency-respecting order, then the test instruction and hlt.
func Build(tc *core.TestCase) (*Program, error) {
	diffs := tc.Diffs()

	var gadgets []Gadget
	flagBits := map[uint8]uint64{}
	segReload := map[x86.SegReg]bool{}
	gprVals := map[x86.Reg]uint32{}
	scratchNeeded := false

	names := make([]string, 0, len(diffs))
	for name := range diffs {
		names = append(names, name)
	}
	sort.Strings(names)

	for _, name := range names {
		v := diffs[name]
		switch {
		case strings.HasPrefix(name, "gm_"):
			addr := tc.VarMem[name]
			gadgets = append(gadgets, memGadget(addr, byte(v)))
			// A rewritten descriptor requires reloading the segment that
			// caches it (Figure 5 lines 4-5).
			if sr, ok := segOfGDTByte(addr); ok {
				segReload[sr] = true
			}
		case strings.HasPrefix(name, "st_"):
			loc, ok := tc.VarLoc[name]
			if !ok {
				return nil, &ErrUnliftable{Var: name}
			}
			switch loc.Kind {
			case x86.LocGPR:
				gprVals[x86.Reg(loc.Index)] = uint32(v)
			case x86.LocFlag:
				flagBits[loc.Index] = v
			case x86.LocSegSel:
				segReload[x86.SegReg(loc.Index)] = true
			case x86.LocCR:
				gadgets = append(gadgets, crGadget(loc.Index, uint32(v)))
				scratchNeeded = true
			default:
				return nil, &ErrUnliftable{Var: name}
			}
		default:
			return nil, &ErrUnliftable{Var: name}
		}
	}

	if len(flagBits) > 0 {
		gadgets = append(gadgets, flagsGadget(tc, flagBits))
	}
	for sr := range segReload {
		if sr == x86.CS {
			return nil, &ErrUnliftable{Var: "cs reload"}
		}
		g, err := segGadget(tc, sr)
		if err != nil {
			return nil, err
		}
		gadgets = append(gadgets, g)
		scratchNeeded = true
	}
	// Register initializers; the scratch register (EAX) last, either to its
	// test value or restored to baseline (Figure 5 line 6).
	for r := x86.EAX; r <= x86.EDI; r++ {
		v, have := gprVals[r]
		if r == x86.EAX {
			if !have && !scratchNeeded {
				continue
			}
			if !have {
				v = uint32(tc.Baseline["st_eax"])
			}
			gadgets = append(gadgets, Gadget{
				Name:  fmt.Sprintf("mov $0x%x, %%eax (restore)", v),
				Code:  x86.AsmMovRegImm32(x86.EAX, v),
				Class: classScratchRestore,
			})
			continue
		}
		if have {
			gadgets = append(gadgets, Gadget{
				Name:  fmt.Sprintf("mov $0x%x, %%%s", v, r),
				Code:  x86.AsmMovRegImm32(r, v),
				Class: classGPR,
			})
		}
	}

	ordered, err := topoSort(gadgets)
	if err != nil {
		return nil, err
	}

	p := &Program{Gadgets: ordered}
	for _, g := range ordered {
		p.Code = append(p.Code, g.Code...)
	}
	p.TestOffset = len(p.Code)
	p.Code = append(p.Code, tc.InstrBytes...)
	p.Code = append(p.Code, x86.AsmHlt()...)
	testName := tc.Mnemonic
	if inst, err := x86.Decode(tc.InstrBytes); err == nil {
		testName = x86.Disasm(inst)
	}
	p.Gadgets = append(p.Gadgets,
		Gadget{Name: testName + " (test instruction)", Code: tc.InstrBytes},
		Gadget{Name: "hlt", Code: x86.AsmHlt()})
	return p, nil
}

func memGadget(addr uint32, v byte) Gadget {
	cls := classMem
	if addr >= machine.PTBase && addr < machine.PTBase+machine.PageSize ||
		addr >= machine.PDBase && addr < machine.PDBase+machine.PageSize {
		cls = classMemPT
	}
	return Gadget{
		Name:  fmt.Sprintf("movb $0x%02x, 0x%06x", v, addr),
		Code:  x86.AsmMovMemImm8(addr, v),
		Class: cls,
	}
}

func crGadget(cr uint8, v uint32) Gadget {
	return Gadget{
		Name:     fmt.Sprintf("mov $0x%x, %%cr%d", v, cr),
		Code:     append(x86.AsmMovRegImm32(x86.EAX, v), x86.AsmMovCRReg(cr, x86.EAX)...),
		Class:    classCR,
		Clobbers: []x86.Reg{x86.EAX},
	}
}

func flagsGadget(tc *core.TestCase, bits map[uint8]uint64) Gadget {
	// Compose the full EFLAGS image: baseline, overridden by the test bits.
	v := uint32(x86.EflagsFixed1 | 1<<x86.FlagIF)
	for bit, val := range bits {
		if val&1 == 1 {
			v |= 1 << bit
		} else {
			v &^= 1 << bit
		}
	}
	return Gadget{
		Name:  fmt.Sprintf("push $0x%x; popf", v),
		Code:  append(x86.AsmPushImm32(v), x86.AsmPopf()...),
		Class: classFlags,
	}
}

func segGadget(tc *core.TestCase, sr x86.SegReg) (Gadget, error) {
	selVar := "st_" + sr.String() + ".sel"
	sel, ok := tc.Assignment[selVar]
	if !ok {
		sel = uint64(core.BaselineSelector(sr))
	}
	return Gadget{
		Name: fmt.Sprintf("mov $0x%04x, %%ax; mov %%ax, %%%s", sel, sr),
		Code: append(x86.AsmMovRegImm16(x86.EAX, uint16(sel)),
			x86.AsmMovSregReg(sr, x86.EAX)...),
		Class:    classSeg,
		Clobbers: []x86.Reg{x86.EAX},
	}, nil
}

// segOfGDTByte maps a physical address inside the GDT to the baseline
// segment register caching that entry, if any.
func segOfGDTByte(addr uint32) (x86.SegReg, bool) {
	if addr < machine.GDTBase || addr >= machine.GDTBase+machine.GDTEntries*8 {
		return 0, false
	}
	idx := (addr - machine.GDTBase) / 8
	for _, sr := range []x86.SegReg{x86.ES, x86.SS, x86.DS, x86.FS, x86.GS} {
		if machine.GDTIndex(core.BaselineSelector(sr)) == idx {
			return sr, true
		}
	}
	return 0, false
}

// topoSort orders gadgets by class, then stably by explicit Requires edges
// within a class. A cycle is an error (the paper's "abort and ask for user
// assistance" case).
func topoSort(gs []Gadget) ([]Gadget, error) {
	sort.SliceStable(gs, func(i, j int) bool { return gs[i].Class < gs[j].Class })
	// Explicit Requires edges within the class ordering.
	index := make(map[string]int, len(gs))
	for i, g := range gs {
		index[g.Name] = i
	}
	for i, g := range gs {
		for _, req := range g.Requires {
			j, ok := index[req]
			if !ok {
				continue
			}
			if j > i && gs[j].Class == g.Class {
				return nil, fmt.Errorf("testgen: dependency cycle involving %q", g.Name)
			}
			if gs[j].Class > g.Class {
				return nil, fmt.Errorf("testgen: unsatisfiable dependency %q before %q",
					req, g.Name)
			}
		}
	}
	return gs, nil
}

// verifyCacheCap bounds verifyCache. The initializers of a whole campaign
// compile to a few hundred distinct instruction encodings (597 for the
// 14-handler mix), so the cap is never reached there; a process that keeps
// minting new encodings resets the cache rather than growing it.
const verifyCacheCap = 4096

// verifyCache holds the hardware-configuration IR bodies every Verify call
// shares. Verify is a check, not a modeled emulator, so the per-guest
// translation cost the Hi-Fi emulator's private cache models does not
// apply; a body is a pure function of its instruction bytes and the fixed
// configuration, and programs are immutable once built.
var verifyCache = fidelis.NewBoundedCache(verifyCacheCap)

// Verify simulates the generated program on the hardware model and reports
// whether execution reaches the test instruction: the generated-initializer
// sanity check. It rejects a program that halts, faults or shuts down
// before the test instruction, or does not reach it within 4,096 steps.
// Minimization makes such programs rare, not impossible: an earlier gadget
// can install test-state paging or segment values that a later initializer
// instruction then faults on, with a delivery that itself fails. The
// campaign counts each rejected test as an init fault (InstrReport.InitFault)
// and does not execute it.
func Verify(p *Program, image *machine.Memory) bool {
	m := machine.NewBoot(image)
	m.Mem.WriteBytes(machine.BootBase, BaselineInit())
	m.Mem.WriteBytes(machine.CodeBase, p.Code)
	hw := fidelis.NewShared(m, sem.HardwareConfig, verifyCache)
	testEIP := uint32(machine.CodeBase + p.TestOffset)
	for i := 0; i < 4096; i++ {
		if m.EIP == testEIP {
			return true
		}
		if ev := hw.Step(); ev.Kind != emu.EventNone {
			return false // halted or faulted before the test instruction
		}
	}
	return false
}
