// Package machine provides the guest machine-state container shared by all
// emulators: CPU registers with segment descriptor caches, copy-on-write
// paged physical memory, the baseline machine image (flat GDT, linear page
// tables, halting IDT handlers — Section 4.1 of the paper), and final-state
// snapshots.
package machine

import (
	"fmt"

	"pokeemu/internal/expr"
	"pokeemu/internal/x86"
)

// Physical memory geometry: 4 MiB, like the paper's baseline configuration
// (the 4-GiB linear space maps onto it repeating every 4 MiB).
const (
	PhysBits = 22
	PhysSize = 1 << PhysBits
	PhysMask = PhysSize - 1
	PageSize = 4096
	NumPages = PhysSize / PageSize
)

// Baseline physical layout.
const (
	IDTBase     = 0x0000_1000 // 256 × 8-byte gates
	PDBase      = 0x0000_2000 // page directory
	PTBase      = 0x0000_3000 // the single shared page table
	HandlerBase = 0x0000_4000 // exception handler stubs, 8 bytes per vector
	ScratchBase = 0x0000_5000 // pseudo-descriptors and initializer scratch
	BootBase    = 0x0000_6000 // baseline state initializer code
	CodeBase    = 0x0010_0000 // test program entry point
	StackBase   = 0x0020_0000 // stack page
	StackTop    = 0x0020_0800 // baseline ESP
	GDTBase     = 0x0020_8000 // 16 × 8-byte descriptors (echoes paper Fig. 5)
)

// GDT selector assignments for the baseline flat model. The stack segment
// deliberately uses descriptor index 10 (selector 0x50), matching the test
// program in Figure 5 of the paper.
const (
	SelNull    = 0x00
	SelCode    = 0x08
	SelData    = 0x10
	SelES      = 0x18
	SelFS      = 0x20
	SelGS      = 0x28
	SelSS      = 0x50
	GDTEntries = 16
)

// GDTIndex returns the descriptor table index of a selector.
func GDTIndex(sel uint16) uint32 { return uint32(sel) >> 3 }

// page is one 4-KiB frame.
type page [PageSize]byte

// Memory is paged physical memory with copy-on-write overlays. A fresh
// overlay per test run makes per-test reset O(1) and leaves the final
// content immutable for snapshot diffing.
type Memory struct {
	pages map[uint32]*page
	base  *Memory
}

// NewMemory returns empty (all-zero) physical memory.
func NewMemory() *Memory {
	return &Memory{pages: make(map[uint32]*page)}
}

// Overlay returns a copy-on-write view of m. Writes go to the overlay;
// reads fall through to m for untouched pages.
func (m *Memory) Overlay() *Memory {
	return &Memory{pages: make(map[uint32]*page), base: m}
}

// find returns the page content for reading, or nil if never written.
func (m *Memory) find(pn uint32) *page {
	for cur := m; cur != nil; cur = cur.base {
		if p, ok := cur.pages[pn]; ok {
			return p
		}
	}
	return nil
}

// pageForWrite materializes a private copy of the page in this overlay.
func (m *Memory) pageForWrite(pn uint32) *page {
	if p, ok := m.pages[pn]; ok {
		return p
	}
	p := new(page)
	if src := m.base.find(pn); src != nil {
		*p = *src
	}
	m.pages[pn] = p
	return p
}

// Read8 reads one byte of physical memory (address wraps at 4 MiB).
func (m *Memory) Read8(addr uint32) byte {
	addr &= PhysMask
	p := m.find(addr / PageSize)
	if p == nil {
		return 0
	}
	return p[addr%PageSize]
}

// Write8 writes one byte of physical memory.
func (m *Memory) Write8(addr uint32, v byte) {
	addr &= PhysMask
	m.pageForWrite(addr / PageSize)[addr%PageSize] = v
}

// Read reads a little-endian value of 1, 2 or 4 bytes. An access inside one
// page costs one page lookup; one that crosses a page (or wraps at 4 MiB)
// goes byte by byte.
func (m *Memory) Read(addr uint32, bytes uint8) uint64 {
	addr &= PhysMask
	if off := addr % PageSize; off+uint32(bytes) <= PageSize {
		p := m.find(addr / PageSize)
		if p == nil {
			return 0
		}
		var v uint64
		for i := uint32(bytes); i > 0; i-- {
			v = v<<8 | uint64(p[off+i-1])
		}
		return v
	}
	var v uint64
	for i := uint8(0); i < bytes; i++ {
		v |= uint64(m.Read8(addr+uint32(i))) << (8 * i)
	}
	return v
}

// Write writes a little-endian value of 1, 2 or 4 bytes, with Read's
// one-lookup path inside a page. A zero-width write touches no page.
func (m *Memory) Write(addr uint32, v uint64, bytes uint8) {
	if bytes == 0 {
		return
	}
	addr &= PhysMask
	if off := addr % PageSize; off+uint32(bytes) <= PageSize {
		p := m.pageForWrite(addr / PageSize)
		for i := uint32(0); i < uint32(bytes); i++ {
			p[off+i] = byte(v >> (8 * i))
		}
		return
	}
	for i := uint8(0); i < bytes; i++ {
		m.Write8(addr+uint32(i), byte(v>>(8*i)))
	}
}

// appendPageRun appends the n bytes at addr, which must not cross a page,
// with one page lookup.
func (m *Memory) appendPageRun(dst []byte, addr uint32, n int) []byte {
	addr &= PhysMask
	if p := m.find(addr / PageSize); p != nil {
		off := addr % PageSize
		return append(dst, p[off:off+uint32(n)]...)
	}
	for ; n > 0; n-- {
		dst = append(dst, 0)
	}
	return dst
}

// WriteBytes copies buf into memory at addr.
func (m *Memory) WriteBytes(addr uint32, buf []byte) {
	for i, b := range buf {
		m.Write8(addr+uint32(i), b)
	}
}

// ReadPage returns a read-only view of page pn as the overlay chain sees
// it, or nil if no layer holds the page (it reads as zeros). The caller
// must not write through the view.
func (m *Memory) ReadPage(pn uint32) []byte {
	if p := m.find(pn); p != nil {
		return p[:]
	}
	return nil
}

// Touched returns the set of page numbers written anywhere in this overlay
// chain, excluding the shared root (used for efficient snapshot diffing).
func (m *Memory) Touched(sharedRoot *Memory) map[uint32]bool {
	out := make(map[uint32]bool)
	for cur := m; cur != nil && cur != sharedRoot; cur = cur.base {
		for pn := range cur.pages {
			out[pn] = true
		}
	}
	return out
}

// Root returns the bottom of the overlay chain.
func (m *Memory) Root() *Memory {
	cur := m
	for cur.base != nil {
		cur = cur.base
	}
	return cur
}

// Segment is a segment register with its descriptor cache (the "hidden
// part"): base, byte-granular limit, and packed attributes.
type Segment struct {
	Sel   uint16
	Base  uint32
	Limit uint32
	Attr  uint16
}

// CPU is the architected register state.
type CPU struct {
	GPR                 [8]uint32
	EIP                 uint32
	EFLAGS              uint32
	Seg                 [x86.NumSegRegs]Segment
	CR0                 uint32
	CR2                 uint32
	CR3                 uint32
	CR4                 uint32
	GDTRBase, GDTRLimit uint32
	IDTRBase, IDTRLimit uint32
	MSR                 [6]uint64
	Halted              bool
}

// Machine couples a CPU with physical memory and implements ir.State.
type Machine struct {
	CPU
	Mem *Memory
}

// NewMachine wraps cpu and mem.
func NewMachine(cpu CPU, mem *Memory) *Machine {
	return &Machine{CPU: cpu, Mem: mem}
}

// Get implements ir.State.
func (m *Machine) Get(loc x86.Loc) uint64 {
	switch loc.Kind {
	case x86.LocGPR:
		return uint64(m.GPR[loc.Index])
	case x86.LocEIP:
		return uint64(m.EIP)
	case x86.LocFlag:
		return uint64(m.EFLAGS >> loc.Index & 1)
	case x86.LocSegSel:
		return uint64(m.Seg[loc.Index].Sel)
	case x86.LocSegBase:
		return uint64(m.Seg[loc.Index].Base)
	case x86.LocSegLimit:
		return uint64(m.Seg[loc.Index].Limit)
	case x86.LocSegAttr:
		return uint64(m.Seg[loc.Index].Attr)
	case x86.LocCR:
		switch loc.Index {
		case 0:
			return uint64(m.CR0)
		case 2:
			return uint64(m.CR2)
		case 3:
			return uint64(m.CR3)
		case 4:
			return uint64(m.CR4)
		}
	case x86.LocGDTRBase:
		return uint64(m.GDTRBase)
	case x86.LocGDTRLimit:
		return uint64(m.GDTRLimit)
	case x86.LocIDTRBase:
		return uint64(m.IDTRBase)
	case x86.LocIDTRLimit:
		return uint64(m.IDTRLimit)
	case x86.LocMSR:
		return m.MSR[loc.Index]
	}
	panic(fmt.Sprintf("machine: get of unknown location %v", loc))
}

// Set implements ir.State.
func (m *Machine) Set(loc x86.Loc, v uint64) {
	v &= expr.Mask(loc.Width())
	switch loc.Kind {
	case x86.LocGPR:
		m.GPR[loc.Index] = uint32(v)
	case x86.LocEIP:
		m.EIP = uint32(v)
	case x86.LocFlag:
		bit := uint32(1) << loc.Index
		if v&1 == 1 {
			m.EFLAGS |= bit
		} else {
			m.EFLAGS &^= bit
		}
	case x86.LocSegSel:
		m.Seg[loc.Index].Sel = uint16(v)
	case x86.LocSegBase:
		m.Seg[loc.Index].Base = uint32(v)
	case x86.LocSegLimit:
		m.Seg[loc.Index].Limit = uint32(v)
	case x86.LocSegAttr:
		m.Seg[loc.Index].Attr = uint16(v)
	case x86.LocCR:
		switch loc.Index {
		case 0:
			m.CR0 = uint32(v)
		case 2:
			m.CR2 = uint32(v)
		case 3:
			m.CR3 = uint32(v)
		case 4:
			m.CR4 = uint32(v)
		default:
			panic("machine: set of unknown control register")
		}
	case x86.LocGDTRBase:
		m.GDTRBase = uint32(v)
	case x86.LocGDTRLimit:
		m.GDTRLimit = uint32(v)
	case x86.LocIDTRBase:
		m.IDTRBase = uint32(v)
	case x86.LocIDTRLimit:
		m.IDTRLimit = uint32(v)
	case x86.LocMSR:
		m.MSR[loc.Index] = v
	default:
		panic(fmt.Sprintf("machine: set of unknown location %v", loc))
	}
}

// Load implements ir.State (physical access).
func (m *Machine) Load(phys uint32, bytes uint8) uint64 {
	return m.Mem.Read(phys, bytes)
}

// Store implements ir.State (physical access).
func (m *Machine) Store(phys uint32, v uint64, bytes uint8) {
	m.Mem.Write(phys, v, bytes)
}

// Snapshot is a final machine state captured after a test run. The memory
// overlay must not be written after capture.
type Snapshot struct {
	CPU CPU
	Mem *Memory
	// Exception records the terminal event observed by the harness, if any.
	Exception *ExceptionInfo
}

// ExceptionInfo describes the exception that ended a test.
type ExceptionInfo struct {
	Vector  uint8
	ErrCode uint32
	HasErr  bool
}

func (e *ExceptionInfo) String() string {
	if e == nil {
		return "none"
	}
	if e.HasErr {
		return fmt.Sprintf("#%d(err=%#x)", e.Vector, e.ErrCode)
	}
	return fmt.Sprintf("#%d", e.Vector)
}

// Snapshot captures the current state.
func (m *Machine) Snapshot(exc *ExceptionInfo) *Snapshot {
	return &Snapshot{CPU: m.CPU, Mem: m.Mem, Exception: exc}
}
