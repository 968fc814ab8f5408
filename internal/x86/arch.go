// Package x86 defines the guest architecture: an IA-32 protected-mode subset
// with real instruction encodings, segmentation, two-level paging, control
// registers, and exceptions. It provides the decode tables shared by every
// emulator in this repository, a concrete decoder, and an assembler used by
// the test-program generator.
//
// The subset is chosen so that every mechanism involved in the PokeEMU
// paper's findings is present: segment limit/type/privilege checks, page
// table flag checks (P/RW/US/A/D, PSE large pages), descriptor caches, the
// stack-engine instructions (push/pop/enter/leave/iret), far pointer loads,
// read-modify-write instructions (xchg/cmpxchg/xadd), and model-specific
// registers. Excluded (documented in DESIGN.md): x87/MMX/SSE, 16-bit
// addressing (the 67 prefix), far calls/jumps through call gates, and
// hardware task switching.
package x86

// Reg names a 32-bit general purpose register.
type Reg uint8

// General purpose registers in ModRM encoding order.
const (
	EAX Reg = iota
	ECX
	EDX
	EBX
	ESP
	EBP
	ESI
	EDI
)

var regNames = [...]string{"eax", "ecx", "edx", "ebx", "esp", "ebp", "esi", "edi"}

func (r Reg) String() string { return regNames[r] }

var reg8Names = [...]string{"al", "cl", "dl", "bl", "ah", "ch", "dh", "bh"}

// Reg8Name returns the 8-bit register name for ModRM index i.
func Reg8Name(i uint8) string { return reg8Names[i&7] }

// SegReg names a segment register.
type SegReg uint8

// Segment registers in ModRM sreg encoding order.
const (
	ES SegReg = iota
	CS
	SS
	DS
	FS
	GS
	NumSegRegs = 6
)

var segNames = [...]string{"es", "cs", "ss", "ds", "fs", "gs"}

func (s SegReg) String() string { return segNames[s] }

// EFLAGS bit positions.
const (
	FlagCF   = 0
	FlagPF   = 2
	FlagAF   = 4
	FlagZF   = 6
	FlagSF   = 7
	FlagTF   = 8
	FlagIF   = 9
	FlagDF   = 10
	FlagOF   = 11
	FlagIOPL = 12 // 2 bits: 12,13
	FlagNT   = 14
	FlagRF   = 16
	FlagVM   = 17
	FlagAC   = 18
	FlagVIF  = 19
	FlagVIP  = 20
	FlagID   = 21
)

// EflagsFixed1 is the mask of EFLAGS bits that always read as 1; reserved
// bits 3, 5, 15 and 22+ always read as 0.
const (
	EflagsFixed1   uint32 = 1 << 1
	EflagsReserved uint32 = 1<<3 | 1<<5 | 1<<15 | 0xffc00000
)

// StatusFlags is the mask of the six arithmetic status flags.
const StatusFlags uint32 = 1<<FlagCF | 1<<FlagPF | 1<<FlagAF | 1<<FlagZF | 1<<FlagSF | 1<<FlagOF

// CR0 bit positions.
const (
	CR0PE = 0
	CR0MP = 1
	CR0EM = 2
	CR0TS = 3
	CR0ET = 4
	CR0NE = 5
	CR0WP = 16
	CR0AM = 18
	CR0NW = 29
	CR0CD = 30
	CR0PG = 31
)

// CR4 bit positions.
const (
	CR4VME = 0
	CR4PVI = 1
	CR4TSD = 2
	CR4DE  = 3
	CR4PSE = 4
	CR4PAE = 5
	CR4MCE = 6
	CR4PGE = 7
	CR4PCE = 8
)

// Exception vectors.
const (
	ExcDE = 0  // divide error
	ExcDB = 1  // debug
	ExcBP = 3  // breakpoint
	ExcOF = 4  // overflow
	ExcBR = 5  // bound range
	ExcUD = 6  // invalid opcode
	ExcNM = 7  // device not available
	ExcDF = 8  // double fault
	ExcTS = 10 // invalid TSS
	ExcNP = 11 // segment not present
	ExcSS = 12 // stack-segment fault
	ExcGP = 13 // general protection
	ExcPF = 14 // page fault
	ExcMF = 16 // x87 FP
	ExcAC = 17 // alignment check
)

// Page-table entry bits (PDE and PTE share the low flag layout).
const (
	PteP   = 1 << 0
	PteRW  = 1 << 1
	PteUS  = 1 << 2
	PtePWT = 1 << 3
	PtePCD = 1 << 4
	PteA   = 1 << 5
	PteD   = 1 << 6
	PdePS  = 1 << 7 // 4-MByte page when CR4.PSE
	PteG   = 1 << 8
)

// Page-fault error code bits.
const (
	PFErrP  = 1 << 0 // fault caused by protection (vs. not-present)
	PFErrWR = 1 << 1 // write access
	PFErrUS = 1 << 2 // user-mode access
)

// Segment descriptor-cache attribute bits, as stored in the Attr field:
// bits 0..7 are the access byte (type[3:0], S, DPL[1:0], P), bits 8..11 are
// the high-nibble flags (AVL, L, D/B, G).
const (
	AttrAccessed = 1 << 0 // data:A / code:A
	AttrWritable = 1 << 1 // data:W; code:readable
	AttrExpand   = 1 << 2 // data:E expand-down; code:C conforming
	AttrCode     = 1 << 3 // type bit 3: 1=code, 0=data
	AttrS        = 1 << 4 // descriptor type: 1=code/data, 0=system
	AttrDPLShift = 5      // 2 bits
	AttrP        = 1 << 7
	AttrAVL      = 1 << 8
	AttrL        = 1 << 9
	AttrDB       = 1 << 10
	AttrG        = 1 << 11
)

// DPL extracts the descriptor privilege level from an Attr value.
func DPL(attr uint16) uint8 { return uint8(attr>>AttrDPLShift) & 3 }

// Model-specific registers supported by the subset. RDMSR/WRMSR of any other
// index raises #GP(0) — the check QEMU was found to skip.
var MSRs = []uint32{
	0x010,      // IA32_TIME_STAMP_COUNTER
	0x01b,      // IA32_APIC_BASE
	0x174,      // IA32_SYSENTER_CS
	0x175,      // IA32_SYSENTER_ESP
	0x176,      // IA32_SYSENTER_EIP
	0xc0000080, // IA32_EFER
}

// MSRSlot maps an MSR index to its storage slot, or -1 if unsupported.
func MSRSlot(index uint32) int {
	for i, m := range MSRs {
		if m == index {
			return i
		}
	}
	return -1
}

// NumMSRSlots is the number of architected MSR storage slots.
var NumMSRSlots = len(MSRs)

// LocKind classifies a machine-state location.
type LocKind uint8

// Machine-state location kinds. Together these cover everything Figure 3 of
// the paper marks as (potentially) symbolic, plus the concrete plumbing.
const (
	LocGPR       LocKind = iota // Index: Reg; 32 bits
	LocEIP                      // 32 bits
	LocFlag                     // Index: EFLAGS bit position; 1 bit
	LocSegSel                   // Index: SegReg; 16 bits
	LocSegBase                  // Index: SegReg; 32 bits
	LocSegLimit                 // Index: SegReg; 32 bits (byte-granular, post-G)
	LocSegAttr                  // Index: SegReg; 16 bits
	LocCR                       // Index: 0,2,3,4; 32 bits
	LocGDTRBase                 // 32 bits
	LocGDTRLimit                // 32 bits (16 architectural, held in 32)
	LocIDTRBase                 // 32 bits
	LocIDTRLimit                // 32 bits
	LocMSR                      // Index: MSR slot; 64 bits
)

// Loc addresses one piece of machine state for the IR's get/set operations.
type Loc struct {
	Kind  LocKind
	Index uint8
}

// Width returns the location's width in bits.
func (l Loc) Width() uint8 {
	switch l.Kind {
	case LocFlag:
		return 1
	case LocSegSel, LocSegAttr:
		return 16
	case LocMSR:
		return 64
	default:
		return 32
	}
}

func (l Loc) String() string {
	switch l.Kind {
	case LocGPR:
		return regNames[l.Index]
	case LocEIP:
		return "eip"
	case LocFlag:
		return flagName(l.Index)
	case LocSegSel:
		return segNames[l.Index] + ".sel"
	case LocSegBase:
		return segNames[l.Index] + ".base"
	case LocSegLimit:
		return segNames[l.Index] + ".limit"
	case LocSegAttr:
		return segNames[l.Index] + ".attr"
	case LocCR:
		return "cr" + string('0'+rune(l.Index))
	case LocGDTRBase:
		return "gdtr.base"
	case LocGDTRLimit:
		return "gdtr.limit"
	case LocIDTRBase:
		return "idtr.base"
	case LocIDTRLimit:
		return "idtr.limit"
	case LocMSR:
		return "msr" + string('0'+rune(l.Index))
	default:
		return "loc?"
	}
}

func flagName(bit uint8) string {
	switch bit {
	case FlagCF:
		return "cf"
	case FlagPF:
		return "pf"
	case FlagAF:
		return "af"
	case FlagZF:
		return "zf"
	case FlagSF:
		return "sf"
	case FlagTF:
		return "tf"
	case FlagIF:
		return "if"
	case FlagDF:
		return "df"
	case FlagOF:
		return "of"
	case 12, 13:
		return "iopl" + string('0'+rune(bit-12))
	case FlagNT:
		return "nt"
	case FlagRF:
		return "rf"
	case FlagVM:
		return "vm"
	case FlagAC:
		return "ac"
	case FlagVIF:
		return "vif"
	case FlagVIP:
		return "vip"
	case FlagID:
		return "id"
	default:
		return "flag?"
	}
}

// Convenience constructors for common locations.

// GPR returns the location of a general purpose register.
func GPR(r Reg) Loc { return Loc{Kind: LocGPR, Index: uint8(r)} }

// EIPLoc is the instruction pointer location.
var EIPLoc = Loc{Kind: LocEIP}

// Flag returns the location of one EFLAGS bit.
func Flag(bit uint8) Loc { return Loc{Kind: LocFlag, Index: bit} }

// SegSel returns the visible selector location of a segment register.
func SegSel(s SegReg) Loc { return Loc{Kind: LocSegSel, Index: uint8(s)} }

// SegBase returns the descriptor-cache base location of a segment register.
func SegBase(s SegReg) Loc { return Loc{Kind: LocSegBase, Index: uint8(s)} }

// SegLimit returns the descriptor-cache limit location of a segment register.
func SegLimit(s SegReg) Loc { return Loc{Kind: LocSegLimit, Index: uint8(s)} }

// SegAttr returns the descriptor-cache attribute location of a segment register.
func SegAttr(s SegReg) Loc { return Loc{Kind: LocSegAttr, Index: uint8(s)} }

// CR returns the location of a control register (0, 2, 3 or 4).
func CR(n uint8) Loc { return Loc{Kind: LocCR, Index: n} }

// MSR returns the location of an MSR storage slot.
func MSR(slot int) Loc { return Loc{Kind: LocMSR, Index: uint8(slot)} }

// AllFlagBits lists the EFLAGS bit positions that physically exist.
var AllFlagBits = []uint8{
	FlagCF, FlagPF, FlagAF, FlagZF, FlagSF, FlagTF, FlagIF, FlagDF, FlagOF,
	12, 13, FlagNT, FlagRF, FlagVM, FlagAC, FlagVIF, FlagVIP, FlagID,
}

// EflagsValidMask covers every physically-present EFLAGS bit plus the
// fixed-one bit.
var EflagsValidMask = func() uint32 {
	m := EflagsFixed1
	for _, b := range AllFlagBits {
		m |= 1 << b
	}
	return m
}()

// PackEFLAGS assembles an EFLAGS image from a bit-reader function.
func PackEFLAGS(get func(bit uint8) uint32) uint32 {
	v := EflagsFixed1
	for _, b := range AllFlagBits {
		v |= (get(b) & 1) << b
	}
	return v
}

// DescriptorFields unpacks a raw 8-byte GDT descriptor into the cache
// representation used by the emulators: base, byte-granular limit, and the
// packed attribute word. This mirrors the descriptor-parse computation that
// the paper summarizes during symbolic execution (Section 3.3.2); the IR
// version lives in x86/sem, and both are cross-checked by tests.
func DescriptorFields(lo, hi uint32) (base, limit uint32, attr uint16) {
	base = lo>>16 | (hi&0xff)<<16 | hi&0xff000000
	limit = lo&0xffff | hi&0x000f0000
	attr = uint16(hi>>8&0xff) | uint16(hi>>20&0xf)<<8
	if attr&AttrG != 0 {
		limit = limit<<12 | 0xfff
	}
	return base, limit, attr
}

// MakeDescriptor packs base/limit/attr into the raw 8-byte descriptor words.
// limit is the architectural 20-bit limit field (pre-G scaling).
func MakeDescriptor(base, limit20 uint32, attr uint16) (lo, hi uint32) {
	lo = limit20&0xffff | base<<16
	hi = base>>16&0xff | uint32(attr&0xff)<<8 | limit20&0xf0000 |
		uint32(attr>>8&0xf)<<20 | base&0xff000000
	return lo, hi
}
