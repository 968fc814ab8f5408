// Package diff implements the difference-analysis step (paper Section 6.2):
// final-state comparison between implementations, filters that discard
// differences attributable to architecturally-undefined behavior (the
// paper's filter scripts), clustering of the remaining differences by
// root-cause signature, and human-readable classification.
package diff

import (
	"bytes"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"pokeemu/internal/machine"
	"pokeemu/internal/x86"
)

// FieldDiff is a single state component that differs between two runs.
type FieldDiff struct {
	Field string
	A, B  uint64
}

func (f FieldDiff) String() string {
	return fmt.Sprintf("%s: %#x vs %#x", f.Field, f.A, f.B)
}

// Filter removes differences caused by undefined behavior. EFLAGSMask bits
// are ignored in the EFLAGS comparison.
type Filter struct {
	EFLAGSMask uint32
}

// UndefFilterFor builds the undefined-behavior filter for a test whose test
// instruction has the given handler name. This encodes the same knowledge
// as the paper's reused filter scripts: which status flags the architecture
// leaves undefined per instruction class.
func UndefFilterFor(handler string) Filter {
	base := strings.TrimSuffix(handler, "_alias")
	op := base
	if i := strings.IndexByte(base, '_'); i >= 0 {
		op = base[:i]
	}
	var m uint32
	af := uint32(1 << x86.FlagAF)
	of := uint32(1 << x86.FlagOF)
	all := x86.StatusFlags
	switch op {
	case "and", "or", "xor", "test":
		m = af
	case "mul", "imul", "imul1", "imul2", "imul3":
		m = all &^ (1<<x86.FlagCF | 1<<x86.FlagOF)
	case "shl", "shr", "sar", "shld", "shrd":
		m = af | of
	case "rol", "ror", "rcl", "rcr":
		m = of
	case "div", "idiv":
		m = all
	case "bsf", "bsr":
		m = all &^ (1 << x86.FlagZF)
	case "aam", "aad":
		m = 1<<x86.FlagCF | of | af
	}
	return Filter{EFLAGSMask: m}
}

// Field names Compare reports, built once so a comparison formats no
// names: per segment register its four descriptor-cache fields, and per
// MSR slot its name.
var (
	segFields = func() (t [x86.NumSegRegs][4]string) {
		for s := range t {
			name := x86.SegReg(s).String()
			t[s] = [4]string{name + ".sel", name + ".base", name + ".limit", name + ".attr"}
		}
		return t
	}()
	msrFields = func() (t [len(machine.CPU{}.MSR)]string) {
		for i := range t {
			t[i] = "msr" + strconv.Itoa(i)
		}
		return t
	}()
)

// Compare reports the state components that differ between two snapshots,
// after applying the filter. Memory is compared over the union of pages
// either run touched (both runs start from the same shared image), a page
// at a time; only a page whose contents differ is scanned byte by byte.
// Comparing equal snapshots that touched few pages allocates nothing, and
// a snapshot compared with itself (a cached trio's members with equal
// bytes share one) costs nothing: a state always equals itself.
func Compare(a, b *machine.Snapshot, f Filter) []FieldDiff {
	if a == b {
		return nil
	}
	var out []FieldDiff
	add := func(field string, av, bv uint64) {
		if av != bv {
			out = append(out, FieldDiff{Field: field, A: av, B: bv})
		}
	}

	for i := 0; i < 8; i++ {
		add(x86.Reg(i).String(), uint64(a.CPU.GPR[i]), uint64(b.CPU.GPR[i]))
	}
	add("eip", uint64(a.CPU.EIP), uint64(b.CPU.EIP))
	maskOut := f.EFLAGSMask
	add("eflags", uint64(a.CPU.EFLAGS&^maskOut), uint64(b.CPU.EFLAGS&^maskOut))
	for s := 0; s < x86.NumSegRegs; s++ {
		sa, sb := a.CPU.Seg[s], b.CPU.Seg[s]
		name := &segFields[s]
		add(name[0], uint64(sa.Sel), uint64(sb.Sel))
		add(name[1], uint64(sa.Base), uint64(sb.Base))
		add(name[2], uint64(sa.Limit), uint64(sb.Limit))
		add(name[3], uint64(sa.Attr), uint64(sb.Attr))
	}
	add("cr0", uint64(a.CPU.CR0), uint64(b.CPU.CR0))
	add("cr2", uint64(a.CPU.CR2), uint64(b.CPU.CR2))
	add("cr3", uint64(a.CPU.CR3), uint64(b.CPU.CR3))
	add("cr4", uint64(a.CPU.CR4), uint64(b.CPU.CR4))
	add("gdtr.base", uint64(a.CPU.GDTRBase), uint64(b.CPU.GDTRBase))
	add("gdtr.limit", uint64(a.CPU.GDTRLimit), uint64(b.CPU.GDTRLimit))
	add("idtr.base", uint64(a.CPU.IDTRBase), uint64(b.CPU.IDTRBase))
	add("idtr.limit", uint64(a.CPU.IDTRLimit), uint64(b.CPU.IDTRLimit))
	for i := range a.CPU.MSR {
		add(msrFields[i], a.CPU.MSR[i], b.CPU.MSR[i])
	}
	add("halted", boolU(a.CPU.Halted), boolU(b.CPU.Halted))

	// Terminal exception.
	add("exc.vector", excVec(a.Exception), excVec(b.Exception))
	add("exc.err", excErr(a.Exception), excErr(b.Exception))

	// Memory: union of touched pages relative to the shared root.
	var buf [64]uint32
	pns := a.Mem.AppendTouched(buf[:0], a.Mem.Root())
	pns = b.Mem.AppendTouched(pns, b.Mem.Root())
	slices.Sort(pns)
	for _, pn := range slices.Compact(pns) {
		pa, pb := pageView(a.Mem, pn), pageView(b.Mem, pn)
		if bytes.Equal(pa, pb) {
			continue
		}
		base := pn * machine.PageSize
		for off := uint32(0); off < machine.PageSize; off++ {
			av, bv := pa[off], pb[off]
			if av != bv {
				out = append(out, FieldDiff{
					Field: fmt.Sprintf("mem[%#x]", base+off),
					A:     uint64(av), B: uint64(bv),
				})
			}
		}
	}
	return out
}

var zeroPage [machine.PageSize]byte

// pageView returns page pn of m, with a page no layer holds reading as
// zeros.
func pageView(m *machine.Memory, pn uint32) []byte {
	if p := m.ReadPage(pn); p != nil {
		return p
	}
	return zeroPage[:]
}

func boolU(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func excVec(e *machine.ExceptionInfo) uint64 {
	if e == nil {
		return 0xffff // "no exception" sentinel distinct from vector 0
	}
	return uint64(e.Vector)
}

func excErr(e *machine.ExceptionInfo) uint64 {
	if e == nil || !e.HasErr {
		return 0xffffffff
	}
	return uint64(e.ErrCode)
}

// Difference is one behavioral difference: a test that produced divergent
// final states on a pair of implementations.
type Difference struct {
	TestID   string
	Handler  string // test instruction handler name
	Mnemonic string
	ImplA    string
	ImplB    string
	Fields   []FieldDiff
}

// Signature produces a stable clustering key: the set of differing field
// kinds (memory collapsed by region) plus the exception delta. Tests that
// diverge the same way land in the same cluster — the paper's root-cause
// grouping.
func (d *Difference) Signature() string {
	kinds := map[string]bool{}
	for _, f := range d.Fields {
		kinds[fieldKind(f.Field)] = true
	}
	names := make([]string, 0, len(kinds))
	for k := range kinds {
		names = append(names, k)
	}
	sort.Strings(names)
	return d.Mnemonic + "|" + strings.Join(names, ",")
}

func fieldKind(field string) string {
	switch {
	case strings.HasPrefix(field, "mem["):
		addr := strings.TrimSuffix(strings.TrimPrefix(field, "mem["), "]")
		a, _ := strconv.ParseUint(addr, 0, 64)
		switch {
		case a >= machine.GDTBase && a < machine.GDTBase+machine.GDTEntries*8:
			return "mem.gdt"
		case a >= machine.PTBase && a < machine.PTBase+machine.PageSize:
			return "mem.pt"
		case a >= machine.PDBase && a < machine.PDBase+machine.PageSize:
			return "mem.pd"
		default:
			return "mem"
		}
	case strings.HasPrefix(field, "msr"):
		return "msr"
	case strings.Contains(field, "."):
		return field[:strings.IndexByte(field, '.')] + "." +
			field[strings.IndexByte(field, '.')+1:]
	default:
		return field
	}
}

// Cluster groups differences by signature.
func Cluster(diffs []*Difference) map[string][]*Difference {
	out := make(map[string][]*Difference)
	for _, d := range diffs {
		out[d.Signature()] = append(out[d.Signature()], d)
	}
	return out
}

// RootCause labels a difference with the most likely cause class, using the
// instruction and the shape of the divergence — the analysis step the paper
// performed on representative tests of each cluster.
func RootCause(d *Difference) string {
	has := func(kind string) bool {
		for _, f := range d.Fields {
			if fieldKind(f.Field) == kind {
				return true
			}
		}
		return false
	}
	pagingTrace := has("cr2") || has("mem.pt") || has("mem.pd")
	excDelta := has("exc.vector")
	op := d.Mnemonic
	switch {
	case isUDDelta(d):
		return "decoder: encoding acceptance difference"
	case op == "rdmsr":
		return "rdmsr: missing #GP on invalid MSR"
	case op == "leave":
		return "leave: non-atomic ESP update"
	case op == "cmpxchg":
		return "cmpxchg: accumulator/flags updated before write check"
	case op == "iret" && pagingTrace:
		return "iret: stack pop order"
	case (op == "lfs" || op == "lgs" || op == "lss" || op == "lds" || op == "les") &&
		pagingTrace:
		return "far load: operand fetch order"
	case has("mem.gdt") && !excDelta:
		return "segment load: accessed bit not written back"
	case excDelta:
		return "segmentation: limits/rights not enforced"
	case onlyEFLAGS(d):
		return "undefined status flags"
	case has("eip") || has("esp") || has("halted"):
		// Control or stack divergence without an exception delta: one side
		// took a fault path the other never checked for.
		return "segmentation: limits/rights not enforced"
	case pagingTrace && !excDelta:
		return "memory access order across a page boundary"
	default:
		return "other: " + d.Signature()
	}
}

func isUDDelta(d *Difference) bool {
	for _, f := range d.Fields {
		if f.Field == "exc.vector" &&
			(f.A == uint64(x86.ExcUD) || f.B == uint64(x86.ExcUD)) {
			return true
		}
	}
	return false
}

func onlyEFLAGS(d *Difference) bool {
	for _, f := range d.Fields {
		if f.Field != "eflags" {
			return false
		}
	}
	return len(d.Fields) > 0
}
