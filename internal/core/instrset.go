// Package core implements path-exploration lifting, the paper's primary
// contribution: symbolic instruction-set exploration over the Hi-Fi
// emulator's decoder (Section 3.2), machine state-space exploration over
// each instruction's implementation with the Figure 3 symbolic state
// (Section 3.3), and the lifting of each explored path into a test case
// that the generator (internal/testgen) turns into a runnable test program.
package core

import (
	"bytes"
	"slices"
	"strings"

	"pokeemu/internal/x86"
)

// UniqueInstr is one per-instruction implementation (the unit of "unique
// instruction" in Section 6.1): a distinct handler at a distinct operand
// size, with one representative byte sequence selected from its partition
// cell.
type UniqueInstr struct {
	Spec   *x86.OpSpec
	OpSize int
	Repr   []byte // representative full encoding
}

// Key identifies the unique instruction.
func (u *UniqueInstr) Key() string {
	if u.OpSize == 16 {
		return u.Spec.Name + "/16"
	}
	return u.Spec.Name
}

// InstrSetResult is the outcome of instruction-set exploration.
type InstrSetResult struct {
	// Candidates counts the byte sequences the decoder accepts, each found
	// on a distinct decoder path.
	Candidates int
	Unique     []*UniqueInstr
	// ExploredPaths counts decoder paths followed, valid or not — the
	// measure of how far the 2²⁴ raw three-byte space was cut down.
	ExploredPaths int
}

// ExploreInstructionSet explores the decoder with the first three
// instruction-buffer bytes symbolic and the rest zero — the Section 3.2
// setup. The walk branches exactly where the decoder's control flow does
// (x86.NextByteRole): dispatch bytes are enumerated, the SIB byte
// contributes its single two-way displacement predicate, and
// immediate/displacement bytes are fixed at the concrete zero. Every
// completed walk is one decoder path; valid paths are counted as
// candidates, and one representative is kept per per-instruction
// implementation.
//
// The walk makes no per-path garbage: it moves through one instruction
// buffer in place and decodes it into an Inst on the stack, so only decode
// errors and representatives allocate (and clearing the Inst for each
// decode is a stack write, which the garbage collector's write barrier
// never sees).
func ExploreInstructionSet() *InstrSetResult {
	return exploreInstructionSet(nil)
}

// exploreInstructionSet runs the walk, handing every candidate's first
// three bytes, spec and operand size to visit when it is non-nil.
func exploreInstructionSet(visit func(b [3]byte, spec *x86.OpSpec, opSize int)) *InstrSetResult {
	w := &instrWalker{
		visit:  visit,
		bySpec: make(map[*x86.OpSpec]*nameCell, 1024),
		byName: make(map[string]*nameCell, 1024),
	}
	w.walk(0)

	type keyed struct {
		key string
		u   *UniqueInstr
	}
	sorted := make([]keyed, 0, 2*len(w.byName))
	for _, cell := range w.byName {
		for _, u := range cell {
			if u != nil {
				sorted = append(sorted, keyed{u.Key(), u})
			}
		}
	}
	slices.SortFunc(sorted, func(a, b keyed) int { return strings.Compare(a.key, b.key) })
	w.res.Unique = make([]*UniqueInstr, len(sorted))
	for i, k := range sorted {
		w.res.Unique[i] = k.u
	}
	return &w.res
}

// nameCell holds one handler name's representatives, indexed by whether
// the operand size is 16: the partition UniqueInstr.Key draws.
type nameCell [2]*UniqueInstr

// instrWalker is one instruction-set exploration's state.
type instrWalker struct {
	buf   [x86.MaxInstLen]byte // the walked prefix; every byte past it is zero
	res   InstrSetResult
	visit func(b [3]byte, spec *x86.OpSpec, opSize int)

	// A candidate's cell is found by its spec pointer, not its name: each
	// distinct spec is resolved to its name's cell once (specs may share a
	// name), and runs of candidates with one spec reuse the last lookup.
	bySpec   map[*x86.OpSpec]*nameCell
	byName   map[string]*nameCell
	lastSpec *x86.OpSpec
	lastCell *nameCell
}

// walk branches on the byte at position depth of buf.
func (w *instrWalker) walk(depth int) {
	if depth >= 3 {
		w.try()
		return
	}
	switch x86.NextByteRole(w.buf[:depth]) {
	case x86.RoleDispatch:
		for b := 0; b < 256; b++ {
			w.buf[depth] = byte(b)
			w.walk(depth + 1)
		}
		w.buf[depth] = 0
	case x86.RoleSIB:
		// One two-way branch: base≠5-with-mod-0 vs the disp32 form.
		for _, sib := range [...]byte{0x00, 0x05} {
			w.buf[depth] = sib
			w.try()
		}
		w.buf[depth] = 0
	default:
		w.try()
	}
}

// try decodes the buffer as one completed decoder path.
func (w *instrWalker) try() {
	w.res.ExploredPaths++
	var inst x86.Inst // Raw aliases buf
	if x86.DecodeInto(w.buf[:], &inst) != nil {
		return
	}
	w.res.Candidates++
	if w.visit != nil {
		w.visit([3]byte(w.buf[:3]), inst.Spec, inst.OpSize)
	}
	slot := &w.cell(inst.Spec)[b2i(inst.OpSize == 16)]
	if prev := *slot; prev == nil || inst.Len < len(prev.Repr) {
		// Keep the shortest representative of the cell, in its own memory:
		// inst.Raw is the walk's buffer.
		*slot = &UniqueInstr{Spec: inst.Spec, OpSize: inst.OpSize, Repr: bytes.Clone(inst.Raw)}
	}
}

// cell returns the representatives' cell of spec's handler name.
func (w *instrWalker) cell(spec *x86.OpSpec) *nameCell {
	if spec == w.lastSpec {
		return w.lastCell
	}
	c, ok := w.bySpec[spec]
	if !ok {
		if c, ok = w.byName[spec.Name]; !ok {
			c = new(nameCell)
			w.byName[spec.Name] = c
		}
		w.bySpec[spec] = c
	}
	w.lastSpec, w.lastCell = spec, c
	return c
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
