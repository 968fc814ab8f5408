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

// Candidate is one byte sequence the decoder accepts, discovered on a
// distinct decoder path.
type Candidate struct {
	Bytes  [3]byte
	Spec   *x86.OpSpec
	OpSize int
}

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
	Candidates []Candidate
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
// completed walk is one decoder path; valid paths become candidates, and
// one representative is kept per per-instruction implementation.
//
// The walk makes no per-path garbage: it moves through one instruction
// buffer in place and decodes it into one reused Inst, so only decode
// errors, candidates and representatives allocate.
func ExploreInstructionSet() *InstrSetResult {
	w := &instrWalker{uniq: make(map[uniqKey]*UniqueInstr, 1024)}
	// The decoder tables yield ~206k candidates; one up-front allocation
	// spares the ~20 MB that growing the slice by appends would copy.
	w.res.Candidates = make([]Candidate, 0, 1<<18)
	w.walk(0)

	type keyed struct {
		key string
		u   *UniqueInstr
	}
	sorted := make([]keyed, 0, len(w.uniq))
	for _, u := range w.uniq {
		sorted = append(sorted, keyed{u.Key(), u})
	}
	slices.SortFunc(sorted, func(a, b keyed) int { return strings.Compare(a.key, b.key) })
	w.res.Unique = make([]*UniqueInstr, len(sorted))
	for i, k := range sorted {
		w.res.Unique[i] = k.u
	}
	return &w.res
}

// uniqKey partitions decoded instructions exactly as UniqueInstr.Key does,
// without building the key string per path.
type uniqKey struct {
	name string
	op16 bool
}

// instrWalker is one instruction-set exploration's state.
type instrWalker struct {
	buf  [x86.MaxInstLen]byte // the walked prefix; every byte past it is zero
	inst x86.Inst             // reused decode target; Raw aliases buf
	res  InstrSetResult
	uniq map[uniqKey]*UniqueInstr
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
	inst := &w.inst
	if x86.DecodeInto(w.buf[:], inst) != nil {
		return
	}
	c := Candidate{Spec: inst.Spec, OpSize: inst.OpSize}
	copy(c.Bytes[:], w.buf[:3])
	w.res.Candidates = append(w.res.Candidates, c)
	k := uniqKey{inst.Spec.Name, inst.OpSize == 16}
	if prev, ok := w.uniq[k]; !ok || inst.Len < len(prev.Repr) {
		// Keep the shortest representative of the cell, in its own memory:
		// inst.Raw is the walk's buffer.
		w.uniq[k] = &UniqueInstr{Spec: inst.Spec, OpSize: inst.OpSize, Repr: bytes.Clone(inst.Raw)}
	}
}
