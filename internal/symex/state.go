// Package symex is the symbolic execution engine (the FuzzBALL analogue):
// an online executor for IR programs in which machine-state locations and
// memory hold bit-vector terms instead of concrete values. It contributes
// the decision tree that makes every explored path distinct (Section 3.1.2),
// feasibility checking through the bit-vector solver, on-the-fly index
// concretization for large tables (Section 3.3.2), word-size concretization
// bit-by-bit MSB-first, path summaries for common multi-path computations,
// and greedy state-difference minimization against a baseline (Section 3.4).
package symex

import (
	"fmt"

	"pokeemu/internal/expr"
	"pokeemu/internal/machine"
	"pokeemu/internal/x86"
)

// SymState is a symbolic machine state layered over a concrete baseline:
// locations and memory bytes read before being written yield either their
// concrete baseline value or, where the exploration marked them symbolic,
// a term.
type SymState struct {
	base *machine.Machine
	locs map[x86.Loc]*expr.Expr
	mem  *SymMemory

	// Vars records every symbolic variable introduced, with its width.
	Vars map[string]uint8
	// Baseline records the concrete baseline value of each variable, used
	// by minimization.
	Baseline map[string]uint64
	// VarLoc and VarMem map variable names back to the machine state they
	// represent, so the test-program generator can lift an assignment into
	// state initializers.
	VarLoc map[string]x86.Loc
	VarMem map[string]uint32
}

// NewSymState wraps a concrete baseline machine.
func NewSymState(base *machine.Machine) *SymState {
	s := &SymState{
		base:     base,
		locs:     make(map[x86.Loc]*expr.Expr),
		Vars:     make(map[string]uint8),
		Baseline: make(map[string]uint64),
		VarLoc:   make(map[string]x86.Loc),
		VarMem:   make(map[string]uint32),
	}
	s.mem = newSymMemory(base.Mem, s)
	return s
}

// Clone returns an independent copy sharing the baseline (used to re-run
// the program on a fresh state for each explored path).
func (s *SymState) Clone() *SymState {
	c := &SymState{
		base:     s.base,
		locs:     make(map[x86.Loc]*expr.Expr, len(s.locs)),
		Vars:     s.Vars,     // shared: variable identities persist across paths
		Baseline: s.Baseline, // shared
		VarLoc:   s.VarLoc,
		VarMem:   s.VarMem,
	}
	for k, v := range s.locs {
		c.locs[k] = v
	}
	c.mem = s.mem.clone(c, s.mem.vars)
	return c
}

// fork returns a deep copy for a parallel exploration task. Unlike Clone,
// the variable registries (Vars/Baseline/VarLoc/VarMem and the memory's
// variable bytes) are copied rather than shared, so the lazy creation of memory variables in SymMemory.read
// cannot race between tasks running on different goroutines. The explore
// orchestrator merges newly created names back into the root state after
// every task has joined.
func (s *SymState) fork() *SymState {
	c := &SymState{
		base:     s.base,
		locs:     make(map[x86.Loc]*expr.Expr, len(s.locs)),
		Vars:     make(map[string]uint8, len(s.Vars)),
		Baseline: make(map[string]uint64, len(s.Baseline)),
		VarLoc:   make(map[string]x86.Loc, len(s.VarLoc)),
		VarMem:   make(map[string]uint32, len(s.VarMem)),
	}
	for k, v := range s.locs {
		c.locs[k] = v
	}
	for k, v := range s.Vars {
		c.Vars[k] = v
	}
	for k, v := range s.Baseline {
		c.Baseline[k] = v
	}
	for k, v := range s.VarLoc {
		c.VarLoc[k] = v
	}
	for k, v := range s.VarMem {
		c.VarMem[k] = v
	}
	vars := make(map[uint32]*expr.Expr, len(s.mem.vars))
	for k, v := range s.mem.vars {
		vars[k] = v
	}
	c.mem = s.mem.clone(c, vars)
	return c
}

// MarkLocSymbolic replaces the location's value with a fresh variable and
// records its baseline value. The mask selects which bits are symbolic;
// concrete mask bits are pinned to the baseline via the returned side
// constraint (nil when the whole location is symbolic). This is exactly
// the Figure 3 mechanism: whole-location variables with side constraints
// fixing the concrete bits.
func (s *SymState) MarkLocSymbolic(loc x86.Loc, mask uint64) *expr.Expr {
	w := loc.Width()
	name := "st_" + loc.String()
	v := expr.Var(w, name)
	baseVal := s.base.Get(loc)
	s.Vars[name] = w
	s.Baseline[name] = baseVal
	s.VarLoc[name] = loc
	s.locs[loc] = v
	mask &= expr.Mask(w)
	if mask == expr.Mask(w) {
		return nil
	}
	fixed := ^mask & expr.Mask(w)
	return expr.Eq(
		expr.And(v, expr.Const(w, fixed)),
		expr.Const(w, baseVal&fixed),
	)
}

// MarkMemSymbolic replaces one physical memory byte with a fresh variable.
func (s *SymState) MarkMemSymbolic(addr uint32) {
	name := fmt.Sprintf("gm_%06x", addr&machine.PhysMask)
	v := expr.Var(8, name)
	s.Vars[name] = 8
	s.Baseline[name] = uint64(s.base.Mem.Read8(addr))
	s.VarMem[name] = addr & machine.PhysMask
	s.mem.vars[addr&machine.PhysMask] = v
}

// Get reads a location: symbolic if marked or written, else the concrete
// baseline value.
func (s *SymState) Get(loc x86.Loc) *expr.Expr {
	if e, ok := s.locs[loc]; ok {
		return e
	}
	return expr.Const(loc.Width(), s.base.Get(loc))
}

// Set writes a location.
func (s *SymState) Set(loc x86.Loc, e *expr.Expr) {
	if e.Width != loc.Width() {
		panic("symex: set width mismatch")
	}
	s.locs[loc] = e
}

// LoadByte reads one physical memory byte as a term.
func (s *SymState) LoadByte(addr uint32) *expr.Expr { return s.mem.read(addr) }

// StoreByte writes one physical memory byte.
func (s *SymState) StoreByte(addr uint32, e *expr.Expr) {
	if e.Width != 8 {
		panic("symex: byte store width mismatch")
	}
	s.mem.write(addr, e)
}

// SymMemory is the two-level symbolic memory: an overlay of terms above the
// concrete baseline image, with fresh variables created on demand for bytes
// the image never populated (the paper's "all unused bytes of physical
// memory are symbolic", created lazily).
//
// The bytes that hold a variable (marked symbolic, or created on first
// touch) are a registry like SymState.Vars, shared between a state and its
// clones, so a per-path clone copies only the bytes written on the path.
type SymMemory struct {
	overlay  map[uint32]*expr.Expr // bytes written
	vars     map[uint32]*expr.Expr // bytes that hold a variable
	base     *machine.Memory
	popPages map[uint32]bool // pages the baseline image populated
	owner    *SymState
}

func newSymMemory(base *machine.Memory, owner *SymState) *SymMemory {
	return &SymMemory{
		overlay:  make(map[uint32]*expr.Expr),
		vars:     make(map[uint32]*expr.Expr),
		base:     base,
		popPages: base.Touched(nil),
		owner:    owner,
	}
}

func (m *SymMemory) clone(owner *SymState, vars map[uint32]*expr.Expr) *SymMemory {
	c := &SymMemory{
		overlay:  make(map[uint32]*expr.Expr, len(m.overlay)),
		vars:     vars,
		base:     m.base,
		popPages: m.popPages,
		owner:    owner,
	}
	for k, v := range m.overlay {
		c.overlay[k] = v
	}
	return c
}

func (m *SymMemory) read(addr uint32) *expr.Expr {
	addr &= machine.PhysMask
	if e, ok := m.overlay[addr]; ok {
		return e
	}
	if e, ok := m.vars[addr]; ok {
		return e
	}
	if m.popPages[addr/machine.PageSize] {
		return expr.Const(8, uint64(m.base.Read8(addr)))
	}
	// Unused physical memory: symbolic on first touch.
	name := fmt.Sprintf("gm_%06x", addr)
	v := expr.Var(8, name)
	m.owner.Vars[name] = 8
	m.owner.Baseline[name] = 0
	m.owner.VarMem[name] = addr
	m.vars[addr] = v
	return v
}

func (m *SymMemory) write(addr uint32, e *expr.Expr) {
	m.overlay[addr&machine.PhysMask] = e
}
