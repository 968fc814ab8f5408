package core

import (
	"fmt"

	"pokeemu/internal/expr"
	"pokeemu/internal/ir"
	"pokeemu/internal/machine"
	"pokeemu/internal/symex"
	"pokeemu/internal/x86"
	"pokeemu/internal/x86/sem"
)

// TestCase is one lifted test: a test instruction plus the minimized
// assignment describing the test state that drives one Hi-Fi execution
// path.
type TestCase struct {
	ID         string
	InstrBytes []byte
	Handler    string
	Mnemonic   string
	PathIndex  int
	Outcome    ir.Outcome
	Aborted    bool

	// Assignment holds the test state as a difference from the baseline:
	// exactly the symbolic variables whose (minimized) value differs from
	// Baseline. Every other variable is at its baseline value (see Value).
	// Baseline/Widths/VarLoc/VarMem describe all the variables.
	Assignment map[string]uint64
	Baseline   map[string]uint64
	Widths     map[string]uint8
	VarLoc     map[string]x86.Loc
	VarMem     map[string]uint32
}

// Diffs returns the variables whose value differs from the baseline — the
// pieces of state the initializer must establish. That is Assignment
// itself; callers must not modify it.
func (tc *TestCase) Diffs() map[string]uint64 { return tc.Assignment }

// Value returns one variable's value in the test state: its Assignment
// entry, else its baseline value.
func (tc *TestCase) Value(name string) uint64 {
	if v, ok := tc.Assignment[name]; ok {
		return v
	}
	return tc.Baseline[name]
}

// DiffsOf returns the entries of a total assignment that differ from the
// baseline, the form TestCase.Assignment takes.
func DiffsOf(asn, baseline map[string]uint64, widths map[string]uint8) map[string]uint64 {
	out := make(map[string]uint64)
	for name, v := range asn {
		if v != baseline[name]&expr.Mask(widths[name]) {
			out[name] = v
		}
	}
	return out
}

// ExploreResult is the outcome of state-space exploration for one
// instruction.
type ExploreResult struct {
	Instr     *UniqueInstr
	Tests     []*TestCase
	Stats     symex.Stats
	Exhausted bool
}

// Explorer drives machine state-space exploration: it owns the shared
// baseline image and the descriptor-parse summaries, built once (the
// Section 3.3.2 summarization) and instantiated per segment.
type Explorer struct {
	image    *machine.Memory
	baseline *machine.Machine
	cfg      sem.Config
	opts     symex.Options

	sumData *symex.Summary
	sumSS   *symex.Summary
	// SummaryPaths records the path count of the descriptor parse (the
	// "23 paths" observation).
	SummaryPaths int

	// UseSummaries can be disabled for the E8 ablation: exploration then
	// leaves segment caches as plain symbolic variables, losing the tie to
	// GDT bytes.
	UseSummaries bool
}

// NewExplorer builds an explorer over a fresh baseline with the Hi-Fi
// (Bochs-like) semantics configuration.
func NewExplorer(opts symex.Options) (*Explorer, error) {
	return NewExplorerWithConfig(opts, sem.BochsConfig)
}

// NewExplorerWithConfig explores a different reference's semantics — e.g.
// the hardware configuration, which realizes the paper's Section 7
// suggestion of lifting in the opposite direction to probe the Hi-Fi
// emulator with another implementation's corner cases.
func NewExplorerWithConfig(opts symex.Options, cfg sem.Config) (*Explorer, error) {
	return NewExplorerWithSummaries(opts, cfg, ExplorerSummaries{})
}

// ExplorerSummaries bundles the precomputed descriptor-parse summaries so an
// explorer can be constructed without re-running the Section 3.3.2
// summarization — the corpus caches these across campaign runs.
type ExplorerSummaries struct {
	Data, SS *symex.Summary
}

// Summaries returns the explorer's descriptor-parse summaries for caching.
func (ex *Explorer) Summaries() ExplorerSummaries {
	return ExplorerSummaries{Data: ex.sumData, SS: ex.sumSS}
}

// NewExplorerWithSummaries builds an explorer, reusing precomputed
// descriptor-parse summaries when both are supplied and summarizing from
// scratch otherwise.
func NewExplorerWithSummaries(opts symex.Options, cfg sem.Config, sums ExplorerSummaries) (*Explorer, error) {
	ex := &Explorer{
		image:        machine.BaselineImage(),
		cfg:          cfg,
		opts:         opts,
		UseSummaries: true,
	}
	ex.baseline = machine.NewBaseline(ex.image)
	if sums.Data != nil && sums.SS != nil {
		ex.sumData, ex.sumSS = sums.Data, sums.SS
		ex.SummaryPaths = ex.sumData.Paths
		return ex, nil
	}
	base := symex.NewSymState(ex.baseline)
	ports := sem.DescriptorParsePorts
	inputs := map[x86.Loc]*expr.Expr{
		ports.Lo:  expr.Var(32, "d_lo"),
		ports.Hi:  expr.Var(32, "d_hi"),
		ports.Sel: expr.ZExt(expr.Var(16, "d_sel"), 32),
	}
	outs := []x86.Loc{ports.Base, ports.Limit, ports.Attr}
	var err error
	ex.sumData, err = symex.Summarize(base, sem.DescriptorParseProgram(false), inputs, outs)
	if err != nil {
		return nil, fmt.Errorf("core: data-segment parse summary: %w", err)
	}
	ex.sumSS, err = symex.Summarize(base, sem.DescriptorParseProgram(true), inputs, outs)
	if err != nil {
		return nil, fmt.Errorf("core: stack-segment parse summary: %w", err)
	}
	ex.SummaryPaths = ex.sumData.Paths
	return ex, nil
}

// Image returns the shared baseline image (for the harness).
func (ex *Explorer) Image() *machine.Memory { return ex.image }

// symbolicDataSegments lists the segment registers whose descriptors are
// explored symbolically (CS stays concrete so the test program itself can
// run, per Section 3.4's discussion).
var symbolicDataSegments = []x86.SegReg{x86.ES, x86.SS, x86.DS, x86.FS, x86.GS}

// buildSymbolicState constructs the Figure 3 symbolic machine state over a
// fresh baseline clone: general registers, EFLAGS bits, segment selector
// RPLs, the GDT descriptor bytes of every data segment, CR0/CR3/CR4 flag
// bits, and the flag bytes of every page directory and page table entry.
// Segment descriptor caches are seeded from the parse summaries over the
// GDT bytes; the summaries' success conditions become side constraints (the
// cache reload in the initializer must not fault).
func (ex *Explorer) buildSymbolicState() (*symex.SymState, []*expr.Expr) {
	st := symex.NewSymState(machine.NewBaseline(ex.image))
	var side []*expr.Expr
	addSide := func(e *expr.Expr) {
		if e != nil {
			side = append(side, e)
		}
	}

	// General purpose registers: fully symbolic.
	for r := 0; r < 8; r++ {
		addSide(st.MarkLocSymbolic(x86.GPR(x86.Reg(r)), ^uint64(0)))
	}
	// EFLAGS bits per Figure 3 (VM and RF stay concrete).
	for _, bit := range []uint8{
		x86.FlagCF, x86.FlagPF, x86.FlagAF, x86.FlagZF, x86.FlagSF,
		x86.FlagTF, x86.FlagIF, x86.FlagDF, x86.FlagOF, 12, 13,
		x86.FlagNT, x86.FlagAC, x86.FlagVIF, x86.FlagVIP, x86.FlagID,
	} {
		addSide(st.MarkLocSymbolic(x86.Flag(bit), 1))
	}
	// Control registers: flag bits symbolic, mode bits (PE, PG) and the
	// page-table pointer concrete.
	cr0Mask := uint64(1<<x86.CR0MP | 1<<x86.CR0EM | 1<<x86.CR0TS |
		1<<x86.CR0NE | 1<<x86.CR0WP | 1<<x86.CR0AM)
	addSide(st.MarkLocSymbolic(x86.CR(0), cr0Mask))
	addSide(st.MarkLocSymbolic(x86.CR(3), 0x18)) // PWT, PCD only
	addSide(st.MarkLocSymbolic(x86.CR(4), 0x1ff))

	// Page directory and page table entry flag bytes (pointers concrete).
	for i := uint32(0); i < 1024; i++ {
		st.MarkMemSymbolic(machine.PDBase + i*4)
		st.MarkMemSymbolic(machine.PTBase + i*4)
	}

	// Segment selectors (RPL symbolic, index pinned so the GDT relationship
	// holds) and descriptors: all 8 GDT bytes of each data segment entry
	// symbolic; caches derived through the parse summaries.
	for _, sr := range symbolicDataSegments {
		addSide(st.MarkLocSymbolic(x86.SegSel(sr), 0x3))
		selVar := expr.Var(16, "st_"+sr.String()+".sel")
		base := machine.GDTBase + machine.GDTIndex(BaselineSelector(sr))*8
		for b := uint32(0); b < 8; b++ {
			st.MarkMemSymbolic(base + b)
		}
		loE := memWord(st, base)
		hiE := memWord(st, base+4)
		sum := ex.sumData
		if sr == x86.SS {
			sum = ex.sumSS
		}
		if ex.UseSummaries {
			sub := map[string]*expr.Expr{
				"d_lo": loE, "d_hi": hiE, "d_sel": selVar,
			}
			ports := sem.DescriptorParsePorts
			st.Set(x86.SegBase(sr), expr.Substitute(sum.Outputs[ports.Base], sub))
			st.Set(x86.SegLimit(sr), expr.Substitute(sum.Outputs[ports.Limit], sub))
			st.Set(x86.SegAttr(sr),
				expr.Extract(expr.Substitute(sum.Outputs[ports.Attr], sub), 0, 16))
			side = append(side, expr.Substitute(sum.Success, sub))
		} else {
			// Ablation: caches as free variables, untied to the GDT.
			addSide(st.MarkLocSymbolic(x86.SegBase(sr), ^uint64(0)))
			addSide(st.MarkLocSymbolic(x86.SegLimit(sr), ^uint64(0)))
			addSide(st.MarkLocSymbolic(x86.SegAttr(sr), ^uint64(0)))
		}
	}
	return st, side
}

// BaselineSelector returns the baseline GDT selector loaded into a segment
// register by the baseline initializer.
func BaselineSelector(sr x86.SegReg) uint16 {
	switch sr {
	case x86.CS:
		return machine.SelCode
	case x86.DS:
		return machine.SelData
	case x86.ES:
		return machine.SelES
	case x86.FS:
		return machine.SelFS
	case x86.GS:
		return machine.SelGS
	case x86.SS:
		return machine.SelSS
	}
	panic("core: unknown segment register")
}

// memWord assembles the little-endian 32-bit term at a physical address
// from the symbolic memory (used for the GDT descriptor words).
func memWord(st *symex.SymState, addr uint32) *expr.Expr {
	v := st.LoadByte(addr)
	for i := uint32(1); i < 4; i++ {
		v = expr.Concat(st.LoadByte(addr+i), v)
	}
	return v
}

// ExploreState runs machine state-space exploration for one instruction:
// compile its Hi-Fi semantics, mark the Figure 3 state symbolic, and
// enumerate paths up to the configured cap, lifting each into a TestCase.
func (ex *Explorer) ExploreState(u *UniqueInstr) (*ExploreResult, error) {
	inst, err := x86.Decode(u.Repr)
	if err != nil {
		return nil, fmt.Errorf("core: representative does not decode: %w", err)
	}
	return ex.exploreProgram(u, sem.Compile(inst, ex.cfg))
}

// exploreProgram is the shared exploration core behind ExploreState and
// ExploreSequence.
func (ex *Explorer) exploreProgram(u *UniqueInstr, prog *ir.Program) (*ExploreResult, error) {
	return ex.exploreProgramOpts(u, prog, ex.opts)
}

// exploreProgramOpts is exploreProgram under explicit engine options (the
// guided variant narrows the path cap and sets a guiding assignment).
func (ex *Explorer) exploreProgramOpts(u *UniqueInstr, prog *ir.Program, opts symex.Options) (*ExploreResult, error) {
	st, side := ex.buildSymbolicState()
	en := symex.NewEngine(st, side, opts)

	res := &ExploreResult{Instr: u}
	i := 0
	en.Explore(prog, func(r *symex.PathResult) {
		tc := &TestCase{
			ID:         fmt.Sprintf("%s#%d", u.Key(), i),
			InstrBytes: append([]byte(nil), u.Repr...),
			Handler:    u.Spec.Name,
			Mnemonic:   u.Spec.Mn,
			PathIndex:  i,
			Outcome:    r.Outcome,
			Aborted:    r.Aborted,
			Assignment: r.Model,
			Baseline:   st.Baseline,
			Widths:     st.Vars,
			VarLoc:     st.VarLoc,
			VarMem:     st.VarMem,
		}
		res.Tests = append(res.Tests, tc)
		i++
	})
	res.Stats = en.Stats()
	res.Exhausted = res.Stats.Exhausted
	return res, nil
}
