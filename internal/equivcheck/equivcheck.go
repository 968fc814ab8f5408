// Package equivcheck implements symbolic disequivalence checking between
// the Hi-Fi (fidelis) and Lo-Fi (celer) implementations, the Tamarin-style
// upgrade of the paper's sampled differential testing: instead of running
// both emulators on concrete states drawn from explored paths, both are
// executed *symbolically* over one shared symbolic pre-state and the solver
// is asked whether any input makes their final states differ.
//
// The fidelis side reuses the existing machinery end to end: the handler's
// IR program (sem.Compile) is explored by the symex engine over a state
// whose eight GPRs and seven EFLAGS bits are symbolic. The celer side is
// lifted by this package (lift.go) directly from its translator's
// semantics into the same internal/expr terms over the same st_* variables.
// For every pair of feasible paths (one per side) the path conditions are
// conjoined and a per-output disequality query
//
//	out_fidelis ≠ out_celer ∧ path_f ∧ path_c
//
// is posed to the bit-blasting solver *with assumptions*, so the hot path
// reuses the expression intern table and the solver's assumption memo
// across the whole pairwise product. UNSAT on every pair and output proves
// the handler EQUIV within the modeled state space; a SAT answer yields a
// model that is decoded into a ready-to-run corpus test case (testgen) and
// replayed on the concrete harness pair, feeding the existing triage and
// baseline pipeline. Budget exhaustion or an unliftable form yields
// UNKNOWN with the exhausted stage named in the degradation ledger.
package equivcheck

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"

	"pokeemu/internal/core"
	"pokeemu/internal/corpus"
	"pokeemu/internal/diff"
	"pokeemu/internal/expr"
	"pokeemu/internal/fanout"
	"pokeemu/internal/harness"
	"pokeemu/internal/ir"
	"pokeemu/internal/machine"
	"pokeemu/internal/solver"
	"pokeemu/internal/symex"
	"pokeemu/internal/testgen"
	"pokeemu/internal/x86"
	"pokeemu/internal/x86/sem"
)

// SemVersion versions the disequivalence-checking semantics (the lifter,
// the query shape, the solver encoding, and the output set). It
// participates in the corpus cache key so a checker change invalidates
// cached verdicts.
const SemVersion = 2

// ConfigLabel names the fidelis semantics configuration checked against
// celer (the corpus cache key's Config field).
const ConfigLabel = "bochs"

// immFill is the byte used for every immediate position when synthesizing
// the canonical register-form encoding: nonzero so shift counts, aam
// divisors, and imul multiplier immediates exercise non-degenerate
// behavior, small so sign-extended forms stay positive and comparable.
const immFill = 0x05

// Verdict values.
const (
	VerdictEquiv    = "EQUIV"
	VerdictDiverges = "DIVERGES"
	VerdictUnknown  = "UNKNOWN"
)

// DefaultPathCap bounds the fidelis-side path exploration per handler when
// Options.MaxPaths is zero.
const DefaultPathCap = 256

// DefaultMaxConflicts is the per-query SAT conflict budget: high enough
// that every lifted handler family proves out, low enough that a blow-up
// degrades to UNKNOWN in seconds.
const DefaultMaxConflicts = 100_000

// DefaultGateHandlers is the seeded handler subset the CI gate checks: a
// cross-section of every lifted instruction family (ALU, carry chains,
// inc/dec, mul/div, shifts, rotates, bit tests, moves, flag ops) plus one
// alias encoding whose DIVERGES verdict is the pinned, expected decoder
// finding. The list is small enough to finish within the pinned budget on
// every run.
var DefaultGateHandlers = []string{
	"add_rm8_r8",
	"adc_rmv_rv",
	"sub_rmv_immv",
	"cmp_al_imm8",
	"xor_rmv_rv",
	"test_rm8_imm8",
	"inc_r",
	"dec_rm8",
	"neg_rmv",
	"not_rm8",
	"mul_rmv",
	"imul2_rv_rmv",
	"div_rm8",
	"shl_rmv_imm8",
	"sar_rm8_1",
	"rol_rmv_cl",
	"bt_rmv_rv",
	"btc_rmv_imm8",
	"mov_rmv_rv",
	"movzx_rv_rm8",
	"xchg_rmv_rv",
	"cmpxchg_rm8_r8",
	"sete",
	"cmc",
	"lahf",
	"cwde",
	"add_rm8_imm8_alias",
}

// Options configure a Run.
type Options struct {
	// Handlers restricts checking to these unique-instruction keys
	// (core.UniqueInstr.Key). Empty = every handler in the explored set.
	Handlers []string
	// MaxPaths caps the fidelis-side path exploration (0 = DefaultPathCap).
	MaxPaths int
	// Budget caps solver queries per handler, exploration included
	// (0 = unlimited). Exceeding it yields UNKNOWN at stage solver-budget.
	Budget int64
	// MaxConflicts bounds each disequality query's SAT search
	// (0 = DefaultMaxConflicts; negative = unlimited). The budget is
	// deterministic — conflicts, not wall clock — so a hard handler gets
	// the same UNKNOWN verdict on every run and every machine.
	MaxConflicts int64
	// Workers bounds parallel handler checks. Like campaign workers it
	// only affects wall-clock time: the report is byte-identical for any
	// worker count.
	Workers int
	// Corpus caches per-handler verdicts keyed by (handler, config, path
	// cap, budget, semantics and generator versions). nil = no caching.
	Corpus *corpus.Corpus
	// NoCache ignores cached verdicts while still refreshing them.
	NoCache bool
}

// Counterexample is a decoded DIVERGES witness: the solver model as a
// st_* assignment, the generated ready-to-run test program, and the
// concrete replay result on the fidelis/celer harness pair.
type Counterexample struct {
	// Output names the disagreeing location ("eax", "cf", …) or "outcome"
	// when the paths terminate differently (e.g. #UD vs normal end).
	Output         string `json:"output"`
	PathFidelis    int    `json:"path_fidelis"`
	PathCeler      int    `json:"path_celer"`
	OutcomeFidelis string `json:"outcome_fidelis"`
	OutcomeCeler   string `json:"outcome_celer"`
	// Assignment is the distinguishing pre-state over the st_* variables
	// (model values, baseline-filled and width-masked).
	Assignment map[string]uint64 `json:"assignment"`
	// TestID / Prog / TestOffset are the generated corpus test case
	// (initializer + test instruction), ready for the triage pipeline.
	TestID     string `json:"test_id"`
	Prog       []byte `json:"prog,omitempty"`
	TestOffset int    `json:"test_offset,omitempty"`
	BuildErr   string `json:"build_err,omitempty"`
	// Replayed is set when the concrete harness pair reproduced a
	// divergence from this assignment; RootCause/Fields classify it.
	Replayed  bool     `json:"replayed"`
	RootCause string   `json:"root_cause,omitempty"`
	Fields    []string `json:"fields,omitempty"`
}

// HandlerVerdict is one handler's result. Every serialized field is
// deterministic — independent of worker count and cache temperature — so
// verdict reports are byte-identical across runs; Cached is runtime-only.
type HandlerVerdict struct {
	Handler string `json:"handler"`
	Verdict string `json:"verdict"`
	// Stage names the exhausted stage for UNKNOWN verdicts (the
	// degradation ledger entry): regform, celer-lift:…, fidelis-paths,
	// solver-budget, panic:….
	Stage        string          `json:"stage,omitempty"`
	PathsFidelis int             `json:"paths_fidelis"`
	PathsCeler   int             `json:"paths_celer"`
	Pairs        int             `json:"pairs"`   // feasible path pairs
	Outputs      int             `json:"outputs"` // locations compared per pair
	Queries      int64           `json:"queries"` // solver queries, exploration included
	CE           *Counterexample `json:"counterexample,omitempty"`

	Cached bool `json:"-"` // answered from the corpus (timing only)
}

// Report is the full verdict matrix of one Run, rendered in input order.
type Report struct {
	Config   string            `json:"config"`
	PathCap  int               `json:"path_cap"`
	Budget   int64             `json:"budget"`
	Handlers []*HandlerVerdict `json:"handlers"`
	Equiv    int               `json:"equiv"`
	Diverges int               `json:"diverges"`
	Unknown  int               `json:"unknown"`
	Queries  int64             `json:"queries"`

	// Timing is the run-dependent wall-clock/cache table (never part of
	// the deterministic report bytes).
	Timing *Timing `json:"-"`
}

// Timing is the run-dependent side channel: wall time and cache traffic.
type Timing struct {
	Wall        time.Duration
	CacheHits   int
	CacheMisses int
}

// Table renders the timing counters like the campaign's -timing table.
func (t *Timing) Table() string {
	return fmt.Sprintf("timing: wall %v, verdict cache %d hit / %d miss\n",
		t.Wall.Round(time.Millisecond), t.CacheHits, t.CacheMisses)
}

// instrSet memoizes the (expensive, deterministic) instruction-set
// exploration across Runs in one process — a warm cached Run then issues
// zero solver queries of its own.
var instrSet = sync.OnceValue(core.ExploreInstructionSet)

// resolveHandlers maps requested handler keys onto unique instructions, in
// request order (or exploration order when the request is empty).
func resolveHandlers(want []string) ([]*core.UniqueInstr, error) {
	all := instrSet().Unique
	if len(want) == 0 {
		return all, nil
	}
	byKey := make(map[string]*core.UniqueInstr, len(all))
	for _, u := range all {
		byKey[u.Key()] = u
	}
	out := make([]*core.UniqueInstr, 0, len(want))
	for _, k := range want {
		u, ok := byKey[k]
		if !ok {
			return nil, fmt.Errorf("equivcheck: unknown handler key %q (see pokeemu explore)", k)
		}
		out = append(out, u)
	}
	return out, nil
}

// Run checks every requested handler and assembles the verdict matrix.
// The report is deterministic: byte-identical for any Workers value and
// any cache temperature.
func Run(opts Options) (*Report, error) {
	if opts.MaxPaths <= 0 {
		opts.MaxPaths = DefaultPathCap
	}
	if opts.MaxConflicts == 0 {
		opts.MaxConflicts = DefaultMaxConflicts
	}
	us, err := resolveHandlers(opts.Handlers)
	if err != nil {
		return nil, err
	}

	start := time.Now()
	env := &checkEnv{image: machine.BaselineImage(), boot: testgen.BaselineInit()}
	results := make([]*HandlerVerdict, len(us))
	panics, _ := fanout.Run(context.Background(), opts.Workers, len(us), func(i int) {
		results[i] = checkHandler(us[i], &opts, env)
	})
	for _, p := range panics {
		if p != nil {
			// A crashed check fails loudly rather than yield a nil verdict;
			// the first in index order is the same for any worker count.
			panic(p)
		}
	}

	rep := &Report{
		Config:   ConfigLabel,
		PathCap:  opts.MaxPaths,
		Budget:   opts.Budget,
		Handlers: results,
		Timing:   &Timing{Wall: time.Since(start)},
	}
	for _, v := range results {
		if v.Cached {
			rep.Timing.CacheHits++
		} else {
			rep.Timing.CacheMisses++
		}
		switch v.Verdict {
		case VerdictEquiv:
			rep.Equiv++
		case VerdictDiverges:
			rep.Diverges++
		default:
			rep.Unknown++
		}
		rep.Queries += v.Queries
	}
	return rep, nil
}

// checkEnv is the read-only state shared by every handler check.
type checkEnv struct {
	image *machine.Memory
	boot  []byte // baseline initializer for counterexample replay
}

// cacheKey builds the corpus key for one handler under these options.
func cacheKey(handler string, opts *Options) corpus.EquivKey {
	return corpus.EquivKey{
		Handler:      handler,
		Config:       ConfigLabel,
		PathCap:      opts.MaxPaths,
		Budget:       opts.Budget,
		MaxConflicts: opts.MaxConflicts,
		SemVersion:   SemVersion,
		GenVersion:   testgen.Version,
	}
}

// checkHandler produces one handler's verdict, answering from the corpus
// when possible and recovering any panic into an UNKNOWN verdict so a bad
// handler never kills the run.
func checkHandler(u *core.UniqueInstr, opts *Options, env *checkEnv) (v *HandlerVerdict) {
	key := cacheKey(u.Key(), opts)
	if opts.Corpus != nil && !opts.NoCache {
		if e, ok := opts.Corpus.GetEquiv(key); ok {
			var cached HandlerVerdict
			if json.Unmarshal(e.Verdict, &cached) == nil && cached.Handler == u.Key() {
				cached.Cached = true
				return &cached
			}
		}
	}
	defer func() {
		if r := recover(); r != nil {
			v = &HandlerVerdict{
				Handler: u.Key(), Verdict: VerdictUnknown,
				Stage: fmt.Sprintf("panic: %v", r),
			}
		}
		if opts.Corpus != nil {
			if data, err := json.Marshal(v); err == nil {
				// A failed cache write degrades to an uncached next run.
				_ = opts.Corpus.PutEquiv(&corpus.EquivEntry{Key: key, Verdict: data})
			}
		}
	}()
	v = checkOne(u, opts, env)
	return v
}

// fpath is one explored fidelis path.
type fpath struct {
	cond    []*expr.Expr
	outcome ir.Outcome
	final   *symex.SymState
}

// outputsFor lists the compared locations for a handler: all eight GPRs
// plus the status/direction flags the architecture defines for it.
// Architecturally undefined flags (diff.UndefFilterFor) are excluded —
// celer leaves them unchanged while the Bochs-faithful fidelis models a
// specific choice, a disagreement the concrete pipeline also filters out.
func outputsFor(handler string) []x86.Loc {
	undef := diff.UndefFilterFor(handler).EFLAGSMask
	outs := make([]x86.Loc, 0, 8+len(symFlagBits))
	for r := 0; r < 8; r++ {
		outs = append(outs, x86.GPR(x86.Reg(r)))
	}
	for _, b := range symFlagBits {
		if undef>>b&1 == 0 {
			outs = append(outs, x86.Flag(b))
		}
	}
	return outs
}

// unknown builds an UNKNOWN verdict at the named stage.
func unknown(u *core.UniqueInstr, stage string, queries int64) *HandlerVerdict {
	return &HandlerVerdict{
		Handler: u.Key(), Verdict: VerdictUnknown, Stage: stage, Queries: queries,
	}
}

// checkOne runs the full disequivalence check for one handler.
func checkOne(u *core.UniqueInstr, opts *Options, env *checkEnv) *HandlerVerdict {
	enc, inst, err := regFormEncoding(u)
	if err != nil {
		return unknown(u, "regform: "+err.Error(), 0)
	}

	// Celer side: lift the translator's semantics into expr terms.
	cPaths, err := liftCeler(inst, machine.NewBaseline(env.image))
	if err != nil {
		return unknown(u, "celer-lift: "+liftReason(err), 0)
	}

	// Fidelis side: symbolic exploration of the handler's IR program over
	// the same symbolic pre-state variables.
	prog := sem.Compile(inst, sem.BochsConfig)
	symSt := symex.NewSymState(machine.NewBaseline(env.image))
	for r := 0; r < 8; r++ {
		symSt.MarkLocSymbolic(x86.GPR(x86.Reg(r)), ^uint64(0))
	}
	for _, b := range symFlagBits {
		symSt.MarkLocSymbolic(x86.Flag(b), 1)
	}
	en := symex.NewEngine(symSt, nil, symex.Options{
		MaxPaths: opts.MaxPaths, MaxSteps: 1 << 16, Seed: 1, SkipMinimize: true,
	})
	var fPaths []*fpath
	aborted := false
	en.Explore(prog, func(r *symex.PathResult) {
		if r.Aborted {
			aborted = true
		}
		fPaths = append(fPaths, &fpath{
			cond:    append([]*expr.Expr(nil), r.Cond...),
			outcome: r.Outcome,
			final:   r.Final,
		})
	})
	stats := en.Stats()
	if !stats.Exhausted || aborted {
		return unknown(u, "fidelis-paths: exploration capped", stats.SolverQueries)
	}

	outputs := outputsFor(u.Spec.Name)
	v := &HandlerVerdict{
		Handler: u.Key(), Verdict: VerdictEquiv,
		PathsFidelis: len(fPaths), PathsCeler: len(cPaths),
		Outputs: len(outputs),
	}

	// Pairwise path product over one solver instance: the assumption memo
	// and intern table amortize shared sub-terms across all queries, and
	// gate hashing (Strash) folds the two sides' copies of a common
	// circuit into one, so a miter over equal circuits is decided by unit
	// propagation instead of a CDCL search (the restoring dividers of the
	// idiv family are the case that needs it). No subsumption: every
	// disequality query is a fresh UNSAT proof obligation.
	bv := solver.NewBV()
	bv.Strash = true
	if opts.MaxConflicts > 0 {
		bv.MaxConflicts = opts.MaxConflicts
	}
	queries := func() int64 { return stats.SolverQueries + bv.Queries }
	overBudget := func() bool { return opts.Budget > 0 && queries() >= opts.Budget }
	litsOf := func(conds []*expr.Expr) []solver.Lit {
		lits := make([]solver.Lit, 0, len(conds))
		for _, c := range conds {
			lits = append(lits, bv.LitFor(c))
		}
		return lits
	}

	for fi, fp := range fPaths {
		fLits := litsOf(fp.cond)
		for ci, cp := range cPaths {
			if overBudget() {
				return unknown(u, "solver-budget: query budget exhausted", queries())
			}
			pairLits := append(append([]solver.Lit(nil), fLits...), litsOf(cp.cond)...)
			switch bv.CheckLits(pairLits) {
			case solver.Unsat:
				continue // infeasible combination
			case solver.Unknown:
				return unknown(u, "solver-budget: conflict limit", queries())
			}
			v.Pairs++
			if fp.outcome.Kind != cp.outcome.Kind ||
				(fp.outcome.Kind == ir.OutRaise && fp.outcome.Vector != cp.outcome.Vector) {
				v.Verdict = VerdictDiverges
				v.CE = buildCE(u, enc, inst, fi, ci, fp, cp, "outcome",
					bv.Model(), symSt, env)
				v.Queries = queries()
				return v
			}
			if fp.outcome.Kind != ir.OutEnd {
				continue // same fault/halt on both sides; no state to compare
			}
			for _, loc := range outputs {
				ne := expr.Ne(fp.final.Get(loc), cp.st.get(loc))
				if ne.IsFalse() {
					continue // structurally identical terms
				}
				if overBudget() {
					return unknown(u, "solver-budget: query budget exhausted", queries())
				}
				switch bv.CheckLits(append(pairLits, bv.LitFor(ne))) {
				case solver.Sat:
					v.Verdict = VerdictDiverges
					v.CE = buildCE(u, enc, inst, fi, ci, fp, cp, loc.String(),
						bv.Model(), symSt, env)
					v.Queries = queries()
					return v
				case solver.Unknown:
					return unknown(u, "solver-budget: conflict limit", queries())
				}
			}
		}
	}
	v.Queries = queries()
	return v
}

// liftReason extracts the stage detail from a lifter error.
func liftReason(err error) string {
	if ue, ok := err.(*UnsupportedError); ok {
		return ue.Reason
	}
	return err.Error()
}

// buildCE decodes a distinguishing solver model into a corpus test case
// and replays it on the concrete fidelis/celer pair. A reproduced
// divergence is classified with the shared root-cause analysis; a failed
// reproduction is recorded too (Replayed=false flags a prover bug the
// replay property test will catch).
func buildCE(u *core.UniqueInstr, enc []byte, inst *x86.Inst, fi, ci int,
	fp *fpath, cp *celerPath, output string, model map[string]uint64,
	symSt *symex.SymState, env *checkEnv) *Counterexample {

	asn := make(map[string]uint64, len(symSt.Vars))
	for name, w := range symSt.Vars {
		val, ok := model[name]
		if !ok {
			val = symSt.Baseline[name]
		}
		asn[name] = val & expr.Mask(w)
	}
	ce := &Counterexample{
		Output:         output,
		PathFidelis:    fi,
		PathCeler:      ci,
		OutcomeFidelis: fmt.Sprint(fp.outcome),
		OutcomeCeler:   fmt.Sprint(cp.outcome),
		Assignment:     asn,
		TestID:         u.Key() + "/equivcheck#" + strconv.Itoa(fi),
	}

	tc := &core.TestCase{
		ID:         ce.TestID,
		InstrBytes: append([]byte(nil), enc[:inst.Len]...),
		Handler:    u.Spec.Name,
		Mnemonic:   u.Spec.Mn,
		PathIndex:  fi,
		Outcome:    fp.outcome,
		Assignment: core.DiffsOf(asn, symSt.Baseline, symSt.Vars),
		Baseline:   symSt.Baseline,
		Widths:     symSt.Vars,
		VarLoc:     symSt.VarLoc,
		VarMem:     symSt.VarMem,
	}
	prog, err := testgen.Build(tc)
	if err != nil {
		ce.BuildErr = err.Error()
		return ce
	}
	ce.Prog = prog.Code
	ce.TestOffset = prog.TestOffset

	fr := harness.RunBootBudget(harness.FidelisFactory(), env.image, env.boot, prog.Code, harness.Budget{})
	cr := harness.RunBootBudget(harness.CelerFactory(), env.image, env.boot, prog.Code, harness.Budget{})
	if fr.Snapshot == nil || cr.Snapshot == nil || fr.TimedOut || cr.TimedOut ||
		fr.BaselineFault || cr.BaselineFault {
		return ce
	}
	fields := diff.Compare(fr.Snapshot, cr.Snapshot, diff.UndefFilterFor(u.Spec.Name))
	if len(fields) == 0 {
		return ce
	}
	ce.Replayed = true
	d := &diff.Difference{
		TestID: tc.ID, Handler: u.Spec.Name, Mnemonic: u.Spec.Mn,
		ImplA: fr.Impl, ImplB: cr.Impl, Fields: fields,
	}
	ce.RootCause = diff.RootCause(d)
	for _, f := range fields {
		ce.Fields = append(ce.Fields, f.Field)
	}
	sort.Strings(ce.Fields)
	return ce
}

// regFormEncoding synthesizes the canonical register-form encoding for a
// unique instruction: the representative's prefixes and opcode, ModRM
// forced to mod 3 (dropping any SIB/displacement), and every immediate
// byte filled with immFill. The result must decode to the same handler at
// the same operand size, or the handler is not checkable symbolically
// (memory-only forms like lea).
func regFormEncoding(u *core.UniqueInstr) ([]byte, *x86.Inst, error) {
	full := make([]byte, x86.MaxInstLen)
	copy(full, u.Repr)
	inst0, err := x86.Decode(full)
	if err != nil {
		return nil, nil, fmt.Errorf("representative does not decode: %w", err)
	}
	opLen := inst0.Len - inst0.ImmSize - inst0.DispSize
	if inst0.HasSIB {
		opLen--
	}
	if inst0.HasModRM {
		opLen--
	}
	if opLen <= 0 || opLen > inst0.Len {
		return nil, nil, fmt.Errorf("cannot locate opcode bytes")
	}
	enc := make([]byte, 0, x86.MaxInstLen)
	enc = append(enc, inst0.Raw[:opLen]...)
	if inst0.HasModRM {
		enc = append(enc, inst0.ModRM|0xc0)
	}
	for i := 0; i < inst0.ImmSize; i++ {
		enc = append(enc, immFill)
	}
	full2 := make([]byte, x86.MaxInstLen)
	copy(full2, enc)
	inst, err := x86.Decode(full2)
	if err != nil {
		return nil, nil, fmt.Errorf("no register form: %w", err)
	}
	if inst.Spec.Name != inst0.Spec.Name || inst.OpSize != inst0.OpSize {
		return nil, nil, fmt.Errorf("register form decodes to %s", inst.Spec.Name)
	}
	if inst.HasModRM && !inst.IsRegForm() {
		return nil, nil, fmt.Errorf("register form still has a memory operand")
	}
	return full2, inst, nil
}
