package equivcheck

import (
	"encoding/json"
	"flag"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"pokeemu/internal/core"
	"pokeemu/internal/corpus"
	"pokeemu/internal/diff"
	"pokeemu/internal/equiv"
	"pokeemu/internal/expr"
	"pokeemu/internal/harness"
	"pokeemu/internal/ir"
	"pokeemu/internal/machine"
	"pokeemu/internal/solver"
	"pokeemu/internal/symex"
	"pokeemu/internal/testgen"
	"pokeemu/internal/x86"
	"pokeemu/internal/x86/sem"
)

var update = flag.Bool("update", false, "rewrite golden files")

// gateReport memoizes one Run over the gate handlers for the whole test
// binary — several tests assert different properties of the same report.
var gateReport = sync.OnceValue(func() *Report {
	rep, err := Run(Options{Handlers: DefaultGateHandlers})
	if err != nil {
		panic(err)
	}
	return rep
})

// TestGateVerdicts pins the expected verdict matrix of the seeded gate
// subset: every lifted family proves EQUIV and the single alias encoding is
// the one expected DIVERGES (celer's decoder rejects it with #UD).
func TestGateVerdicts(t *testing.T) {
	rep := gateReport()
	if rep.Unknown != 0 {
		t.Fatalf("gate run has %d UNKNOWN verdicts:\n%s", rep.Unknown, rep.Render())
	}
	for _, v := range rep.Handlers {
		want := VerdictEquiv
		if strings.HasSuffix(v.Handler, "_alias") {
			want = VerdictDiverges
		}
		if v.Verdict != want {
			t.Errorf("%s: verdict %s, want %s (stage %q)", v.Handler, v.Verdict, want, v.Stage)
		}
	}
	if rep.Diverges == 0 {
		t.Fatal("gate run found no DIVERGES; the alias-encoding finding is gone")
	}
}

// TestModelsReproduce is the counterexample replay property: every DIVERGES
// model the prover emits must decode into a runnable test case whose
// concrete execution on the fidelis/celer harness pair reproduces a
// divergence — a symbolic finding that cannot be replayed is a prover bug.
func TestModelsReproduce(t *testing.T) {
	for _, v := range gateReport().Handlers {
		if v.Verdict != VerdictDiverges {
			continue
		}
		ce := v.CE
		if ce == nil {
			t.Errorf("%s: DIVERGES without a counterexample", v.Handler)
			continue
		}
		if ce.BuildErr != "" {
			t.Errorf("%s: counterexample did not build: %s", v.Handler, ce.BuildErr)
			continue
		}
		if !ce.Replayed {
			t.Errorf("%s: counterexample did not reproduce concretely (output %s, witness %v)",
				v.Handler, ce.Output, ce.Assignment)
			continue
		}
		if ce.RootCause == "" || len(ce.Fields) == 0 {
			t.Errorf("%s: replayed counterexample lacks root cause/fields", v.Handler)
		}
	}
}

// TestAliasHandlersDiverge checks every liftable alias encoding in the
// instruction set: celer rejects them all with #UD, so each must either be
// a replayed DIVERGES or an UNKNOWN whose stage names an unliftable form —
// never a (wrong) EQUIV.
func TestAliasHandlersDiverge(t *testing.T) {
	var aliases []string
	for _, u := range instrSet().Unique {
		if strings.HasSuffix(u.Spec.Name, "_alias") {
			aliases = append(aliases, u.Key())
		}
	}
	if len(aliases) == 0 {
		t.Fatal("no alias handlers in the instruction set")
	}
	rep, err := Run(Options{Handlers: aliases, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range rep.Handlers {
		switch v.Verdict {
		case VerdictDiverges:
			if v.CE == nil || (v.CE.BuildErr == "" && !v.CE.Replayed) {
				t.Errorf("%s: alias DIVERGES did not replay", v.Handler)
			}
		case VerdictUnknown:
			if !strings.HasPrefix(v.Stage, "regform:") && !strings.HasPrefix(v.Stage, "celer-lift:") {
				t.Errorf("%s: alias UNKNOWN at unexpected stage %q", v.Handler, v.Stage)
			}
		default:
			t.Errorf("%s: alias encoding proved EQUIV; celer must reject it with #UD", v.Handler)
		}
	}
}

// detHandlers is a small mixed subset exercising all three verdicts for the
// determinism and golden tests: EQUIV families, one DIVERGES, one
// lift-unsupported UNKNOWN.
var detHandlers = []string{
	"add_rm8_r8", "adc_rmv_rv", "sete", "rol_rmv_cl",
	"add_rm8_imm8_alias", "shld_cl",
}

// TestWorkerDeterminism requires byte-identical reports (text and JSON) for
// any worker count — the ISSUE's determinism acceptance criterion, also run
// under -race by make race.
func TestWorkerDeterminism(t *testing.T) {
	var renders []string
	var encodes []string
	for _, workers := range []int{1, 4, 8} {
		rep, err := Run(Options{Handlers: detHandlers, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		data, err := rep.Encode()
		if err != nil {
			t.Fatal(err)
		}
		renders = append(renders, rep.Render())
		encodes = append(encodes, string(data))
	}
	for i := 1; i < len(renders); i++ {
		if renders[i] != renders[0] {
			t.Errorf("text report differs between workers=1 and workers=%d:\n--- w1:\n%s\n--- w%d:\n%s",
				[]int{1, 4, 8}[i], renders[0], []int{1, 4, 8}[i], renders[i])
		}
		if encodes[i] != encodes[0] {
			t.Errorf("JSON report differs between worker counts")
		}
	}
}

// TestReportGolden pins the text and JSON report formats byte for byte.
// Regenerate deliberately with:
//
//	go test ./internal/equivcheck -run TestReportGolden -update
func TestReportGolden(t *testing.T) {
	rep, err := Run(Options{Handlers: detHandlers})
	if err != nil {
		t.Fatal(err)
	}
	data, err := rep.Encode()
	if err != nil {
		t.Fatal(err)
	}
	compareGolden(t, filepath.Join("testdata", "report.golden"), []byte(rep.Render()))
	compareGolden(t, filepath.Join("testdata", "report_json.golden"), data)
}

func compareGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if string(want) != string(got) {
		t.Errorf("report differs from %s (format changes must be deliberate; -update to regenerate):\n--- want:\n%s\n--- got:\n%s",
			path, want, got)
	}
}

// TestFullMatrixGolden pins the verdict matrix over every handler in the
// instruction set, byte for byte and for two worker counts: 430 EQUIV, 20
// DIVERGES that are exactly the pinned alias findings and all replay
// concretely, and 222 UNKNOWN that are all out of the lifter's scope (no
// solver budget gives up). Regenerate deliberately with:
//
//	go test ./internal/equivcheck -run TestFullMatrixGolden -update
func TestFullMatrixGolden(t *testing.T) {
	known, err := LoadKnownDiverges(filepath.Join("testdata", "known_diverges.json"))
	if err != nil {
		t.Fatal(err)
	}
	knownSet := make(map[string]bool)
	for _, h := range known.Handlers {
		knownSet[h] = true
	}
	var first string
	for _, workers := range []int{1, 4} {
		rep, err := Run(Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		render := rep.Render()
		if first == "" {
			first = render
			compareGolden(t, filepath.Join("testdata", "matrix.golden"), []byte(render))
		} else if render != first {
			t.Errorf("full matrix differs between workers=1 and workers=%d", workers)
		}
		if rep.Equiv != 430 || rep.Diverges != 20 || rep.Unknown != 222 {
			t.Errorf("workers=%d: %d EQUIV / %d DIVERGES / %d UNKNOWN, want 430 / 20 / 222",
				workers, rep.Equiv, rep.Diverges, rep.Unknown)
		}
		diverges := 0
		for _, v := range rep.Handlers {
			switch v.Verdict {
			case VerdictDiverges:
				diverges++
				if !knownSet[v.Handler] {
					t.Errorf("%s: DIVERGES outside the known set", v.Handler)
				}
				if v.CE == nil || !v.CE.Replayed {
					t.Errorf("%s: DIVERGES without a reproduced replay", v.Handler)
				}
			case VerdictUnknown:
				if strings.HasPrefix(v.Stage, "solver-budget:") {
					t.Errorf("%s: UNKNOWN at %q", v.Handler, v.Stage)
				}
			}
		}
		if diverges != len(knownSet) {
			t.Errorf("workers=%d: %d DIVERGES, want the %d known", workers, diverges, len(knownSet))
		}
	}
}

// TestSemVersionRechecksCachedVerdicts: a verdict cached under an older
// SemVersion (idiv_rmv's conflict-budget UNKNOWN, which the gate-hashing
// solver proves) has a different corpus key, so a run re-checks the
// handler instead of serving the stale answer.
func TestSemVersionRechecksCachedVerdicts(t *testing.T) {
	const handler = "idiv_rmv"
	key := cacheKey(handler, &Options{})
	stale := key
	stale.SemVersion = 1
	if key.SemVersion != 2 || key.Hash() == stale.Hash() {
		t.Fatalf("SemVersion %d key hash %s does not differ from version 1", key.SemVersion, key.Hash())
	}
	crp, err := corpus.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	old, err := json.Marshal(&HandlerVerdict{Handler: handler, Verdict: VerdictUnknown,
		Stage: "solver-budget: conflict limit"})
	if err != nil {
		t.Fatal(err)
	}
	if err := crp.PutEquiv(&corpus.EquivEntry{Key: stale, Verdict: old}); err != nil {
		t.Fatal(err)
	}
	rep, err := Run(Options{Handlers: []string{handler}, Corpus: crp})
	if err != nil {
		t.Fatal(err)
	}
	if v := rep.Handlers[0]; v.Cached || v.Verdict != VerdictEquiv {
		t.Errorf("%s: verdict %s (cached %v, stage %q), want a fresh EQUIV",
			handler, v.Verdict, v.Cached, v.Stage)
	}
}

// TestWarmCacheStability: with a corpus, a second identical Run answers
// every handler from cached verdicts — zero fresh solver queries — and
// still renders byte-identically to the cold run.
func TestWarmCacheStability(t *testing.T) {
	crp, err := corpus.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cold, err := Run(Options{Handlers: detHandlers, Corpus: crp})
	if err != nil {
		t.Fatal(err)
	}
	if cold.Timing.CacheMisses != len(detHandlers) || cold.Timing.CacheHits != 0 {
		t.Fatalf("cold run: %d hits / %d misses, want 0 / %d",
			cold.Timing.CacheHits, cold.Timing.CacheMisses, len(detHandlers))
	}
	instrSet() // ensure exploration is already memoized before measuring
	before := solver.QueriesTotal()
	warm, err := Run(Options{Handlers: detHandlers, Corpus: crp})
	if err != nil {
		t.Fatal(err)
	}
	if delta := solver.QueriesTotal() - before; delta != 0 {
		t.Errorf("warm run issued %d solver queries, want 0", delta)
	}
	if warm.Timing.CacheHits != len(detHandlers) || warm.Timing.CacheMisses != 0 {
		t.Errorf("warm run: %d hits / %d misses, want %d / 0",
			warm.Timing.CacheHits, warm.Timing.CacheMisses, len(detHandlers))
	}
	for _, v := range warm.Handlers {
		if !v.Cached {
			t.Errorf("%s: not served from the verdict cache on the warm run", v.Handler)
		}
	}
	if warm.Render() != cold.Render() || !sameEncoding(t, warm, cold) {
		t.Errorf("warm report differs from cold report:\n--- cold:\n%s\n--- warm:\n%s",
			cold.Render(), warm.Render())
	}
}

func sameEncoding(t *testing.T, a, b *Report) bool {
	t.Helper()
	da, err := a.Encode()
	if err != nil {
		t.Fatal(err)
	}
	db, err := b.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return string(da) == string(db)
}

// TestQueryBudgetUnknown: exhausting the per-handler solver-query budget
// must degrade to UNKNOWN at the solver-budget stage, never to a wrong
// EQUIV.
func TestQueryBudgetUnknown(t *testing.T) {
	rep, err := Run(Options{Handlers: []string{"div_rm8"}, Budget: 2})
	if err != nil {
		t.Fatal(err)
	}
	v := rep.Handlers[0]
	if v.Verdict != VerdictUnknown || !strings.HasPrefix(v.Stage, "solver-budget:") {
		t.Fatalf("div_rm8 with budget 2: verdict %s stage %q, want UNKNOWN solver-budget",
			v.Verdict, v.Stage)
	}
}

// TestUnknownHandlerKey: a bad handler key is a request error, not a
// verdict.
func TestUnknownHandlerKey(t *testing.T) {
	if _, err := Run(Options{Handlers: []string{"no_such_handler"}}); err == nil {
		t.Fatal("Run accepted an unknown handler key")
	}
}

// TestGateEvaluation covers the gate predicate: UNKNOWN always violates,
// DIVERGES violates only outside the known set.
func TestGateEvaluation(t *testing.T) {
	rep := &Report{Handlers: []*HandlerVerdict{
		{Handler: "a", Verdict: VerdictEquiv},
		{Handler: "b", Verdict: VerdictDiverges, CE: &Counterexample{Output: "eax"}},
		{Handler: "c", Verdict: VerdictUnknown, Stage: "celer-lift: handler c"},
	}}
	if got := rep.Gate(&KnownDiverges{Handlers: []string{"b"}}); len(got) != 1 ||
		!strings.Contains(got[0], "UNKNOWN") {
		t.Fatalf("gate with b known = %v, want only the UNKNOWN violation", got)
	}
	if got := rep.Gate(&KnownDiverges{}); len(got) != 2 {
		t.Fatalf("gate with empty known = %v, want 2 violations", got)
	}
}

// TestEquivAgreement cross-checks the two symbolic checkers on shared
// handlers: where equivcheck proves fidelis ≡ celer, the PR-2 config
// checker must also prove fidelis self-equivalent on the same reg-form
// encoding and output set (a disagreement would mean the two symbolic
// pipelines model different state spaces).
func TestEquivAgreement(t *testing.T) {
	for _, key := range []string{"add_rm8_r8", "xor_rmv_rv", "adc_rmv_rv"} {
		var verdict string
		for _, v := range gateReport().Handlers {
			if v.Handler == key {
				verdict = v.Verdict
			}
		}
		if verdict != VerdictEquiv {
			t.Fatalf("%s: gate verdict %s, want EQUIV", key, verdict)
		}
		us, err := resolveHandlers([]string{key})
		if err != nil {
			t.Fatal(err)
		}
		enc, inst, err := regFormEncoding(us[0])
		if err != nil {
			t.Fatal(err)
		}
		rep, err := equiv.CheckInstruction(enc[:inst.Len], sem.BochsConfig, sem.BochsConfig,
			outputsFor(us[0].Spec.Name), DefaultPathCap)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Complete || !rep.Equivalent() {
			t.Errorf("%s: equiv.CheckInstruction disagrees with equivcheck EQUIV:\n%s",
				key, rep)
		}
	}
}

// concreteOutcome runs one concrete pre-state through both emulators and
// returns the filtered state difference (empty = they agree).
func concreteOutcome(t *testing.T, u *core.UniqueInstr, enc []byte, instLen int,
	symSt *symex.SymState, asn map[string]uint64) []diff.FieldDiff {
	t.Helper()
	tc := &core.TestCase{
		ID:         u.Key() + "/oracle",
		InstrBytes: append([]byte(nil), enc[:instLen]...),
		Handler:    u.Spec.Name,
		Mnemonic:   u.Spec.Mn,
		Assignment: core.DiffsOf(asn, symSt.Baseline, symSt.Vars),
		Baseline:   symSt.Baseline,
		Widths:     symSt.Vars,
		VarLoc:     symSt.VarLoc,
		VarMem:     symSt.VarMem,
	}
	prog, err := testgen.Build(tc)
	if err != nil {
		t.Fatalf("%s: building oracle test: %v", u.Key(), err)
	}
	image := machine.BaselineImage()
	boot := testgen.BaselineInit()
	fr := harness.RunBootBudget(harness.FidelisFactory(), image, boot, prog.Code, harness.Budget{})
	cr := harness.RunBootBudget(harness.CelerFactory(), image, boot, prog.Code, harness.Budget{})
	if fr.Snapshot == nil || cr.Snapshot == nil {
		t.Fatalf("%s: oracle run produced no snapshot", u.Key())
	}
	return diff.Compare(fr.Snapshot, cr.Snapshot, diff.UndefFilterFor(u.Spec.Name))
}

// makeSymState rebuilds the checker's symbolic pre-state for a handler, so
// tests can draw concrete assignments over the same variables.
func makeSymState() *symex.SymState {
	symSt := symex.NewSymState(machine.NewBaseline(machine.BaselineImage()))
	for r := 0; r < 8; r++ {
		symSt.MarkLocSymbolic(x86.GPR(x86.Reg(r)), ^uint64(0))
	}
	for _, b := range symFlagBits {
		symSt.MarkLocSymbolic(x86.Flag(b), 1)
	}
	return symSt
}

// FuzzVsOracle is the verdict/oracle agreement property: when the prover
// says EQUIV, no sampled concrete pre-state may distinguish the emulators —
// a sampled divergence on an EQUIV handler is a prover (or lifter) bug.
func FuzzVsOracle(f *testing.F) {
	for i := range DefaultGateHandlers {
		f.Add(uint16(i), uint64(i)*0x9e3779b97f4a7c15)
	}
	f.Fuzz(func(t *testing.T, hsel uint16, seed uint64) {
		key := DefaultGateHandlers[int(hsel)%len(DefaultGateHandlers)]
		var verdict *HandlerVerdict
		for _, v := range gateReport().Handlers {
			if v.Handler == key {
				verdict = v
			}
		}
		if verdict == nil || verdict.Verdict != VerdictEquiv {
			return // DIVERGES/UNKNOWN handlers carry no equivalence claim
		}
		us, err := resolveHandlers([]string{key})
		if err != nil {
			t.Fatal(err)
		}
		enc, inst, err := regFormEncoding(us[0])
		if err != nil {
			t.Fatal(err)
		}
		symSt := makeSymState()
		rng := rand.New(rand.NewSource(int64(seed)))
		asn := make(map[string]uint64, len(symSt.Vars))
		for name, w := range symSt.Vars {
			asn[name] = rng.Uint64() & expr.Mask(w)
		}
		if fields := concreteOutcome(t, us[0], enc, inst.Len, symSt, asn); len(fields) != 0 {
			t.Fatalf("prover bug: %s is EQUIV but concrete state %v diverges: %v",
				key, asn, fields)
		}
	})
}

// TestLifterSoundness cross-checks the celer lifter against concrete celer
// execution: for random concrete pre-states, evaluate the lifted paths'
// conditions to find the taken path, then require every lifted GPR/flag
// output to evaluate to exactly the value the concrete emulator computes.
func TestLifterSoundness(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, key := range []string{
		// ALU in each encoding form, plus inc/dec/not.
		"add_rm8_r8", "adc_rmv_rv", "sbb_rmv_rv", "neg_rmv", "or_rv_rmv",
		"and_al_imm8", "xor_eax_immv", "sub_rmv_imm8s", "cmp_rm8_imm8",
		"test_rmv_immv", "add_rmv_immv", "inc_r", "dec_rm8", "not_rm8",
		// Multiply and divide, signed and unsigned, both widths.
		"mul_rmv", "mul_rm8", "imul_rm8", "imul1_rmv", "imul2_rv_rmv",
		"imul3_rv_rmv_imm8s", "div_rm8", "div_rmv", "idiv_rm8",
		// Every shift/rotate op across the 1/cl/imm8 count forms.
		"shl_rmv_imm8", "shl_rm8_cl", "shr_rmv_cl", "shr_rm8_1", "sar_rm8_1",
		"sar_rmv_cl", "rol_rmv_cl", "rol_rm8_1", "ror_rm8_imm8", "rcl_rmv_1",
		"rcr_rmv_cl", "rcr_rm8_imm8",
		// Bit tests, data movement, exchanges.
		"bt_rmv_rv", "bt_rmv_imm8", "bts_rmv_rv", "btr_rmv_imm8",
		"btc_rmv_imm8", "mov_rm8_r8", "mov_rv_rmv", "mov_r8_rm8",
		"mov_rmv_immv", "mov_rm8_imm8", "mov_r8_imm8", "mov_r_immv",
		"movzx_rv_rm8", "movzx_rv_rm16", "movsx_rv_rm8", "movsx_rv_rm16",
		"xchg_eax_r", "xchg_rmv_rv", "xadd_rmv_rv", "cmpxchg_rm8_r8",
		"cmpxchg_rmv_rv", "bswap",
		// Flag housekeeping, conversions, BCD, no-ops, faults.
		"cdq", "cwde", "lahf", "sahf", "clc", "stc", "cmc", "cld", "std",
		"aam", "aad", "nop", "ud2",
		// Condition-code decoding: setcc and cmovcc across the cc table.
		"sete", "setne", "seto", "setb", "setbe", "seta", "sets", "setp",
		"setl", "setge", "setg", "cmove", "cmovb", "cmovle", "cmovs",
		"cmovp", "cmovo", "cmovg", "cmova",
	} {
		us, err := resolveHandlers([]string{key})
		if err != nil {
			t.Fatal(err)
		}
		u := us[0]
		enc, inst, err := regFormEncoding(u)
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		cPaths, err := liftCeler(inst, machine.NewBaseline(machine.BaselineImage()))
		if err != nil {
			t.Fatalf("%s: lift: %v", key, err)
		}
		symSt := makeSymState()
		for trial := 0; trial < 16; trial++ {
			asn := make(map[string]uint64, len(symSt.Vars))
			for name, w := range symSt.Vars {
				asn[name] = rng.Uint64() & expr.Mask(w)
			}
			// Find the lifted path this concrete state takes.
			var taken *celerPath
			for _, cp := range cPaths {
				sat := true
				for _, c := range cp.cond {
					if expr.Eval(c, asn) == 0 {
						sat = false
						break
					}
				}
				if sat {
					taken = cp
					break
				}
			}
			if taken == nil {
				t.Fatalf("%s: no lifted path is satisfied by %v", key, asn)
			}
			cr := runCeler(t, u, enc, inst.Len, symSt, asn)
			checkLiftedOutputs(t, key, taken, asn, cr)
		}
	}
}

// runCeler executes one concrete pre-state on the celer harness alone.
func runCeler(t *testing.T, u *core.UniqueInstr, enc []byte, instLen int,
	symSt *symex.SymState, asn map[string]uint64) *machine.Snapshot {
	t.Helper()
	tc := &core.TestCase{
		ID:         u.Key() + "/lifter",
		InstrBytes: append([]byte(nil), enc[:instLen]...),
		Handler:    u.Spec.Name,
		Mnemonic:   u.Spec.Mn,
		Assignment: core.DiffsOf(asn, symSt.Baseline, symSt.Vars),
		Baseline:   symSt.Baseline,
		Widths:     symSt.Vars,
		VarLoc:     symSt.VarLoc,
		VarMem:     symSt.VarMem,
	}
	prog, err := testgen.Build(tc)
	if err != nil {
		t.Fatalf("%s: building lifter test: %v", u.Key(), err)
	}
	r := harness.RunBootBudget(harness.CelerFactory(), machine.BaselineImage(),
		testgen.BaselineInit(), prog.Code, harness.Budget{})
	if r.Snapshot == nil {
		t.Fatalf("%s: celer run produced no snapshot", u.Key())
	}
	return r.Snapshot
}

// checkLiftedOutputs evaluates the taken lifted path's final state under the
// assignment and compares GPRs and symbolic flags against the concrete
// celer snapshot. Fault paths only check that the concrete run faulted too.
func checkLiftedOutputs(t *testing.T, key string,
	taken *celerPath, asn map[string]uint64, snap *machine.Snapshot) {
	t.Helper()
	if taken.outcome.Kind != ir.OutEnd {
		if snap.Exception == nil {
			t.Errorf("%s: lifted path faults (%v) but concrete celer did not under %v",
				key, taken.outcome, asn)
		}
		return
	}
	if snap.Exception != nil {
		t.Errorf("%s: lifted path ends normally but concrete celer raised #%d under %v",
			key, snap.Exception.Vector, asn)
		return
	}
	for r := 0; r < 8; r++ {
		want := uint64(snap.CPU.GPR[r])
		got := expr.Eval(taken.st.gpr[r], asn)
		if got != want {
			t.Errorf("%s: lifted %s = %#x, concrete celer = %#x under %v",
				key, x86.Reg(r), got, want, asn)
		}
	}
	for _, bitIdx := range symFlagBits {
		want := uint64(snap.CPU.EFLAGS >> bitIdx & 1)
		got := expr.Eval(taken.st.flags[bitIdx], asn)
		if got != want {
			t.Errorf("%s: lifted flag %s = %d, concrete celer = %d under %v",
				key, x86.Flag(bitIdx), got, want, asn)
		}
	}
}
