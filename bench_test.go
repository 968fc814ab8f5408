// Package bench regenerates every quantitative artifact of the paper's
// evaluation (Section 6) as Go benchmarks. Each benchmark corresponds to an
// experiment row in EXPERIMENTS.md (E1–E9, E11); custom metrics carry the
// counts the paper reports, and ns/op carries the cost side. Run with:
//
//	go test -bench=. -benchmem .
package bench

import (
	"testing"
	"time"

	"pokeemu/internal/campaign"
	"pokeemu/internal/core"
	"pokeemu/internal/diff"
	"pokeemu/internal/expr"
	"pokeemu/internal/harness"
	"pokeemu/internal/randtest"
	"pokeemu/internal/solver"
	"pokeemu/internal/symex"
	"pokeemu/internal/testgen"
	"pokeemu/internal/x86"
	"pokeemu/internal/x86/sem"
)

// mixHandlers is the representative instruction mix used by the scoped
// campaign benchmarks (covering every finding class plus ordinary
// instructions).
var mixHandlers = []string{
	"leave", "cmpxchg_rmv_rv", "iret", "rdmsr", "lfs",
	"mov_sreg_rm16", "add_rm8_imm8_alias", "push_r", "add_rmv_rv",
	"shl_rmv_imm8", "mov_rv_rmv", "mul_rmv", "enter", "pop_r",
}

// BenchmarkE1InstructionSetExploration regenerates the Section 6.1
// instruction discovery numbers: decoder paths explored, candidate byte
// sequences, unique instructions (paper: 68,977 candidates → 880 unique).
func BenchmarkE1InstructionSetExploration(b *testing.B) {
	var res *core.InstrSetResult
	for i := 0; i < b.N; i++ {
		res = core.ExploreInstructionSet()
	}
	b.ReportMetric(float64(res.ExploredPaths), "decoder-paths")
	b.ReportMetric(float64(res.Candidates), "candidates")
	b.ReportMetric(float64(len(res.Unique)), "unique-instrs")
}

// BenchmarkE2StateSpaceExploration regenerates the path-exploration
// numbers: total explored paths and the fraction of instructions explored
// exhaustively under the path cap (paper: 610,516 paths, ≥95% exhaustive at
// cap 8192).
func BenchmarkE2StateSpaceExploration(b *testing.B) {
	opts := symex.DefaultOptions()
	opts.MaxPaths = 256
	var paths, exhausted, instrs int
	var queries int64
	for i := 0; i < b.N; i++ {
		ex, err := core.NewExplorer(opts)
		if err != nil {
			b.Fatal(err)
		}
		paths, exhausted, instrs, queries = 0, 0, 0, 0
		for _, u := range instrMix(b) {
			res, err := ex.ExploreState(u)
			if err != nil {
				b.Fatal(err)
			}
			paths += len(res.Tests)
			instrs++
			if res.Exhausted {
				exhausted++
			}
			queries += res.Stats.SolverQueries
		}
	}
	b.ReportMetric(float64(paths), "paths")
	b.ReportMetric(100*float64(exhausted)/float64(instrs), "%exhaustive")
	b.ReportMetric(float64(queries)/float64(paths), "queries/path")
}

// BenchmarkE3DifferenceCounts regenerates the Section 6.2 headline: tests
// distinguishing the Lo-Fi emulator vs tests distinguishing the Hi-Fi
// emulator from hardware (paper: 60,770 vs 15,219 of 610,516 — Lo-Fi ≈ 4×
// Hi-Fi).
func BenchmarkE3DifferenceCounts(b *testing.B) {
	var res *campaign.Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = campaign.Run(campaign.Config{
			MaxPathsPerInstr: 128, Handlers: mixHandlers, Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.TotalTests), "tests")
	b.ReportMetric(float64(res.LoFiDiffTests), "lofi-diff-tests")
	b.ReportMetric(float64(res.HiFiDiffTests), "hifi-diff-tests")
	b.ReportMetric(float64(res.LoFiDiffTests)/float64(maxi(1, res.HiFiDiffTests)), "lofi/hifi")
}

// BenchmarkE4RootCauses regenerates the root-cause taxonomy: the number of
// distinct cause classes the clustering isolates (the paper reports
// atomicity, segmentation, rdmsr, pop/fetch order, accessed-flag, encoding,
// and undefined-flag classes).
func BenchmarkE4RootCauses(b *testing.B) {
	var res *campaign.Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = campaign.Run(campaign.Config{
			MaxPathsPerInstr: 128, Handlers: mixHandlers, Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	known := 0
	for cause := range res.RootCauses {
		if cause != "" && !isOther(cause) {
			known++
		}
	}
	b.ReportMetric(float64(len(res.RootCauses)), "cause-classes")
	b.ReportMetric(float64(known), "classified")
	b.ReportMetric(float64(len(res.Differences)), "differences")
}

// BenchmarkE5RandomBaseline regenerates the random-testing comparison: with
// an equal-order test budget, random testing misses the ordering and
// atomicity findings that lifting derives directly from the checks.
func BenchmarkE5RandomBaseline(b *testing.B) {
	var rnd *randtest.Result
	for i := 0; i < b.N; i++ {
		rnd = randtest.Run(randtest.Config{Tests: 400, Seed: 42, FuzzState: true})
	}
	ordering := 0
	for _, c := range []string{
		"iret: stack pop order",
		"leave: non-atomic ESP update",
		"cmpxchg: accumulator/flags updated before write check",
	} {
		if rnd.FindsCause(c) {
			ordering++
		}
	}
	b.ReportMetric(float64(rnd.DiffTests), "diff-tests")
	b.ReportMetric(float64(ordering), "ordering-bugs-found")
}

// E6: per-stage cost profile. The paper's CPU-hour table (generation 545.4h;
// execution 391.9h Bochs / 198.7h QEMU / 48.5h KVM; comparison 175.9h)
// becomes per-stage ns/op here; the shape to check is that generation
// dominates per test and that the Hi-Fi interpreter is the most expensive
// executor.

func BenchmarkE6aGeneration(b *testing.B) {
	ex, err := core.NewExplorer(symex.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	u := instrMix(b)[0]
	res, err := ex.ExploreState(u)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	n := 0
	for i := 0; i < b.N; i++ {
		tc := res.Tests[i%len(res.Tests)]
		if _, err := testgen.Build(tc); err == nil {
			n++
		}
	}
	b.ReportMetric(float64(n)/float64(b.N), "build-rate")
}

func execBench(b *testing.B, factory harness.Factory) {
	ex, err := core.NewExplorer(symex.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	res, err := ex.ExploreState(instrMix(b)[0])
	if err != nil {
		b.Fatal(err)
	}
	var progs [][]byte
	for _, tc := range res.Tests {
		if p, err := testgen.Build(tc); err == nil {
			progs = append(progs, p.Code)
		}
	}
	boot := testgen.BaselineInit()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		harness.RunBootBudget(factory, ex.Image(), boot, progs[i%len(progs)], harness.Budget{})
	}
}

func BenchmarkE6bExecHiFi(b *testing.B) { execBench(b, harness.FidelisFactory()) }
func BenchmarkE6cExecLoFi(b *testing.B) { execBench(b, harness.CelerFactory()) }
func BenchmarkE6dExecHW(b *testing.B)   { execBench(b, harness.HardwareFactory()) }

func BenchmarkE6eCompare(b *testing.B) {
	ex, err := core.NewExplorer(symex.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	res, err := ex.ExploreState(instrMix(b)[0])
	if err != nil {
		b.Fatal(err)
	}
	tc := res.Tests[0]
	p, err := testgen.Build(tc)
	if err != nil {
		b.Fatal(err)
	}
	boot := testgen.BaselineInit()
	a := harness.RunBootBudget(harness.FidelisFactory(), ex.Image(), boot, p.Code, harness.Budget{})
	c := harness.RunBootBudget(harness.CelerFactory(), ex.Image(), boot, p.Code, harness.Budget{})
	filter := diff.UndefFilterFor(tc.Handler)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		diff.Compare(a.Snapshot, c.Snapshot, filter)
	}
}

// BenchmarkE7Minimization measures the Section 3.4 ablation: Hamming
// distance of test states to the baseline with and without greedy
// minimization, and the initializer-failure rate (the paper reports zero
// failures on minimized states).
func BenchmarkE7Minimization(b *testing.B) {
	run := func(skip bool) (avgHamming float64, initOK, total int) {
		opts := symex.DefaultOptions()
		opts.MaxPaths = 128
		opts.SkipMinimize = skip
		ex, err := core.NewExplorer(opts)
		if err != nil {
			b.Fatal(err)
		}
		res, err := ex.ExploreState(instrMix(b)[0])
		if err != nil {
			b.Fatal(err)
		}
		hamming := 0
		for _, tc := range res.Tests {
			hamming += symex.HammingToBaseline(tc.Assignment, tc.Baseline, tc.Widths)
			p, err := testgen.Build(tc)
			if err != nil {
				continue
			}
			total++
			if testgen.Verify(p, ex.Image()) {
				initOK++
			}
		}
		return float64(hamming) / float64(len(res.Tests)), initOK, total
	}
	var minH, rawH float64
	var okMin, totMin int
	for i := 0; i < b.N; i++ {
		minH, okMin, totMin = run(false)
		rawH, _, _ = run(true)
	}
	b.ReportMetric(minH, "bits-minimized")
	b.ReportMetric(rawH, "bits-raw")
	b.ReportMetric(100*float64(okMin)/float64(maxi(1, totMin)), "%init-ok")
}

// BenchmarkE8Summarization measures the Section 3.3.2 summary: path count
// of the descriptor parse (paper: 23) and construction cost. Without the
// summary, six symbolic segments would multiply the per-instruction search
// space by paths^6.
func BenchmarkE8Summarization(b *testing.B) {
	var paths int
	for i := 0; i < b.N; i++ {
		ex, err := core.NewExplorer(symex.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		paths = ex.SummaryPaths
	}
	b.ReportMetric(float64(paths), "parse-paths")
	// The avoided blowup factor (paths^5 over the five symbolic segments).
	blow := 1.0
	for i := 0; i < 5; i++ {
		blow *= float64(paths)
	}
	b.ReportMetric(blow, "avoided-blowup")
}

// --- E9: persistent corpus (cold vs warm campaign) ---

// corpusBenchConfig is the campaign workload the corpus benchmarks re-run.
func corpusBenchConfig(dir string) campaign.Config {
	return campaign.Config{
		MaxPathsPerInstr: 64,
		Handlers:         mixHandlers,
		Seed:             1,
		CorpusDir:        dir,
		Resume:           true,
	}
}

// BenchmarkE9aCampaignCold measures the campaign with an empty corpus every
// iteration: full symbolic exploration, generation, and execution.
func BenchmarkE9aCampaignCold(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := campaign.Run(corpusBenchConfig(b.TempDir()))
		if err != nil {
			b.Fatal(err)
		}
		if res.Cache.InstrHits != 0 || res.Cache.InstrMisses == 0 {
			b.Fatalf("cold run hit the cache: %+v", res.Cache)
		}
	}
}

// BenchmarkE9bCampaignWarm measures the same campaign against a primed
// corpus: exploration, generation, and (via resume) execution all resolve
// from the content-addressed store.
func BenchmarkE9bCampaignWarm(b *testing.B) {
	dir := b.TempDir()
	if _, err := campaign.Run(corpusBenchConfig(dir)); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var res *campaign.Result
	for i := 0; i < b.N; i++ {
		var err error
		if res, err = campaign.Run(corpusBenchConfig(dir)); err != nil {
			b.Fatal(err)
		}
	}
	if res.Cache.InstrMisses != 0 || !res.Cache.SummaryHit {
		b.Fatalf("warm run missed the cache: %+v", res.Cache)
	}
	b.ReportMetric(float64(res.Cache.InstrHits), "cached-instrs")
	b.ReportMetric(float64(res.Cache.TestsCached), "cached-tests")
	b.ReportMetric(float64(res.Cache.ExecHits), "cached-execs")
}

// BenchmarkE9CorpusSpeedup reports the cold/warm ratio directly — the
// tentpole's acceptance number (a warm corpus must be ≥5× faster).
func BenchmarkE9CorpusSpeedup(b *testing.B) {
	var cold, warm time.Duration
	for i := 0; i < b.N; i++ {
		dir := b.TempDir()
		t0 := time.Now()
		if _, err := campaign.Run(corpusBenchConfig(dir)); err != nil {
			b.Fatal(err)
		}
		cold += time.Since(t0)
		t0 = time.Now()
		res, err := campaign.Run(corpusBenchConfig(dir))
		if err != nil {
			b.Fatal(err)
		}
		warm += time.Since(t0)
		if res.Cache.InstrHits == 0 {
			b.Fatal("warm run did not hit the corpus")
		}
	}
	b.ReportMetric(cold.Seconds()*1000/float64(b.N), "cold-ms")
	b.ReportMetric(warm.Seconds()*1000/float64(b.N), "warm-ms")
	b.ReportMetric(float64(cold)/float64(maxi(1, int(warm))), "speedup")
}

// --- E11: solver hot path — interning, memoization, parallel exploration ---

// e11Config is the cold-exploration workload: the full benchmark mix, no
// corpus, so every iteration pays the complete symbolic-exploration cost.
func e11Config(workers int) campaign.Config {
	return campaign.Config{
		MaxPathsPerInstr: 128,
		Handlers:         mixHandlers,
		Seed:             1,
		Workers:          workers,
		ExploreWorkers:   workers,
	}
}

// BenchmarkE11ColdExplore is the tentpole's acceptance number: a cold
// campaign (exploration-dominated — there is no corpus to resume from) at
// Workers=4 against Workers=1, with the byte-identical-report contract
// asserted every iteration. The reported "speedup" is only meaningful on a
// multi-core host; on a single-CPU machine (GOMAXPROCS=1) it reads ~1.0 —
// the parallel machinery costs nothing — while the determinism check still
// runs. The hot-path win that survives any core count is the seed-vs-now
// sequential comparison recorded in EXPERIMENTS.md E11 (interning, query
// memoization, deficit-shared subtree budgets). The per-path determinism
// behind the report comparison is TestParallelExploreDeterministic (symex)
// and TestWorkerDeterminism (campaign).
func BenchmarkE11ColdExplore(b *testing.B) {
	var seq, par time.Duration
	var res *campaign.Result
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		r1, err := campaign.Run(e11Config(1))
		if err != nil {
			b.Fatal(err)
		}
		seq += time.Since(t0)
		t0 = time.Now()
		r4, err := campaign.Run(e11Config(4))
		if err != nil {
			b.Fatal(err)
		}
		par += time.Since(t0)
		if r1.Summary() != r4.Summary() {
			b.Fatal("Workers=1 and Workers=4 reports differ")
		}
		res = r4
	}
	b.ReportMetric(seq.Seconds()*1000/float64(b.N), "w1-ms")
	b.ReportMetric(par.Seconds()*1000/float64(b.N), "w4-ms")
	b.ReportMetric(float64(seq)/float64(maxi(1, int(par))), "speedup")
	b.ReportMetric(float64(res.Solver.Queries), "queries")
	b.ReportMetric(100*float64(res.Solver.MemoHits)/
		float64(maxi(1, int(res.Solver.MemoHits+res.Solver.MemoMisses))), "%memo-hit")
	b.ReportMetric(100*float64(res.Solver.InternHits)/
		float64(maxi(1, int(res.Solver.InternHits+res.Solver.InternMisses))), "%intern-hit")
}

// BenchmarkAblation reproduces the E16 and E18 solver ablations: the cold
// sequential E11 campaign with one solver optimization switched off per
// sub-benchmark. The switches live only in campaign.Config.Solver, not in
// either CLI or the daemon. Run with:
//
//	go test -run xxx -bench BenchmarkAblation -benchtime 1x .
func BenchmarkAblation(b *testing.B) {
	for _, c := range []struct {
		name string
		set  func(*campaign.Config)
	}{
		{"default", func(*campaign.Config) {}},
		{"nobatch", func(cfg *campaign.Config) { cfg.Solver.NoBatch = true }},
		{"nosub", func(cfg *campaign.Config) { cfg.Solver.NoSubsume = true }},
		{"noreduce", func(cfg *campaign.Config) { cfg.Solver.NoReduce = true }},
	} {
		b.Run(c.name, func(b *testing.B) {
			cfg := e11Config(1)
			c.set(&cfg)
			var res *campaign.Result
			t0 := time.Now()
			for i := 0; i < b.N; i++ {
				var err error
				if res, err = campaign.Run(cfg); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(time.Since(t0).Seconds()*1000/float64(b.N), "ms")
			b.ReportMetric(float64(res.TotalPaths), "paths")
			b.ReportMetric(float64(res.Solver.Queries), "queries")
			b.ReportMetric(float64(res.Solver.SubsumeHits), "subsume-hits")
		})
	}
}

// --- Substrate microbenchmarks (cost model underneath the experiments) ---

func BenchmarkSolverBitblastAndSolve(b *testing.B) {
	x := expr.Var(32, "x")
	y := expr.Var(32, "y")
	c1 := expr.Eq(expr.Add(x, y), expr.Const(32, 12345))
	c2 := expr.Ult(x, expr.Const(32, 1000))
	for i := 0; i < b.N; i++ {
		bv := solver.NewBV()
		if bv.Check([]*expr.Expr{c1, c2}) != solver.Sat {
			b.Fatal("unsat")
		}
	}
}

func BenchmarkSolverIncremental(b *testing.B) {
	bv := solver.NewBV()
	x := expr.Var(32, "x")
	base := expr.Ult(x, expr.Const(32, 1<<30))
	baseLit := bv.LitFor(base)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		probe := expr.Eq(expr.And(x, expr.Const(32, 0xff)), expr.Const(32, uint64(i%256)))
		if bv.CheckLits([]solver.Lit{baseLit, bv.LitFor(probe)}) != solver.Sat {
			b.Fatal("unsat")
		}
	}
}

func BenchmarkDecode(b *testing.B) {
	code := []byte{0x66, 0x81, 0x84, 0x8d, 1, 2, 3, 4, 5, 6, 7, 8}
	for i := 0; i < b.N; i++ {
		if _, err := x86.Decode(code); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSemCompile(b *testing.B) {
	inst, err := x86.Decode([]byte{0x01, 0x18}) // add %ebx, (%eax)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		sem.Compile(inst, sem.BochsConfig)
	}
}

// instrMix resolves the benchmark handler mix to unique instructions.
func instrMix(b *testing.B) []*core.UniqueInstr {
	b.Helper()
	all := core.ExploreInstructionSet().Unique
	want := map[string]bool{}
	for _, h := range mixHandlers {
		want[h] = true
	}
	var out []*core.UniqueInstr
	for _, u := range all {
		if want[u.Key()] {
			out = append(out, u)
		}
	}
	if len(out) == 0 {
		b.Fatal("no instructions in mix")
	}
	return out
}

func isOther(cause string) bool {
	return len(cause) >= 5 && cause[:5] == "other"
}

func maxi(a, b int) int {
	if a > b {
		return a
	}
	return b
}
