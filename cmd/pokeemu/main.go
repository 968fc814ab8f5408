// Command pokeemu drives the path-exploration-lifting pipeline from the
// command line: decoder exploration, per-instruction state exploration,
// test-program generation, cross-validation campaigns, and the
// random-testing baseline.
//
// Usage:
//
//	pokeemu explore
//	pokeemu paths -i push_r [-cap 8192]
//	pokeemu gen -i push_r [-path 0]
//	pokeemu campaign [-instrs N] [-cap N] [-handlers a,b,c] [-workers N]
//	                 [-explore-workers N] [-corpus DIR] [-resume] [-no-cache]
//	                 [-timing] [-progress] [-test-steps N] [-test-timeout D]
//	                 [-stage-timeout D] [-faults SPEC] [-pprof PREFIX] [-vote]
//	pokeemu triage [campaign flags] [-baseline FILE] [-minimize] [-budget N]
//	               [-update-baseline] [-json FILE] [-gate]
//	pokeemu triage -diff OLD.json NEW.json [-gate]
//	pokeemu random [-tests N] [-fuzz]
//	pokeemu sequence -seq f9,11d8 [-cap N]
//	pokeemu trace -prog b82a000000f4 [-on celer]
//	pokeemu equivcheck [-handlers a,b,c] [-cap N] [-budget N] [-workers N]
//	                   [-corpus DIR] [-no-cache] [-json FILE] [-timing]
//	                   [-gate] [-known FILE]
//
// Equivcheck: symbolic disequivalence checking between the Hi-Fi and Lo-Fi
// implementations. Each handler's fidelis IR program and celer translation
// are executed symbolically over one shared symbolic pre-state and the
// solver decides, per output, whether any input distinguishes them: EQUIV
// is a proof (within the modeled state space), DIVERGES carries a decoded,
// concretely replayed counterexample, UNKNOWN names the exhausted stage.
// -gate exits nonzero on any UNKNOWN or any DIVERGES outside the -known
// file; -corpus caches verdicts so warm runs issue zero solver queries.
//
// Triage: runs a campaign, partitions its divergences against the -baseline
// file (known vs. new), clusters them, and with -minimize ddmin-shrinks each
// divergent case while preserving its divergence signature. -update-baseline
// records this run's clusters back into the baseline; -gate exits nonzero
// when any new divergence appears — the CI regression gate. The -diff form
// compares two saved report JSON files and prints only the delta.
//
// Campaign corpus flags: -corpus DIR roots the persistent test corpus
// (content-addressed cache of exploration and generation results) so a warm
// re-run skips symbolic exploration; -resume additionally caches and reuses
// per-test execution outcomes; -no-cache ignores cached artifacts while
// still refreshing them; -timing appends the per-stage wall-time and
// cache-hit-rate table to the report.
//
// Chaos testing: -faults SPEC (or the POKEEMU_FAULTS environment variable)
// arms the deterministic fault-injection registry for the run, e.g.
// "seed=7;corpus.write:p=0.2:err". Injected faults degrade the campaign
// (explicit degraded section in the report) instead of failing it.
package main

import (
	"context"
	"encoding/hex"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"pokeemu/internal/campaign"
	"pokeemu/internal/core"
	"pokeemu/internal/corpus"
	"pokeemu/internal/emu"
	"pokeemu/internal/equivcheck"
	"pokeemu/internal/faults"
	"pokeemu/internal/harness"
	"pokeemu/internal/machine"
	"pokeemu/internal/randtest"
	"pokeemu/internal/symex"
	"pokeemu/internal/testgen"
	"pokeemu/internal/triage"
	"pokeemu/internal/x86"
)

func main() {
	if spec := os.Getenv(faults.EnvVar); spec != "" {
		if _, err := faults.ArmSpec(spec); err != nil {
			die(fmt.Errorf("%s: %w", faults.EnvVar, err))
		}
	}
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "explore":
		cmdExplore()
	case "paths":
		cmdPaths(os.Args[2:])
	case "gen":
		cmdGen(os.Args[2:])
	case "campaign":
		cmdCampaign(os.Args[2:])
	case "triage":
		cmdTriage(os.Args[2:])
	case "random":
		cmdRandom(os.Args[2:])
	case "sequence":
		cmdSequence(os.Args[2:])
	case "trace":
		cmdTrace(os.Args[2:])
	case "equivcheck":
		cmdEquivcheck(os.Args[2:])
	default:
		usage()
	}
}

// cmdEquivcheck runs the symbolic disequivalence checker over a handler
// set and prints the deterministic verdict report.
func cmdEquivcheck(args []string) {
	fs := flag.NewFlagSet("equivcheck", flag.ExitOnError)
	handlers := fs.String("handlers", "",
		"comma-separated handler keys; \"gate\" = the seeded gate subset (\"\" = every handler)")
	cap := fs.Int("cap", equivcheck.DefaultPathCap, "fidelis path cap per handler")
	budget := fs.Int64("budget", 0, "solver query budget per handler (0 = unlimited)")
	conflicts := fs.Int64("conflicts", equivcheck.DefaultMaxConflicts,
		"per-query SAT conflict budget; exceeding it yields UNKNOWN (0 = unlimited)")
	workers := fs.Int("workers", runtime.NumCPU(),
		"parallel handler checks (never changes the report)")
	corpusDir := fs.String("corpus", "", "corpus directory for verdict caching (\"\" = no cache)")
	noCache := fs.Bool("no-cache", false, "ignore cached verdicts (still refreshes the corpus)")
	jsonOut := fs.String("json", "", "write the report JSON to FILE")
	timing := fs.Bool("timing", false, "append the wall-time and verdict-cache table")
	gate := fs.Bool("gate", false, "exit 1 on any UNKNOWN or any DIVERGES outside -known")
	known := fs.String("known", "", "known-diverges JSON file for -gate")
	fs.Parse(args)

	if *workers <= 0 {
		die(fmt.Errorf("-workers must be >= 1 (got %d)", *workers))
	}
	opts := equivcheck.Options{
		MaxPaths:     *cap,
		Budget:       *budget,
		MaxConflicts: *conflicts,
		Workers:      *workers,
		NoCache:      *noCache,
	}
	switch *handlers {
	case "":
	case "gate":
		opts.Handlers = equivcheck.DefaultGateHandlers
	default:
		opts.Handlers = strings.Split(*handlers, ",")
	}
	if *corpusDir != "" {
		crp, err := corpus.Open(*corpusDir)
		if err != nil {
			die(err)
		}
		opts.Corpus = crp
	}
	rep, err := equivcheck.Run(opts)
	if err != nil {
		die(err)
	}
	fmt.Print(rep.Render())
	if *timing {
		fmt.Println()
		fmt.Print(rep.Timing.Table())
	}
	if *jsonOut != "" {
		data, err := rep.Encode()
		if err != nil {
			die(err)
		}
		if err := os.WriteFile(*jsonOut, data, 0o644); err != nil {
			die(err)
		}
	}
	if *gate {
		kd, err := equivcheck.LoadKnownDiverges(*known)
		if err != nil {
			die(err)
		}
		if violations := rep.Gate(kd); len(violations) > 0 {
			for _, v := range violations {
				fmt.Fprintln(os.Stderr, "pokeemu: equivcheck gate:", v)
			}
			os.Exit(1)
		}
	}
}

// cmdTrace executes a hex-encoded program on one implementation, printing
// each instruction with its register effects — the debugging view used when
// analyzing a difference by hand (the paper's "examined representative
// tests" step).
func cmdTrace(args []string) {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	progHex := fs.String("prog", "b82a000000f4", "hex-encoded program bytes")
	impl := fs.String("on", "fidelis", "fidelis | celer | lento | hardware")
	steps := fs.Int("steps", 64, "max instructions")
	fs.Parse(args)

	prog, err := hex.DecodeString(*progHex)
	if err != nil {
		die(err)
	}
	if err := runTrace(os.Stdout, *impl, prog, *steps); err != nil {
		die(err)
	}
}

// runTrace is the testable core of cmdTrace: it writes the instruction
// trace to w, so the golden test can capture it byte for byte.
func runTrace(w io.Writer, impl string, prog []byte, steps int) error {
	var factory harness.Factory
	switch impl {
	case "fidelis":
		factory = harness.FidelisFactory()
	case "celer":
		factory = harness.CelerFactory()
	case "lento":
		factory = harness.LentoFactory()
	case "hardware":
		factory = harness.HardwareFactory()
	default:
		return fmt.Errorf("unknown implementation %q", impl)
	}

	image := machine.BaselineImage()
	m := machine.NewBaseline(image)
	m.Mem.WriteBytes(machine.CodeBase, prog)
	e := factory.New(m)

	prev := m.CPU
	for i := 0; i < steps; i++ {
		code, _ := m.FetchCode(x86.MaxInstLen)
		dis := "(fetch fault)"
		if inst, err := x86.Decode(code); err == nil {
			dis = x86.Disasm(inst)
		}
		eip := m.EIP
		ev := e.Step()
		fmt.Fprintf(w, "%08x  %-32s", eip, dis)
		for r := 0; r < 8; r++ {
			if m.GPR[r] != prev.GPR[r] {
				fmt.Fprintf(w, "  %s←%#x", x86.Reg(r), m.GPR[r])
			}
		}
		if m.EFLAGS != prev.EFLAGS {
			fmt.Fprintf(w, "  eflags←%#x", m.EFLAGS)
		}
		if ev.Exception != nil {
			fmt.Fprintf(w, "  %v", ev.Exception)
		}
		fmt.Fprintln(w)
		prev = m.CPU
		if ev.Kind == emu.EventHalt || ev.Kind == emu.EventShutdown {
			fmt.Fprintf(w, "terminated: %v\n", ev.Kind)
			return nil
		}
	}
	return nil
}

func usage() {
	fmt.Fprintln(os.Stderr,
		"usage: pokeemu explore | paths | gen | campaign | triage | random | sequence | trace | equivcheck")
	os.Exit(2)
}

// cmdSequence explores a multi-instruction sequence given as
// comma-separated hex encodings, e.g. -seq f9,11d8 for "stc; adc".
func cmdSequence(args []string) {
	fs := flag.NewFlagSet("sequence", flag.ExitOnError)
	seq := fs.String("seq", "f9,11d8", "comma-separated hex instruction encodings")
	cap := fs.Int("cap", 1024, "path cap")
	fs.Parse(args)

	var encodings [][]byte
	for _, part := range strings.Split(*seq, ",") {
		b, err := hex.DecodeString(part)
		if err != nil {
			die(fmt.Errorf("bad hex %q: %w", part, err))
		}
		encodings = append(encodings, b)
	}
	opts := symex.DefaultOptions()
	opts.MaxPaths = *cap
	ex, err := core.NewExplorer(opts)
	if err != nil {
		die(err)
	}
	res, err := ex.ExploreSequence(encodings)
	if err != nil {
		die(err)
	}
	fmt.Printf("%s: %d paths, exhausted=%v\n",
		res.Instr.Key(), len(res.Tests), res.Exhausted)
	for _, tc := range res.Tests {
		fmt.Printf("  path %3d: %-22v state diffs: %d\n",
			tc.PathIndex, tc.Outcome, len(tc.Diffs()))
	}
}

func die(err error) {
	fmt.Fprintln(os.Stderr, "pokeemu:", err)
	os.Exit(1)
}

func cmdExplore() {
	res := core.ExploreInstructionSet()
	fmt.Printf("decoder paths explored: %d (of a raw 2^24 three-byte space)\n",
		res.ExploredPaths)
	fmt.Printf("candidate byte sequences: %d\n", len(res.Candidates))
	fmt.Printf("unique instructions: %d\n", len(res.Unique))
	for _, u := range res.Unique {
		fmt.Printf("  %-24s % x\n", u.Key(), u.Repr)
	}
}

func findInstr(key string) (*core.UniqueInstr, error) {
	for _, u := range core.ExploreInstructionSet().Unique {
		if u.Key() == key {
			return u, nil
		}
	}
	return nil, fmt.Errorf("unknown instruction key %q (see pokeemu explore)", key)
}

func cmdPaths(args []string) {
	fs := flag.NewFlagSet("paths", flag.ExitOnError)
	key := fs.String("i", "push_r", "instruction handler key")
	cap := fs.Int("cap", 8192, "path cap")
	fs.Parse(args)

	u, err := findInstr(*key)
	if err != nil {
		die(err)
	}
	opts := symex.DefaultOptions()
	opts.MaxPaths = *cap
	ex, err := core.NewExplorer(opts)
	if err != nil {
		die(err)
	}
	res, err := ex.ExploreState(u)
	if err != nil {
		die(err)
	}
	fmt.Printf("%s: %d paths, exhausted=%v, %d solver queries, %d tree nodes\n",
		u.Key(), len(res.Tests), res.Exhausted,
		res.Stats.SolverQueries, res.Stats.TreeNodes)
	for _, tc := range res.Tests {
		fmt.Printf("  path %3d: %-22v state diffs: %d\n",
			tc.PathIndex, tc.Outcome, len(tc.Diffs()))
	}
}

func cmdGen(args []string) {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	key := fs.String("i", "push_r", "instruction handler key")
	pathIdx := fs.Int("path", -1, "path index (-1 = first buildable with state diffs)")
	fs.Parse(args)

	u, err := findInstr(*key)
	if err != nil {
		die(err)
	}
	ex, err := core.NewExplorer(symex.DefaultOptions())
	if err != nil {
		die(err)
	}
	res, err := ex.ExploreState(u)
	if err != nil {
		die(err)
	}
	for _, tc := range res.Tests {
		if *pathIdx >= 0 && tc.PathIndex != *pathIdx {
			continue
		}
		if *pathIdx < 0 && len(tc.Diffs()) == 0 {
			continue
		}
		p, err := testgen.Build(tc)
		if err != nil {
			if *pathIdx >= 0 {
				die(err)
			}
			continue
		}
		fmt.Printf("test %s (outcome %v)\n", tc.ID, tc.Outcome)
		fmt.Println("state assignment (differences from baseline):")
		diffs := tc.Diffs()
		names := make([]string, 0, len(diffs))
		for n := range diffs {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Printf("  %-18s = %#x\n", n, diffs[n])
		}
		fmt.Println("test program:")
		fmt.Print(p.String())
		return
	}
	die(fmt.Errorf("no matching path"))
}

func cmdCampaign(args []string) {
	fs := flag.NewFlagSet("campaign", flag.ExitOnError)
	cf := addCampaignFlags(fs)
	timing := fs.Bool("timing", false, "append the per-stage timing and cache-hit table")
	baselinePath := fs.String("baseline", "",
		"baseline file of known divergences; the summary then partitions differences into known and new")
	fs.DurationVar(&cf.testTimeout, "test-timeout", 0, "per-test wall-clock budget (0 = unlimited)")
	fs.DurationVar(&cf.stageTimeout, "stage-timeout", 0,
		"per-stage deadline; units still queued at the deadline are skipped and ledgered as degraded (0 = unlimited)")
	faultSpec := fs.String("faults", "",
		"fault-injection spec, e.g. \"seed=7;corpus.write:p=0.2:err\" (overrides $"+faults.EnvVar+")")
	pprofPrefix := fs.String("pprof", "",
		"write PREFIX.cpu.pprof and PREFIX.heap.pprof profiles of the campaign")
	hybridOn := fs.Bool("hybrid", false,
		"run the coverage-guided hybrid fuzzing stage after comparison")
	hybridBudget := fs.Int("hybrid-budget", 256,
		"mutated-input executions the hybrid stage spends (with -hybrid)")
	hybridSeed := fs.Int64("hybrid-seed", 0, "hybrid fuzzer RNG seed (0 = -seed)")
	hybridWorkers := fs.Int("hybrid-workers", 0,
		"hybrid mutator pool size (0 = -workers; never changes the report)")
	vote := fs.Bool("vote", false,
		"run every test on lento too and vote the three emulators into per-test verdicts with a blame column")
	fs.Parse(args)

	cfg, err := cf.config()
	if err != nil {
		die(err)
	}
	if err := validateHybridFlags(*hybridOn, *hybridBudget, *hybridWorkers); err != nil {
		die(err)
	}
	if *faultSpec != "" {
		if _, err := faults.ArmSpec(*faultSpec); err != nil {
			die(err)
		}
	}
	if *pprofPrefix != "" {
		stopProf, err := startProfiles(*pprofPrefix)
		if err != nil {
			die(err)
		}
		defer stopProf()
	}

	cfg.Vote = *vote
	if *hybridOn {
		cfg.Hybrid = campaign.HybridConfig{
			Budget:         *hybridBudget,
			Seed:           *hybridSeed,
			MutatorWorkers: *hybridWorkers,
		}
	}
	if *baselinePath != "" {
		bl, err := triage.LoadBaseline(*baselinePath)
		if err != nil {
			die(err)
		}
		if bl == nil {
			bl = triage.NewBaseline()
		}
		cfg.Baseline = bl
	}
	// Ctrl-C / SIGTERM cancels the campaign promptly; with -corpus -resume,
	// finished tests are already checkpointed, so re-running the same
	// command picks up where the interrupted run stopped.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, err := campaign.RunContext(ctx, cfg)
	if err != nil {
		die(err)
	}
	fmt.Print(res.Summary())
	if *timing {
		fmt.Println()
		fmt.Print(res.TimingTable())
	}
}

// cmdTriage runs a campaign and triages its divergences: baseline partition,
// clustering, optional ddmin minimization, optional baseline update, and the
// CI gate. With -diff it instead compares two saved report files.
func cmdTriage(args []string) {
	fs := flag.NewFlagSet("triage", flag.ExitOnError)
	cf := addCampaignFlags(fs)
	timing := fs.Bool("timing", false, "append the campaign timing and cache-hit table")
	baselinePath := fs.String("baseline", "",
		"baseline file of known divergences (\"\" or missing file = everything is new)")
	minimize := fs.Bool("minimize", false, "ddmin-shrink every divergent case, preserving its signature")
	budget := fs.Int("budget", 0, "oracle-run budget per minimized case (0 = default)")
	updateBaseline := fs.Bool("update-baseline", false,
		"merge this run's clusters into -baseline and save it")
	jsonOut := fs.String("json", "", "write the triage report JSON to FILE")
	diffMode := fs.Bool("diff", false, "diff two saved reports: pokeemu triage -diff OLD.json NEW.json")
	gate := fs.Bool("gate", false,
		"exit 1 on any new divergence (run mode) or any delta (-diff mode)")
	fs.Parse(args)

	if *diffMode {
		rest := fs.Args()
		if len(rest) != 2 {
			die(fmt.Errorf("triage -diff needs exactly two report files (got %d)", len(rest)))
		}
		oldRep, err := loadReport(rest[0])
		if err != nil {
			die(err)
		}
		newRep, err := loadReport(rest[1])
		if err != nil {
			die(err)
		}
		d := triage.DiffReports(oldRep, newRep)
		fmt.Print(d.Render())
		if *gate && !d.Empty() {
			os.Exit(1)
		}
		return
	}
	if *updateBaseline && *baselinePath == "" {
		die(fmt.Errorf("-update-baseline needs -baseline FILE"))
	}

	cfg, err := cf.config()
	if err != nil {
		die(err)
	}
	var bl *triage.Baseline
	if *baselinePath != "" {
		if bl, err = triage.LoadBaseline(*baselinePath); err != nil {
			die(err)
		}
		cfg.Baseline = bl
		if bl == nil {
			cfg.Baseline = triage.NewBaseline()
		}
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, err := campaign.RunContext(ctx, cfg)
	if err != nil {
		die(err)
	}

	opts := triage.Options{
		Minimize:     *minimize,
		Budget:       *budget,
		TestMaxSteps: cf.testSteps,
		Workers:      cf.workers,
		Baseline:     bl,
	}
	if cf.corpusDir != "" && !cf.noCache {
		// The triage cache rides in the same corpus; an unusable corpus just
		// means uncached minimization, exactly like the campaign's fallback.
		if crp, err := corpus.Open(cf.corpusDir); err == nil {
			opts.Corpus = crp
		}
	}
	rep, err := triage.Run(res.TriageCases, opts)
	if err != nil {
		die(err)
	}

	fmt.Print(res.Summary())
	fmt.Println()
	fmt.Print(rep.Render())
	if *timing {
		fmt.Println()
		fmt.Print(res.TimingTable())
	}
	if *jsonOut != "" {
		data, err := rep.Encode()
		if err != nil {
			die(err)
		}
		if err := os.WriteFile(*jsonOut, data, 0o644); err != nil {
			die(err)
		}
	}
	if *updateBaseline {
		if bl == nil {
			bl = triage.NewBaseline()
		}
		added := bl.Update(rep)
		if err := bl.Save(*baselinePath); err != nil {
			die(err)
		}
		fmt.Printf("baseline: %s updated (%d clusters added, %d total)\n",
			*baselinePath, added, bl.Len())
	}
	if *gate && rep.New > 0 {
		fmt.Fprintf(os.Stderr, "pokeemu: triage gate: %d new divergent tests (%d new clusters)\n",
			rep.New, rep.NewCluster)
		os.Exit(1)
	}
}

// loadReport reads a saved triage report JSON file.
func loadReport(path string) (*triage.Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return triage.DecodeReport(data)
}

// startProfiles begins a CPU profile at prefix.cpu.pprof and returns a stop
// function that finishes it and writes a heap profile to prefix.heap.pprof.
func startProfiles(prefix string) (func(), error) {
	cpuF, err := os.Create(prefix + ".cpu.pprof")
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(cpuF); err != nil {
		cpuF.Close()
		return nil, err
	}
	return func() {
		pprof.StopCPUProfile()
		cpuF.Close()
		heapF, err := os.Create(prefix + ".heap.pprof")
		if err != nil {
			fmt.Fprintln(os.Stderr, "pokeemu: heap profile:", err)
			return
		}
		defer heapF.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(heapF); err != nil {
			fmt.Fprintln(os.Stderr, "pokeemu: heap profile:", err)
		}
	}, nil
}

// campaignFlags is the campaign flag block the campaign and triage
// subcommands share. testTimeout and stageTimeout are registered by the
// campaign subcommand only; triage leaves them zero.
type campaignFlags struct {
	instrs, cap, workers, exploreWorkers, maxSteps, testSteps int
	seed                                                      int64
	handlers, corpusDir                                       string
	resume, noCache, progress                                 bool
	testTimeout, stageTimeout                                 time.Duration
}

// addCampaignFlags registers the shared campaign flags on fs.
func addCampaignFlags(fs *flag.FlagSet) *campaignFlags {
	f := &campaignFlags{}
	fs.IntVar(&f.instrs, "instrs", 0, "max unique instructions (0 = all)")
	fs.IntVar(&f.cap, "cap", 256, "paths per instruction")
	fs.StringVar(&f.handlers, "handlers", "", "comma-separated handler keys")
	fs.Int64Var(&f.seed, "seed", 1, "exploration seed")
	fs.IntVar(&f.workers, "workers", runtime.NumCPU(), "parallel workers")
	fs.IntVar(&f.exploreWorkers, "explore-workers", 0,
		"workers inside each instruction's symbolic exploration (0 or 1 = sequential; never changes the report)")
	fs.IntVar(&f.maxSteps, "maxsteps", 0, "per-path IR step cap (0 = default)")
	fs.StringVar(&f.corpusDir, "corpus", "", "persistent test corpus directory (\"\" = no cache)")
	fs.BoolVar(&f.resume, "resume", false, "also cache and reuse per-test execution outcomes")
	fs.BoolVar(&f.noCache, "no-cache", false, "ignore cached artifacts (still refreshes the corpus)")
	fs.IntVar(&f.testSteps, "test-steps", 0, "per-test emulator step budget (0 = default)")
	fs.BoolVar(&f.progress, "progress", false, "print per-stage progress to stderr as the campaign runs")
	return f
}

// validate rejects flag values that would hang or silently misbehave (a
// non-positive worker count, negative caps and budgets).
func (f *campaignFlags) validate() error {
	switch {
	case f.workers <= 0:
		return fmt.Errorf("-workers must be >= 1 (got %d)", f.workers)
	case f.exploreWorkers < 0:
		return fmt.Errorf("-explore-workers must be >= 0 (got %d)", f.exploreWorkers)
	case f.cap <= 0:
		return fmt.Errorf("-cap must be >= 1 (got %d)", f.cap)
	case f.instrs < 0:
		return fmt.Errorf("-instrs must be >= 0 (got %d)", f.instrs)
	case f.maxSteps < 0:
		return fmt.Errorf("-maxsteps must be >= 0 (got %d)", f.maxSteps)
	case f.testSteps < 0:
		return fmt.Errorf("-test-steps must be >= 0 (got %d)", f.testSteps)
	case f.testTimeout < 0:
		return fmt.Errorf("-test-timeout must be >= 0 (got %v)", f.testTimeout)
	case f.stageTimeout < 0:
		return fmt.Errorf("-stage-timeout must be >= 0 (got %v)", f.stageTimeout)
	}
	return nil
}

// config validates the parsed flags and builds the campaign configuration
// they describe.
func (f *campaignFlags) config() (campaign.Config, error) {
	if err := f.validate(); err != nil {
		return campaign.Config{}, err
	}
	cfg := campaign.Config{
		MaxPathsPerInstr: f.cap,
		MaxInstrs:        f.instrs,
		Seed:             f.seed,
		Workers:          f.workers,
		ExploreWorkers:   f.exploreWorkers,
		MaxSteps:         f.maxSteps,
		CorpusDir:        f.corpusDir,
		NoCache:          f.noCache,
		Resume:           f.resume,
		TestMaxSteps:     f.testSteps,
		TestTimeout:      f.testTimeout,
		StageTimeout:     f.stageTimeout,
	}
	if f.handlers != "" {
		cfg.Handlers = strings.Split(f.handlers, ",")
	}
	if f.progress {
		cfg.Progress = progressPrinter(os.Stderr)
	}
	return cfg, nil
}

func validateHybridFlags(on bool, budget, workers int) error {
	switch {
	case on && budget <= 0:
		return fmt.Errorf("-hybrid-budget must be >= 1 (got %d)", budget)
	case workers < 0:
		return fmt.Errorf("-hybrid-workers must be >= 0 (got %d)", workers)
	}
	return nil
}

// progressPrinter renders campaign progress events as throttled stderr
// lines: every stage entry, every ~5% of a stage, and the stage's end.
func progressPrinter(w io.Writer) func(campaign.Event) {
	var mu sync.Mutex
	return func(ev campaign.Event) {
		mu.Lock()
		defer mu.Unlock()
		if ev.Total == 0 {
			return
		}
		step := ev.Total / 20
		if step < 1 {
			step = 1
		}
		if ev.Done == 0 || ev.Done == ev.Total || ev.Done%step == 0 {
			fmt.Fprintf(w, "pokeemu: %-8s %*d/%d %s\n",
				ev.Stage, len(fmt.Sprint(ev.Total)), ev.Done, ev.Total, ev.Key)
		}
	}
}

func cmdRandom(args []string) {
	fs := flag.NewFlagSet("random", flag.ExitOnError)
	tests := fs.Int("tests", 1000, "number of random tests")
	fuzz := fs.Bool("fuzz", true, "randomize register state")
	seed := fs.Int64("seed", 1, "rng seed")
	fs.Parse(args)

	res := randtest.Run(randtest.Config{Tests: *tests, Seed: *seed, FuzzState: *fuzz})
	fmt.Printf("random testing: %d generated, %d valid, %d executed, %d with differences\n",
		res.Generated, res.Valid, res.Executed, res.DiffTests)
	causes := make([]string, 0, len(res.RootCauses))
	for c := range res.RootCauses {
		causes = append(causes, c)
	}
	sort.Strings(causes)
	for _, c := range causes {
		fmt.Printf("  %-55s %6d\n", c, res.RootCauses[c])
	}
}
