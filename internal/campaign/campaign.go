// Package campaign orchestrates the end-to-end PokeEMU evaluation (paper
// Section 6): instruction-set exploration, per-instruction machine
// state-space exploration, test-program generation, three-way execution
// (Hi-Fi emulator, Lo-Fi emulator, hardware oracle), difference analysis
// with undefined-behavior filtering, and root-cause clustering. It also
// records per-stage costs, reproducing the paper's cost-profile table as
// relative throughput.
//
// The pipeline is corpus-driven: with a persistent corpus configured, the
// exploration and generation stages resolve each instruction against the
// content-addressed on-disk cache (internal/corpus), so a warm re-run skips
// symbolic exploration entirely and goes straight to execution and diffing.
// All fan-out runs on bounded worker pools with panic isolation and
// deterministic index-ordered merges: the Result and the rendered report are
// byte-identical for any Workers value.
package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pokeemu/internal/core"
	"pokeemu/internal/corpus"
	"pokeemu/internal/coverage"
	"pokeemu/internal/diff"
	"pokeemu/internal/expr"
	"pokeemu/internal/fanout"
	"pokeemu/internal/faults"
	"pokeemu/internal/harness"
	"pokeemu/internal/hybrid"
	"pokeemu/internal/machine"
	"pokeemu/internal/solver"
	"pokeemu/internal/symex"
	"pokeemu/internal/testgen"
	"pokeemu/internal/triage"
	"pokeemu/internal/x86/sem"
)

// configLabel names the semantics configuration the campaign explores; it is
// part of every corpus cache key.
const configLabel = "bochs"

// Config scopes a campaign. The full instruction set at the paper's path
// cap takes minutes; benchmarks use subsets.
type Config struct {
	MaxPathsPerInstr int      // 0 = DefaultPathCap
	MaxInstrs        int      // 0 = all unique instructions
	Handlers         []string // restrict to these handler keys (nil = all)
	Seed             int64
	MaxSteps         int // per-path IR step cap
	// Workers parallelizes exploration+generation across instructions and
	// execution across tests (the paper: "generation is highly
	// parallelizable … test execution is also highly parallel"). 0 or 1 is
	// sequential. The worker count never affects the Result: merges are
	// index-ordered and deterministic.
	Workers int
	// ExploreWorkers bounds the pool inside each instruction's symbolic
	// exploration (symex.Options.Workers): independent decision subtrees are
	// explored in parallel and merged in canonical path order, so — like
	// Workers — the value changes wall-clock time only, never the Result.
	// It is deliberately excluded from corpus cache keys.
	ExploreWorkers int

	// Solver holds the exploration solver's ablation switches. The zero
	// value is production. A non-zero value changes which models the
	// solver returns, so its Label is part of the corpus cache namespace.
	// Reachable from tests and benchmarks only.
	Solver solver.Options
	// Vote enables N-way voted verdicts: every test additionally runs on
	// lento (the independent direct-decode interpreter), and the three
	// emulators — fidelis, celer, lento — are partitioned into equivalence
	// classes per test. A majority pinpoints the outlier emulator; a 3-way
	// split is surfaced as its own class. The pairwise hardware-oracle
	// numbers are unchanged, and with Vote off the Result and report are
	// byte-identical to a vote-free campaign. Voting bypasses the -resume
	// execution cache (cached outcomes hold only the classic trio).
	Vote bool

	// CorpusDir roots the persistent test corpus; "" disables it.
	CorpusDir string
	// NoCache ignores cached artifacts (they are still refreshed on disk),
	// forcing a cold run.
	NoCache bool
	// Resume additionally reuses cached execution outcomes, so an
	// interrupted campaign picks up where it stopped instead of re-running
	// finished tests.
	Resume bool

	// Baseline, when non-nil, partitions divergences into known (suppressed
	// by the baseline) and new; the counts land in Result.KnownDiffs /
	// NewDiffs and the Summary gains a baseline line. The Result's difference
	// list is unaffected — the baseline classifies, never hides.
	Baseline *triage.Baseline

	// Hybrid configures the coverage-guided hybrid fuzzing stage that runs
	// after comparison, seeded with this campaign's tests and divergence
	// verdicts. Budget 0 disables the stage entirely: the Result and report
	// are byte-identical to a hybrid-free campaign.
	Hybrid HybridConfig

	// TestMaxSteps caps emulator steps per test execution (deterministic
	// budget; 0 = harness.DefaultMaxSteps).
	TestMaxSteps int
	// TestTimeout caps wall-clock time per test execution (safety net; 0 =
	// unlimited). A nonzero value can make reports run-dependent — a test
	// that times out records a fault and is excluded from diffing.
	TestTimeout time.Duration
	// StageTimeout caps wall-clock time per fan-out stage (explore,
	// execute); 0 = unlimited. When a stage deadline expires, in-flight
	// units finish, queued units are skipped, and the campaign degrades
	// gracefully instead of failing: every skipped unit is counted in
	// Result.Degraded with an explicit reason, so the report is never
	// silently short. Like TestTimeout, a nonzero value can make reports
	// run-dependent (which units were in flight at the deadline depends on
	// scheduling).
	StageTimeout time.Duration

	// Progress, when non-nil, receives an Event as each pipeline stage
	// starts and as each unit of work within it completes. It is called
	// concurrently from worker goroutines and must be safe for concurrent
	// use; it should return quickly, or it stalls the pool. Progress never
	// affects the Result.
	Progress func(Event)
}

// HybridConfig scopes the optional coverage-guided fuzzing stage
// (internal/hybrid): a deterministic mutational fuzzer over the campaign's
// test initializers, with promising inputs handed back to symbolic
// exploration as concrete path seeds.
type HybridConfig struct {
	// Budget is the number of mutated-input executions to spend; 0 disables
	// the stage.
	Budget int
	// Seed is the fuzzer's RNG seed (0 = the campaign Seed). The stage is a
	// pure function of it.
	Seed int64
}

// Pipeline stages reported through Config.Progress.
const (
	StageExplore = "explore" // per-instruction exploration + generation
	StageExecute = "execute" // three-way test execution
	StageCompare = "compare" // difference analysis
	StageHybrid  = "hybrid"  // coverage-guided hybrid fuzzing
)

// Event is one progress notification: Done of Total units of Stage are
// finished. Key names the unit that just completed (an instruction key for
// StageExplore, a test ID for StageExecute); it is empty on the Done=0
// stage-entry event and for StageCompare.
type Event struct {
	Stage string
	Key   string
	Done  int
	Total int
}

// Validate rejects configurations that cannot run sensibly: negative
// counts, worker pools, and budgets error up front instead of hanging or
// silently misbehaving downstream.
func (c *Config) Validate() error {
	for _, f := range []struct {
		name string
		v    int
	}{
		{"MaxPathsPerInstr", c.MaxPathsPerInstr},
		{"MaxInstrs", c.MaxInstrs},
		{"Workers", c.Workers},
		{"ExploreWorkers", c.ExploreWorkers},
		{"MaxSteps", c.MaxSteps},
		{"TestMaxSteps", c.TestMaxSteps},
	} {
		if f.v < 0 {
			return fmt.Errorf("campaign: %s must be >= 0 (got %d)", f.name, f.v)
		}
	}
	if c.TestTimeout < 0 {
		return fmt.Errorf("campaign: TestTimeout must be >= 0 (got %v)", c.TestTimeout)
	}
	if c.StageTimeout < 0 {
		return fmt.Errorf("campaign: StageTimeout must be >= 0 (got %v)", c.StageTimeout)
	}
	if c.Hybrid.Budget < 0 {
		return fmt.Errorf("campaign: Hybrid.Budget must be >= 0 (got %d)", c.Hybrid.Budget)
	}
	return nil
}

// InstrReport summarizes one instruction's exploration and testing.
type InstrReport struct {
	Key       string
	Paths     int
	Exhausted bool
	Generated int
	GenFailed int
	InitFault int
	Queries   int64
	// ExploreWall is the wall-clock cost of this instruction's symbolic
	// exploration (zero when it was served from the corpus). Run-dependent:
	// rendered by TimingTable, never by Summary.
	ExploreWall time.Duration
	// Fault carries the panic message if exploration or generation crashed;
	// the instruction then contributes a fault record instead of tests.
	Fault string
}

// StageTiming records wall-clock cost per pipeline stage. Timings are the
// only run-dependent part of a Result; they are rendered by TimingTable, not
// Summary, so the deterministic report stays byte-identical across runs.
type StageTiming struct {
	Explore   time.Duration
	Generate  time.Duration
	ExecHiFi  time.Duration
	ExecLoFi  time.Duration
	ExecLento time.Duration // zero unless Config.Vote ran the lento leg
	ExecHW    time.Duration
	Compare   time.Duration
	Hybrid    time.Duration
}

// SolverStats snapshots the solver/expression hot-path counters for one
// run: deltas of the process-wide totals between campaign start and end.
// Concurrent campaigns in one process (the service) see each other's
// traffic, so treat these as throughput indicators, not exact attributions.
type SolverStats struct {
	Queries      int64 // solver CheckLits calls
	MemoHits     int64 // answered by the assumption-set memo
	MemoMisses   int64
	InternHits   int64 // expression constructions served by the intern table
	InternMisses int64
	// ReusedLevels counts assumption trail levels the batched front-end
	// carried over between sibling queries instead of re-deciding them.
	ReusedLevels int64
	// SubsumeHits counts queries answered by the model-subsumption fast
	// path (assumptions already true under the last Sat model).
	SubsumeHits int64
	// Restarts/ReduceRuns/ReduceRemoved surface the CDCL core's restart
	// and learned-clause-reduction activity.
	Restarts      int64
	ReduceRuns    int64
	ReduceRemoved int64
	// PortfolioRaces and PortfolioCloneWins are always zero: the solver
	// portfolio they counted has been removed. They remain only because
	// the benchmark module (perfbench) still names them, and go with the
	// next change to that module.
	PortfolioRaces     int64
	PortfolioCloneWins int64
}

// CacheStats counts corpus traffic per pipeline stage.
type CacheStats struct {
	Enabled    bool
	SummaryHit bool // descriptor-parse summaries served from the corpus

	InstrHits   int // instructions resolved from the corpus
	InstrMisses int // instructions explored symbolically

	TestsCached    int // test programs loaded from the corpus
	TestsGenerated int // test programs generated this run

	ExecHits   int // executions replayed from cached outcomes (-resume)
	ExecMisses int // executions actually run
	// FuzzHit reports that the whole hybrid fuzzing stage was served from a
	// cached result (same seeds, budget, seed, and versions).
	FuzzHit bool
	// ExecDecodeFailed counts cached outcomes that were present but
	// undecodable (corrupt or stale entries); each was re-executed, so it
	// also counts as a miss. Non-zero means the corpus needs attention.
	ExecDecodeFailed int
	// SnapshotsDecoded counts the snapshots the cached trios decoded: one
	// per distinct snapshot byte string within a trio. SnapshotsShared
	// counts the trio members whose bytes equaled an earlier member's and
	// so took its decoded snapshot instead. Their sum is three per cached
	// trio.
	SnapshotsDecoded int
	SnapshotsShared  int

	// Corpus I/O resilience counters (deltas for this run's corpus handle):
	// retries are extra attempts that then succeeded; failures exhausted
	// every attempt.
	ReadRetries   int64
	WriteRetries  int64
	ReadFailures  int64
	WriteFailures int64
}

// Degradation reason strings. Fixed text, never raw error messages:
// organic I/O errors carry run-dependent details (temp file names, errno
// phrasing), and the degraded section is part of the deterministic report.
const (
	ReasonStageDeadline = "stage deadline exceeded (unit skipped)"
	ReasonCorpusWrite   = "corpus write failed (entry not persisted)"
	ReasonCorpusRead    = "corpus read failed (recomputed)"
	ReasonCorpusOpen    = "corpus unavailable (ran uncached)"
	ReasonHybridMutate  = "hybrid mutation skipped (budget spent, no candidate)"
)

// Degraded is the campaign's graceful-degradation ledger: everything the
// run lost or had to recompute, counted per kind with aggregate reasons. A
// campaign that loses units still terminates with a complete report — this
// section is what makes the loss explicit instead of silently shortening
// the test count. Empty (all zeros) on a healthy run, and then omitted
// from Summary entirely, so healthy reports are byte-identical to the
// pre-degradation format.
//
// Determinism: counts are derived from index-ordered merges and keyed
// fault decisions, so for a seed-deterministic fault plan the section is
// byte-identical for any Workers value.
type Degraded struct {
	Instrs       int `json:"instrs,omitempty"`        // instructions that contributed a fault instead of tests
	Execs        int `json:"execs,omitempty"`         // test executions lost (crash, budget, deadline)
	CorpusWrites int `json:"corpus_writes,omitempty"` // cache entries that failed to persist (results still in-memory)
	CorpusReads  int `json:"corpus_reads,omitempty"`  // cache reads that failed and were recomputed
	HybridExecs  int `json:"hybrid_execs,omitempty"`  // hybrid mutation jobs that spent budget without a candidate

	// Reasons aggregates why, keyed by fixed reason strings (or the
	// deterministic fault message for crashed units).
	Reasons map[string]int `json:"reasons,omitempty"`
}

// Empty reports whether the run lost nothing.
func (d *Degraded) Empty() bool {
	return d.Instrs == 0 && d.Execs == 0 && d.CorpusWrites == 0 && d.CorpusReads == 0 &&
		d.HybridExecs == 0
}

// Total is the number of degraded units across all kinds.
func (d *Degraded) Total() int {
	return d.Instrs + d.Execs + d.CorpusWrites + d.CorpusReads + d.HybridExecs
}

func (d *Degraded) note(reason string) {
	if d.Reasons == nil {
		d.Reasons = make(map[string]int)
	}
	d.Reasons[reason]++
}

// Fault is one isolated failure: a worker that panicked or a test that
// exceeded its budget. Faults are merged in pipeline order, so the list is
// deterministic for any worker count.
type Fault struct {
	Stage string // "explore" or "execute"
	Key   string // instruction key or test ID
	Err   string
}

// Result aggregates a campaign.
type Result struct {
	InstrSet *core.InstrSetResult
	Reports  []*InstrReport

	TotalPaths     int
	TotalTests     int
	ExhaustedCount int
	ExploredInstrs int
	SummaryPaths   int

	// Difference counts against the hardware oracle (the Section 6.2
	// headline numbers: tests distinguishing QEMU, tests distinguishing
	// Bochs).
	LoFiDiffTests int
	HiFiDiffTests int

	Differences []*diff.Difference
	RootCauses  map[string]int

	// Voted-verdict tallies (populated when Config.Vote was set). The vote
	// runs over the three emulators — fidelis, celer, lento — per test;
	// VoteBlame counts, per emulator, the tests where the majority outvoted
	// it. A blame count is the campaign's per-emulator wrongness column.
	VoteUsed     bool
	VoteAgree    int
	VoteMajority int
	VoteSplits   int
	VoteBlame    map[string]int

	// TriageCases mirrors Differences in the triage engine's input shape:
	// one CaseInfo per divergent test, carrying the runnable program and its
	// test-instruction offset so the ddmin minimizer can reproduce and shrink
	// the case later without re-running the campaign.
	TriageCases []triage.CaseInfo

	// Baseline partition (populated when Config.Baseline was set).
	BaselineUsed    bool
	BaselineEntries int
	KnownDiffs      int // divergent tests matching a baseline entry
	NewDiffs        int // divergent tests not in the baseline — the regressions

	// Hybrid fuzzing outcome (populated when Config.Hybrid.Budget > 0).
	// Divergences found on mutated inputs stay here, deliberately separate
	// from Differences: the symex-generated headline numbers keep their
	// meaning, and the hybrid yield is reported on its own.
	HybridUsed  bool
	HybridStats hybrid.Stats
	HybridDivs  []hybrid.Divergence

	// Isolated failures (crashed handlers, budget overruns).
	InstrFaults  int
	ExecFaults   int
	ExecTimeouts int
	Faults       []Fault

	// Degraded is the graceful-degradation ledger: what the run lost and
	// why. Empty on a healthy run.
	Degraded Degraded

	Timing StageTiming
	Cache  CacheStats
	Solver SolverStats
}

// execTest is one runnable test in the execution stage, whether generated
// this run or loaded from the corpus.
type execTest struct {
	id       string
	handler  string // semantics handler name (drives the undef filter)
	mnemonic string
	prog     []byte
	testOff  int // offset of the test instruction in prog (triage split point)
}

// instrOut is one instruction's contribution, filled by its worker and
// merged in index order.
type instrOut struct {
	rep    *InstrReport
	tests  []execTest
	gen    time.Duration
	cached bool
	err    error
	putErr error // corpus write failure for this instruction's entry
}

// trio is one test's outcome across the three implementations, plus the
// optional lento voting leg, as the execute task leaves it: the task
// compares the final states itself and keeps only the differences, so no
// machine state outlives the task that produced or decoded it.
type trio struct {
	tFi, tCe, tHw, tLe time.Duration
	tCmp               time.Duration // diff.Compare and diff.Vote
	cached             bool
	timedOut           bool
	fault              string
	putErr             error            // corpus write failure for this test's exec entry
	decodeFailed       bool             // cached entry present but undecodable; re-executed
	snapsDecoded       int              // distinct snapshots a cached trio decoded
	lofi, hifi         []diff.FieldDiff // hardware vs celer, hardware vs fidelis
	vote               *diff.Verdict    // nil unless Config.Vote
}

// Run executes a campaign.
func Run(cfg Config) (*Result, error) {
	return RunContext(context.Background(), cfg)
}

// RunContext executes a campaign under a context. Cancellation stops the
// worker pools promptly — in-flight tasks finish, queued ones are skipped —
// and RunContext returns an error wrapping the context's error instead of a
// partial Result. With Resume enabled, every test executed before the
// cancellation has already been checkpointed in the corpus, so re-running
// the same Config picks up where the canceled run stopped.
func RunContext(ctx context.Context, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("campaign: canceled before start: %w", err)
	}
	emit := func(stage, key string, done, total int) {
		if cfg.Progress != nil {
			cfg.Progress(Event{Stage: stage, Key: key, Done: done, Total: total})
		}
	}
	if cfg.MaxPathsPerInstr == 0 {
		cfg.MaxPathsPerInstr = DefaultPathCap
	}
	testBudget := harness.Budget{MaxSteps: cfg.TestMaxSteps, Wall: cfg.TestTimeout}
	if testBudget.MaxSteps == 0 {
		testBudget.MaxSteps = harness.DefaultMaxSteps
	}
	res := &Result{RootCauses: make(map[string]int)}
	queries0 := solver.QueriesTotal()
	memoHits0, memoMisses0 := solver.MemoTotals()
	internHits0, internMisses0, _ := expr.InternStats()
	reused0 := solver.ReusedLevelsTotal()
	core0 := solver.StatsSnapshot()
	defer func() {
		res.Solver.Queries = solver.QueriesTotal() - queries0
		mh, mm := solver.MemoTotals()
		res.Solver.MemoHits, res.Solver.MemoMisses = mh-memoHits0, mm-memoMisses0
		ih, im, _ := expr.InternStats()
		res.Solver.InternHits, res.Solver.InternMisses = ih-internHits0, im-internMisses0
		res.Solver.ReusedLevels = solver.ReusedLevelsTotal() - reused0
		core1 := solver.StatsSnapshot()
		res.Solver.SubsumeHits = core1.SubsumeHits - core0.SubsumeHits
		res.Solver.Restarts = core1.Restarts - core0.Restarts
		res.Solver.ReduceRuns = core1.ReduceRuns - core0.ReduceRuns
		res.Solver.ReduceRemoved = core1.ReduceRemoved - core0.ReduceRemoved
	}()

	var crp *corpus.Corpus
	if cfg.CorpusDir != "" {
		var err error
		if crp, err = corpus.Open(cfg.CorpusDir); err != nil {
			// A version mismatch means the on-disk data is unsafe to reuse
			// or overwrite — refuse. Anything else (I/O failure initializing
			// the root) degrades the run to cache-disabled: the campaign
			// still completes, and the ledger makes the loss explicit.
			if errors.Is(err, corpus.ErrVersionMismatch) {
				return nil, err
			}
			crp = nil
			res.Degraded.CorpusWrites++
			res.Degraded.note(ReasonCorpusOpen)
		} else {
			res.Cache.Enabled = true
		}
	}

	// Stage 1a: instruction-set exploration.
	t0 := time.Now()
	res.InstrSet = core.ExploreInstructionSet()
	instrs := res.InstrSet.Unique
	if cfg.Handlers != nil {
		want := make(map[string]bool, len(cfg.Handlers))
		for _, h := range cfg.Handlers {
			want[h] = true
		}
		var filtered []*core.UniqueInstr
		matched := make(map[string]bool, len(want))
		for _, u := range instrs {
			if want[u.Key()] {
				filtered = append(filtered, u)
				matched[u.Key()] = true
			}
		}
		// A typo'd handler key used to be dropped silently, turning the
		// campaign into an empty run that "passed". Refuse it instead.
		var unknown []string
		for h := range want {
			if !matched[h] {
				unknown = append(unknown, h)
			}
		}
		if len(unknown) > 0 {
			sort.Strings(unknown)
			return nil, fmt.Errorf("campaign: unknown handler key(s): %s", strings.Join(unknown, ", "))
		}
		instrs = filtered
	}
	if cfg.MaxInstrs > 0 && len(instrs) > cfg.MaxInstrs {
		instrs = instrs[:cfg.MaxInstrs]
	}

	// Stage 1b+2: per-instruction state-space exploration and generation,
	// corpus-first. The explorer (and its descriptor-parse summaries, the
	// expensive Section 3.3.2 summarization) is built lazily: a fully warm
	// run never constructs it.
	opts := symex.DefaultOptions()
	opts.MaxPaths = cfg.MaxPathsPerInstr
	opts.Seed = cfg.Seed
	opts.Workers = cfg.ExploreWorkers
	opts.Solver = cfg.Solver
	if cfg.MaxSteps > 0 {
		opts.MaxSteps = cfg.MaxSteps
	}
	// Solver-mode settings change which models the solver returns, so
	// non-default modes get their own corpus namespace; the default label
	// is unchanged so existing corpora stay warm.
	solverLabel := configLabel + cfg.Solver.Label()
	sumKey := corpus.SummaryKey{Config: solverLabel, SymexVersion: symex.SerialVersion}
	var (
		exOnce        sync.Once
		ex            *core.Explorer
		exErr         error
		summaryHit    bool
		summaryPutErr error
	)
	buildExplorer := func() (*core.Explorer, error) {
		exOnce.Do(func() {
			if crp != nil && !cfg.NoCache {
				if se, ok := crp.GetSummary(sumKey); ok {
					data, derr := symex.DecodeSummary(se.Data)
					ss, serr := symex.DecodeSummary(se.SS)
					if derr == nil && serr == nil {
						ex, exErr = core.NewExplorerWithSummaries(opts, sem.BochsConfig,
							core.ExplorerSummaries{Data: data, SS: ss})
						if exErr == nil {
							summaryHit = true
							return
						}
					}
				}
			}
			ex, exErr = core.NewExplorer(opts)
			if exErr == nil && crp != nil {
				sums := ex.Summaries()
				// A failed summary write only costs the next cold run a
				// re-summarization, but it must not be silent: it lands in
				// the degraded ledger after the pool drains.
				summaryPutErr = crp.PutSummary(&corpus.SummaryEntry{
					Key:   sumKey,
					Paths: ex.SummaryPaths,
					Data:  symex.EncodeSummary(sums.Data),
					SS:    symex.EncodeSummary(sums.SS),
				})
			}
		})
		return ex, exErr
	}

	// stageCtx derives a per-stage deadline when configured; expiry skips
	// queued units (counted in the degraded ledger) without failing the
	// campaign, while parent-context cancellation stays fatal.
	stageCtx := func() (context.Context, context.CancelFunc) {
		if cfg.StageTimeout > 0 {
			return context.WithTimeout(ctx, cfg.StageTimeout)
		}
		return ctx, func() {}
	}

	workers := cfg.Workers
	outs := make([]instrOut, len(instrs))
	emit(StageExplore, "", 0, len(instrs))
	var exploreDone atomic.Int64
	exploreCtx, exploreCancel := stageCtx()
	instrPanics, instrRan := fanout.Run(exploreCtx, workers, len(instrs), func(i int) {
		defer func() {
			emit(StageExplore, instrs[i].Key(), int(exploreDone.Add(1)), len(instrs))
		}()
		u := instrs[i]
		// Injected worker crash, keyed by instruction: the panic rides the
		// pool's per-index isolation into a deterministic fault record.
		if err := faults.Hit(faults.CampaignExplore, u.Key()); err != nil {
			panic(err)
		}
		key := corpus.InstrKey{
			Handler: u.Key(), PathCap: cfg.MaxPathsPerInstr, MaxSteps: cfg.MaxSteps,
			Seed: cfg.Seed, Config: solverLabel,
			SymexVersion: symex.SerialVersion, GenVersion: testgen.Version,
		}
		if crp != nil && !cfg.NoCache {
			if ent, ok := crp.GetInstr(key); ok {
				outs[i] = outFromEntry(ent)
				return
			}
		}
		e, err := buildExplorer()
		if err != nil {
			outs[i].err = err
			return
		}
		tExp := time.Now()
		er, err := e.ExploreState(u)
		if err != nil {
			outs[i].err = fmt.Errorf("campaign: exploring %s: %w", u.Key(), err)
			return
		}
		rep := &InstrReport{
			Key:         u.Key(),
			Paths:       len(er.Tests),
			Exhausted:   er.Exhausted,
			Queries:     er.Stats.SolverQueries,
			ExploreWall: time.Since(tExp),
		}
		tGen := time.Now()
		var tests []execTest
		var cachedTests []corpus.CachedTest
		for _, tc := range er.Tests {
			p, err := testgen.Build(tc)
			if err != nil {
				rep.GenFailed++
				continue
			}
			if !testgen.Verify(p, e.Image()) {
				rep.InitFault++
				continue
			}
			rep.Generated++
			tests = append(tests, execTest{
				id: tc.ID, handler: tc.Handler, mnemonic: tc.Mnemonic,
				prog: p.Code, testOff: p.TestOffset,
			})
			cachedTests = append(cachedTests, corpus.CachedTest{
				ID: tc.ID, PathIndex: tc.PathIndex,
				Outcome: corpus.Outcome{
					Kind: uint8(tc.Outcome.Kind), Vector: tc.Outcome.Vector,
					ErrCode: tc.Outcome.ErrCode, HasErr: tc.Outcome.HasErr,
					Soft: tc.Outcome.Soft,
				},
				Diffs: tc.Diffs(), Prog: p.Code, TestOffset: p.TestOffset,
			})
		}
		outs[i] = instrOut{rep: rep, tests: tests, gen: time.Since(tGen)}
		if crp != nil {
			// This run keeps its in-memory tests either way, but a failed
			// write means the next run re-explores; record it instead of
			// dropping it on the floor.
			outs[i].putErr = crp.PutInstr(&corpus.InstrEntry{
				Key: key, HandlerName: u.Spec.Name, Mnemonic: u.Spec.Mn,
				Paths: rep.Paths, Exhausted: rep.Exhausted, Queries: rep.Queries,
				Generated: rep.Generated, GenFailed: rep.GenFailed,
				InitFault: rep.InitFault, Tests: cachedTests,
			})
		}
	})
	exploreCancel()
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("campaign: canceled during exploration: %w", err)
	}

	// Deterministic index-ordered merge.
	if summaryPutErr != nil {
		res.Degraded.CorpusWrites++
		res.Degraded.note(ReasonCorpusWrite)
	}
	var tests []execTest
	for i := range outs {
		o := &outs[i]
		if !instrRan[i] {
			// Stage deadline expired before this unit was claimed: it is a
			// fault (the instruction contributed nothing) and a degraded
			// unit, never a silent omission.
			*o = instrOut{rep: &InstrReport{Key: instrs[i].Key(), Fault: ReasonStageDeadline}}
		} else if p := instrPanics[i]; p != nil {
			// The panic value only: a stack trace holds addresses, which
			// would break report determinism.
			*o = instrOut{rep: &InstrReport{Key: instrs[i].Key(), Fault: fmt.Sprintf("panic: %v", p)}}
		}
		if o.err != nil {
			return nil, o.err
		}
		if o.putErr != nil {
			res.Degraded.CorpusWrites++
			res.Degraded.note(ReasonCorpusWrite)
		}
		if o.rep.Fault != "" {
			res.InstrFaults++
			res.Faults = append(res.Faults, Fault{Stage: "explore", Key: o.rep.Key, Err: o.rep.Fault})
			res.Degraded.Instrs++
			res.Degraded.note(o.rep.Fault)
		}
		res.Reports = append(res.Reports, o.rep)
		res.TotalPaths += o.rep.Paths
		if o.rep.Exhausted {
			res.ExhaustedCount++
		}
		res.ExploredInstrs++
		res.Timing.Generate += o.gen
		if o.cached {
			res.Cache.InstrHits++
			res.Cache.TestsCached += len(o.tests)
		} else {
			res.Cache.InstrMisses++
			res.Cache.TestsGenerated += o.rep.Generated
		}
		tests = append(tests, o.tests...)
	}
	res.Timing.Explore = time.Since(t0) - res.Timing.Generate
	res.TotalTests = len(tests)
	res.Cache.SummaryHit = summaryHit

	// The descriptor-parse path count for the report: from the explorer if
	// one was built, else from the cached summary entry, so cold and warm
	// reports agree byte for byte.
	if ex != nil {
		res.SummaryPaths = ex.SummaryPaths
	} else if crp != nil && !cfg.NoCache {
		if se, ok := crp.GetSummary(sumKey); ok {
			res.SummaryPaths = se.Paths
			res.Cache.SummaryHit = true
		}
	}

	// Stage 3: execution on the three implementations, fanned out with
	// per-test budgets and panic isolation.
	image := machine.BaselineImage()
	if ex != nil {
		image = ex.Image()
	}
	boot := testgen.BaselineInit()
	fiF := harness.FidelisFactory()
	ceF := harness.CelerFactory()
	hwF := harness.HardwareFactory()
	leF := harness.LentoFactory()
	// The -resume execution cache stores the classic trio only; a voting
	// campaign needs the fourth leg, so it bypasses the cache entirely
	// rather than replaying three-legged outcomes it cannot vote over.
	execCache := cfg.Resume && !cfg.Vote

	var dec *machine.Decoder
	if crp != nil && execCache && !cfg.NoCache {
		dec = machine.NewDecoder(image)
	}

	// Each execute task resolves its test's trio (from the corpus or by
	// running it), compares the final states, and releases them: a decoded
	// snapshot's pages go back to the decoder's pool for the next task.
	outcomes := make([]trio, len(tests))
	emit(StageExecute, "", 0, len(tests))
	var execDone atomic.Int64
	execCtx, execCancel := stageCtx()
	execPanics, execRan := fanout.Run(execCtx, workers, len(tests), func(i int) {
		defer func() {
			emit(StageExecute, tests[i].id, int(execDone.Add(1)), len(tests))
		}()
		// Injected worker crash, keyed by test ID (stable across runs and
		// worker counts).
		if err := faults.Hit(faults.CampaignExec, tests[i].id); err != nil {
			panic(err)
		}
		o := &outcomes[i]
		var fi, ce, hw, le *harness.Result
		var ek corpus.ExecKey
		if crp != nil && execCache {
			ek = corpus.ExecKey{
				ProgSHA:  corpus.ExecProgSHA(boot, tests[i].prog),
				MaxSteps: testBudget.MaxSteps,
				SnapVer:  machine.SnapVersion,
			}
			if dec != nil {
				if ent, ok := crp.GetExec(ek); ok {
					if rs, n, err := decodeExec(ent, dec); err == nil {
						fi, ce, hw = rs[0], rs[1], rs[2]
						o.cached, o.snapsDecoded = true, n
					} else {
						// Present but undecodable: fall through to a real
						// execution, and count the corrupt entry.
						o.decodeFailed = true
					}
				}
			}
		}
		if !o.cached {
			t := time.Now()
			fi = harness.RunBootBudget(fiF, image, boot, tests[i].prog, testBudget)
			o.tFi = time.Since(t)
			t = time.Now()
			ce = harness.RunBootBudget(ceF, image, boot, tests[i].prog, testBudget)
			o.tCe = time.Since(t)
			t = time.Now()
			hw = harness.RunBootBudget(hwF, image, boot, tests[i].prog, testBudget)
			o.tHw = time.Since(t)
			if cfg.Vote {
				t = time.Now()
				le = harness.RunBootBudget(leF, image, boot, tests[i].prog, testBudget)
				o.tLe = time.Since(t)
			}
		}
		o.timedOut = fi.TimedOut || ce.TimedOut || hw.TimedOut || (le != nil && le.TimedOut)
		if crp != nil && execCache && !o.cached && !o.timedOut {
			if ent, err := encodeExec(ek, fi, ce, hw, image); err == nil {
				o.putErr = crp.PutExec(ent)
			}
		}
		if !o.timedOut {
			t := time.Now()
			filter := diff.UndefFilterFor(tests[i].handler)
			o.lofi = diff.Compare(hw.Snapshot, ce.Snapshot, filter)
			o.hifi = diff.Compare(hw.Snapshot, fi.Snapshot, filter)
			// N-way vote over the three independent emulators. Hardware
			// stays the pairwise oracle above; the vote turns
			// emulator-vs-emulator divergences into blame assignments
			// without any oracle at all.
			if cfg.Vote {
				o.vote = diff.Vote([]diff.VoteRun{
					{Impl: "fidelis", Snap: fi.Snapshot},
					{Impl: "celer", Snap: ce.Snapshot},
					{Impl: "lento", Snap: le.Snapshot},
				}, filter)
			}
			o.tCmp = time.Since(t)
		}
		releaseAll(fi, ce, hw, le)
	})
	execCancel()
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("campaign: canceled during execution: %w", err)
	}

	for i := range outcomes {
		o := &outcomes[i]
		if !execRan[i] {
			o.fault = ReasonStageDeadline
		} else if p := execPanics[i]; p != nil {
			o.fault = fmt.Sprintf("panic: %v", p)
		}
		if o.putErr != nil {
			res.Degraded.CorpusWrites++
			res.Degraded.note(ReasonCorpusWrite)
		}
		if o.decodeFailed {
			res.Cache.ExecDecodeFailed++
			res.Degraded.CorpusReads++
			res.Degraded.note(ReasonCorpusRead)
		}
		if o.fault != "" {
			res.ExecFaults++
			res.Faults = append(res.Faults, Fault{Stage: "execute", Key: tests[i].id, Err: o.fault})
			res.Degraded.Execs++
			res.Degraded.note(o.fault)
			continue
		}
		res.Timing.ExecHiFi += o.tFi
		res.Timing.ExecLoFi += o.tCe
		res.Timing.ExecLento += o.tLe
		res.Timing.ExecHW += o.tHw
		if o.cached {
			res.Cache.ExecHits++
			res.Cache.SnapshotsDecoded += o.snapsDecoded
			res.Cache.SnapshotsShared += len(implOrder) - o.snapsDecoded
		} else {
			res.Cache.ExecMisses++
		}
		if o.timedOut {
			res.ExecTimeouts++
			res.Faults = append(res.Faults, Fault{Stage: "execute", Key: tests[i].id,
				Err: fmt.Sprintf("wall-clock budget %v exceeded", cfg.TestTimeout)})
			res.Degraded.Execs++
			res.Degraded.note("wall-clock budget exceeded (excluded from diffing)")
		}
	}

	// Stage 4: difference analysis, recorded in test-index order from the
	// comparisons the execute tasks made (so inherently deterministic).
	// Every divergence also becomes a triage CaseInfo (identity + runnable
	// program), and — with a baseline configured — is classified known/new.
	emit(StageCompare, "", 0, 1)
	t1 := time.Now()
	res.BaselineUsed = cfg.Baseline != nil
	res.BaselineEntries = cfg.Baseline.Len()
	res.VoteUsed = cfg.Vote
	if cfg.Vote {
		res.VoteBlame = make(map[string]int)
	}
	record := func(i int, implB string, ds []diff.FieldDiff) {
		d := &diff.Difference{
			TestID: tests[i].id, Handler: tests[i].handler, Mnemonic: tests[i].mnemonic,
			ImplA: "hardware", ImplB: implB, Fields: ds,
		}
		res.Differences = append(res.Differences, d)
		res.RootCauses[diff.RootCause(d)]++
		sig := d.Signature()
		res.TriageCases = append(res.TriageCases, triage.CaseInfo{
			TestID: tests[i].id, Handler: tests[i].handler, Mnemonic: tests[i].mnemonic,
			ImplA: "hardware", ImplB: implB,
			Signature: sig, RootCause: diff.RootCause(d),
			Prog: tests[i].prog, TestOffset: tests[i].testOff,
		})
		if cfg.Baseline.Match(implB, sig) {
			res.KnownDiffs++
		} else {
			res.NewDiffs++
		}
	}
	for i := range tests {
		if i&1023 == 0 && ctx.Err() != nil {
			return nil, fmt.Errorf("campaign: canceled during comparison: %w", ctx.Err())
		}
		o := &outcomes[i]
		if o.fault != "" || o.timedOut {
			continue
		}
		res.Timing.Compare += o.tCmp
		if len(o.lofi) > 0 {
			res.LoFiDiffTests++
			record(i, "celer", o.lofi)
		}
		if len(o.hifi) > 0 {
			res.HiFiDiffTests++
			record(i, "fidelis", o.hifi)
		}
		if v := o.vote; v != nil {
			switch v.Class {
			case diff.VerdictAgree:
				res.VoteAgree++
			case diff.VerdictMajority:
				res.VoteMajority++
				for _, impl := range v.Outliers {
					res.VoteBlame[impl]++
				}
			default:
				res.VoteSplits++
			}
		}
	}
	res.Timing.Compare += time.Since(t1)
	emit(StageCompare, "", 1, 1)

	// Stage 5 (optional): coverage-guided hybrid fuzzing, seeded with this
	// campaign's tests and their divergence verdicts. The whole stage result
	// is content-addressed in the corpus (seeds + budget + seed + versions),
	// so a warm re-run replays it without executing a single mutation.
	if cfg.Hybrid.Budget > 0 {
		emit(StageHybrid, "", 0, 1)
		tH := time.Now()
		divsByTest := make(map[string][]hybrid.Divergence)
		for _, d := range res.Differences {
			divsByTest[d.TestID] = append(divsByTest[d.TestID], hybrid.Divergence{
				InputID: d.TestID, Handler: d.Handler, Mnemonic: d.Mnemonic,
				Impl: d.ImplB, Signature: d.Signature(),
			})
		}
		var seeds []hybrid.Seed
		for i := range tests {
			o := &outcomes[i]
			if o.fault != "" || o.timedOut {
				continue
			}
			seeds = append(seeds, hybrid.Seed{
				ID: tests[i].id, Handler: tests[i].handler, Mnemonic: tests[i].mnemonic,
				Prog: tests[i].prog, TestOff: tests[i].testOff,
				Divs: divsByTest[tests[i].id],
			})
		}
		hseed := cfg.Hybrid.Seed
		if hseed == 0 {
			hseed = cfg.Seed
		}
		fk := corpus.FuzzInputKey{
			SeedsSHA: hybrid.SeedsSHA(boot, seeds),
			Budget:   cfg.Hybrid.Budget, Seed: hseed,
			MaxSteps: testBudget.MaxSteps, RoundSize: hybrid.DefaultRoundSize,
			ReseedPaths: hybrid.DefaultReseedPaths, MaxReseeds: hybrid.DefaultMaxReseeds,
			Config: solverLabel, CovVersion: coverage.Version,
			HybridVersion: hybrid.Version, GenVersion: testgen.Version,
		}
		var hres *hybrid.Result
		if crp != nil && !cfg.NoCache {
			if ent, ok := crp.GetFuzz(fk); ok {
				var dec hybrid.Result
				if json.Unmarshal(ent.Result, &dec) == nil {
					hres = &dec
					res.Cache.FuzzHit = true
				}
			}
		}
		if hres == nil {
			var err error
			hres, err = hybrid.Run(ctx, hybrid.Config{
				Budget: cfg.Hybrid.Budget, Seed: hseed, Workers: workers,
				MaxSteps: testBudget.MaxSteps, Image: image, Boot: boot,
				Explorer: buildExplorer, Instrs: instrs,
			}, seeds)
			if err != nil {
				return nil, fmt.Errorf("campaign: hybrid fuzzing: %w", err)
			}
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("campaign: canceled during hybrid fuzzing: %w", err)
			}
			if crp != nil {
				if raw, err := json.Marshal(hres); err == nil {
					if perr := crp.PutFuzz(&corpus.FuzzEntry{Key: fk, Result: raw}); perr != nil {
						res.Degraded.CorpusWrites++
						res.Degraded.note(ReasonCorpusWrite)
					}
				}
			}
		}
		res.HybridUsed = true
		res.HybridStats = hres.Stats
		res.HybridDivs = hres.Divergences
		// Skipped mutation jobs spent budget without producing a candidate
		// (injected faults, chaos runs, crashed trios): ledger them like any
		// other loss.
		if n := hres.Stats.Skipped; n > 0 {
			res.Degraded.HybridExecs = n
			for i := 0; i < n; i++ {
				res.Degraded.note(ReasonHybridMutate)
			}
		}
		res.Timing.Hybrid = time.Since(tH)
		emit(StageHybrid, "", 1, 1)
	}

	// Harvest corpus resilience counters. The handle was opened by this run,
	// so its counters are this campaign's own traffic. A read that exhausted
	// every retry degraded to a recompute — correct output, lost cache — and
	// is ledgered like any other loss.
	if crp != nil {
		st := crp.Stats()
		res.Cache.ReadRetries, res.Cache.WriteRetries = st.ReadRetries, st.WriteRetries
		res.Cache.ReadFailures, res.Cache.WriteFailures = st.ReadFailures, st.WriteFailures
		res.Degraded.CorpusReads += int(st.ReadFailures)
		for i := int64(0); i < st.ReadFailures; i++ {
			res.Degraded.note(ReasonCorpusRead)
		}
	}
	return res, nil
}

// outFromEntry converts a corpus entry into the same instrOut shape a cold
// exploration produces.
func outFromEntry(ent *corpus.InstrEntry) instrOut {
	rep := &InstrReport{
		Key:       ent.Key.Handler,
		Paths:     ent.Paths,
		Exhausted: ent.Exhausted,
		Generated: ent.Generated,
		GenFailed: ent.GenFailed,
		InitFault: ent.InitFault,
		Queries:   ent.Queries,
	}
	tests := make([]execTest, 0, len(ent.Tests))
	for _, ct := range ent.Tests {
		tests = append(tests, execTest{
			id: ct.ID, handler: ent.HandlerName, mnemonic: ent.Mnemonic,
			prog: ct.Prog, testOff: ct.TestOffset,
		})
	}
	return instrOut{rep: rep, tests: tests, cached: true}
}

// implOrder is the serialization order of the execution trio.
var implOrder = []string{"fidelis", "celer", "hardware"}

// encodeExec serializes a trio's outcomes relative to the shared baseline
// image for the -resume cache, in implOrder.
func encodeExec(key corpus.ExecKey, fi, ce, hw *harness.Result, image *machine.Memory) (*corpus.ExecEntry, error) {
	ent := &corpus.ExecEntry{Key: key}
	for _, r := range []*harness.Result{fi, ce, hw} {
		var buf bytes.Buffer
		if err := r.Snapshot.WriteTo(&buf, image); err != nil {
			return nil, err
		}
		ent.Impls = append(ent.Impls, corpus.ExecOutcome{
			Impl: r.Impl, Steps: r.Steps, BaselineFault: r.BaselineFault,
			Snap: buf.Bytes(),
		})
	}
	return ent, nil
}

// decodeExec rebuilds a trio's results, in implOrder, from a cached
// outcome, and returns how many snapshots it decoded. Members whose
// snapshot bytes are equal share one decoded snapshot: decoding and its
// validation are a function of the bytes and the base image alone, so a
// shared decode is the decode each would have had. The snapshots hold
// pooled pages the caller must release (Release is idempotent, so
// releasing a shared snapshot once per member is safe); on error every
// snapshot already decoded is released here.
func decodeExec(ent *corpus.ExecEntry, dec *machine.Decoder) ([]*harness.Result, int, error) {
	if len(ent.Impls) != len(implOrder) {
		return nil, 0, fmt.Errorf("campaign: exec entry has %d outcomes, want %d",
			len(ent.Impls), len(implOrder))
	}
	results := make([]*harness.Result, len(implOrder))
	decoded := 0
	for i, impl := range ent.Impls {
		if impl.Impl != implOrder[i] {
			releaseAll(results...)
			return nil, 0, fmt.Errorf("campaign: exec entry order %q, want %q", impl.Impl, implOrder[i])
		}
		var snap *machine.Snapshot
		for j := range i {
			if bytes.Equal(ent.Impls[j].Snap, impl.Snap) {
				snap = results[j].Snapshot
				break
			}
		}
		if snap == nil {
			var err error
			if snap, err = dec.Decode(impl.Snap); err != nil {
				releaseAll(results...)
				return nil, 0, err
			}
			decoded++
		}
		results[i] = &harness.Result{
			Impl: impl.Impl, Snapshot: snap, Steps: impl.Steps,
			BaselineFault: impl.BaselineFault,
		}
	}
	return results, decoded, nil
}

// releaseAll ends the life of every non-nil result's snapshot; results
// sharing a snapshot release it once.
func releaseAll(rs ...*harness.Result) {
	for _, r := range rs {
		if r != nil {
			r.Snapshot.Release()
		}
	}
}

// Summary renders the campaign like the paper's Section 6 numbers. The
// output is fully deterministic: same Config (and corpus contents) → same
// bytes, for any Workers value and on every run. Wall-clock costs live in
// TimingTable.
func (r *Result) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "instruction-set exploration: %d decoder paths, %d candidates, %d unique instructions\n",
		r.InstrSet.ExploredPaths, r.InstrSet.Candidates, len(r.InstrSet.Unique))
	fmt.Fprintf(&b, "state-space exploration: %d instructions, %d paths, %d/%d exhaustively explored (%.1f%%)\n",
		r.ExploredInstrs, r.TotalPaths, r.ExhaustedCount, r.ExploredInstrs,
		100*float64(r.ExhaustedCount)/float64(max(1, r.ExploredInstrs)))
	fmt.Fprintf(&b, "descriptor-parse summary: %d paths\n", r.SummaryPaths)
	fmt.Fprintf(&b, "test programs: %d\n", r.TotalTests)
	fmt.Fprintf(&b, "differences vs hardware: lo-fi %d tests, hi-fi %d tests\n",
		r.LoFiDiffTests, r.HiFiDiffTests)
	// Baseline partition: rendered only when a baseline was configured, so
	// baseline-free reports keep the historical byte format.
	if r.BaselineUsed {
		fmt.Fprintf(&b, "baseline: %d suppressed clusters; known %d tests, new %d tests\n",
			r.BaselineEntries, r.KnownDiffs, r.NewDiffs)
	}
	causes := make([]string, 0, len(r.RootCauses))
	for c := range r.RootCauses {
		causes = append(causes, c)
	}
	sort.Strings(causes)
	for _, c := range causes {
		fmt.Fprintf(&b, "  root cause: %-55s %6d tests\n", c, r.RootCauses[c])
	}
	// Voted-verdict block: rendered only when the vote ran, so vote-free
	// reports keep the historical byte format. The blame column is sorted
	// by emulator name for determinism.
	if r.VoteUsed {
		fmt.Fprintf(&b, "vote (fidelis/celer/lento): %d agree, %d majority, %d split\n",
			r.VoteAgree, r.VoteMajority, r.VoteSplits)
		impls := make([]string, 0, len(r.VoteBlame))
		for impl := range r.VoteBlame {
			impls = append(impls, impl)
		}
		sort.Strings(impls)
		for _, impl := range impls {
			fmt.Fprintf(&b, "  blame: %-59s %6d tests\n", impl, r.VoteBlame[impl])
		}
	}
	// Hybrid fuzzing block: rendered only when the stage ran, so
	// hybrid-free reports keep the historical byte format. Every number is
	// deterministic (worker-count independent).
	if r.HybridUsed {
		st := r.HybridStats
		fmt.Fprintf(&b, "hybrid: %d execs (%d skipped), %d deduped, %d new-coverage, %d divergent, %d promising\n",
			st.Execs, st.Skipped, st.Deduped, st.NewCoverage, st.Divergent, st.Promising)
		fmt.Fprintf(&b, "hybrid corpus: %d signatures (seeds %d/%d), %d edges, reseeds %d (+%d tests)\n",
			st.Signatures, st.SeedSignatures, st.Seeds, st.Edges, st.Reseeds, st.ReseedTests)
		divSigs := make(map[string]int)
		for _, d := range r.HybridDivs {
			divSigs[d.Impl+" "+d.Signature]++
		}
		keys := make([]string, 0, len(divSigs))
		for k := range divSigs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&b, "  hybrid divergence: %-53s %6d inputs\n", k, divSigs[k])
		}
	}
	fmt.Fprintf(&b, "faults: explore %d, execute %d, timeouts %d\n",
		r.InstrFaults, r.ExecFaults, r.ExecTimeouts)
	for _, f := range r.Faults {
		fmt.Fprintf(&b, "  fault: %-8s %-24s %s\n", f.Stage, f.Key, f.Err)
	}
	// The graceful-degradation ledger. Omitted entirely on a healthy run,
	// so healthy reports are byte-identical to the pre-degradation format;
	// when present, reasons render in sorted order for determinism.
	if !r.Degraded.Empty() {
		d := &r.Degraded
		// The hybrid count is appended only when nonzero, keeping
		// hybrid-free degraded reports byte-identical to the prior format.
		hyb := ""
		if d.HybridExecs > 0 {
			hyb = fmt.Sprintf(", hybrid %d", d.HybridExecs)
		}
		fmt.Fprintf(&b, "degraded: %d units (instrs %d, execs %d, corpus writes %d, corpus reads %d%s)\n",
			d.Total(), d.Instrs, d.Execs, d.CorpusWrites, d.CorpusReads, hyb)
		reasons := make([]string, 0, len(d.Reasons))
		for reason := range d.Reasons {
			reasons = append(reasons, reason)
		}
		sort.Strings(reasons)
		for _, reason := range reasons {
			fmt.Fprintf(&b, "  degraded: %-55s %6d units\n", reason, d.Reasons[reason])
		}
	}
	return b.String()
}

// TimingTable renders the per-stage cost profile (the paper's CPU-hour
// table) together with corpus cache traffic per stage. This is the
// run-dependent half of the report.
func (r *Result) TimingTable() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %10s %10s %10s %9s\n", "stage", "wall", "cached", "computed", "hit-rate")
	row := func(stage string, d time.Duration, hits, misses int, unit string) {
		rate := "-"
		if hits+misses > 0 && r.Cache.Enabled {
			rate = fmt.Sprintf("%.1f%%", 100*float64(hits)/float64(hits+misses))
		}
		cached := "-"
		if r.Cache.Enabled {
			cached = fmt.Sprintf("%d %s", hits, unit)
		}
		fmt.Fprintf(&b, "%-12s %10s %10s %10s %9s\n",
			stage, d.Round(time.Millisecond), cached,
			fmt.Sprintf("%d %s", misses, unit), rate)
	}
	row("explore", r.Timing.Explore, r.Cache.InstrHits, r.Cache.InstrMisses, "instr")
	row("generate", r.Timing.Generate, r.Cache.TestsCached, r.Cache.TestsGenerated, "test")
	execWall := r.Timing.ExecHiFi + r.Timing.ExecLoFi + r.Timing.ExecLento + r.Timing.ExecHW
	row("execute", execWall, r.Cache.ExecHits, r.Cache.ExecMisses, "test")
	fmt.Fprintf(&b, "%-12s %10s\n", "  hi-fi", r.Timing.ExecHiFi.Round(time.Millisecond))
	fmt.Fprintf(&b, "%-12s %10s\n", "  lo-fi", r.Timing.ExecLoFi.Round(time.Millisecond))
	if r.VoteUsed {
		fmt.Fprintf(&b, "%-12s %10s\n", "  lento", r.Timing.ExecLento.Round(time.Millisecond))
	}
	fmt.Fprintf(&b, "%-12s %10s\n", "  hardware", r.Timing.ExecHW.Round(time.Millisecond))
	fmt.Fprintf(&b, "%-12s %10s %10s %10s %9s\n", "compare", r.Timing.Compare.Round(time.Millisecond),
		"-", fmt.Sprintf("%d test", r.LoFiDiffTests+r.HiFiDiffTests), "-")
	if r.HybridUsed {
		cached := "-"
		if r.Cache.FuzzHit {
			cached = "1 stage"
		}
		fmt.Fprintf(&b, "%-12s %10s %10s %10s %9s\n", "hybrid",
			r.Timing.Hybrid.Round(time.Millisecond), cached,
			fmt.Sprintf("%d exec", r.HybridStats.Execs), "-")
		for _, hc := range r.HybridStats.PerHandler {
			fmt.Fprintf(&b, "  coverage %-26s %6d edges %6d sigs\n", hc.Handler, hc.Edges, hc.Sigs)
		}
	}
	if r.BaselineUsed {
		fmt.Fprintf(&b, "baseline: %d entries; %d known, %d new divergent tests\n",
			r.BaselineEntries, r.KnownDiffs, r.NewDiffs)
	}
	if r.Cache.Enabled {
		fmt.Fprintf(&b, "descriptor-parse summary cached: %v\n", r.Cache.SummaryHit)
	}
	if c := r.Cache; c.SnapshotsDecoded+c.SnapshotsShared > 0 {
		fmt.Fprintf(&b, "cached snapshots: %d decoded, %d shared with an equal trio member\n",
			c.SnapshotsDecoded, c.SnapshotsShared)
	}
	// Corpus I/O resilience: printed only when something retried or failed,
	// so healthy-run output is unchanged.
	if c := r.Cache; c.ReadRetries+c.WriteRetries+c.ReadFailures+c.WriteFailures > 0 ||
		c.ExecDecodeFailed > 0 {
		fmt.Fprintf(&b, "corpus io: read retries %d, failures %d; write retries %d, failures %d; undecodable exec entries %d\n",
			c.ReadRetries, c.ReadFailures, c.WriteRetries, c.WriteFailures, c.ExecDecodeFailed)
	}
	rate := func(hits, misses int64) string {
		if hits+misses == 0 {
			return "-"
		}
		return fmt.Sprintf("%.1f%%", 100*float64(hits)/float64(hits+misses))
	}
	fmt.Fprintf(&b, "solver: %d queries, memo %d/%d hit (%s)\n",
		r.Solver.Queries, r.Solver.MemoHits, r.Solver.MemoHits+r.Solver.MemoMisses,
		rate(r.Solver.MemoHits, r.Solver.MemoMisses))
	fmt.Fprintf(&b, "expr intern: %d/%d hit (%s)\n",
		r.Solver.InternHits, r.Solver.InternHits+r.Solver.InternMisses,
		rate(r.Solver.InternHits, r.Solver.InternMisses))
	if r.Solver.ReusedLevels > 0 {
		fmt.Fprintf(&b, "solver batch: %d assumption levels reused\n", r.Solver.ReusedLevels)
	}
	if r.Solver.SubsumeHits > 0 {
		fmt.Fprintf(&b, "solver subsume: %d queries answered by model subsumption\n", r.Solver.SubsumeHits)
	}
	if r.Solver.ReduceRuns > 0 {
		fmt.Fprintf(&b, "solver reduce: %d passes dropped %d learned clauses (%d restarts)\n",
			r.Solver.ReduceRuns, r.Solver.ReduceRemoved, r.Solver.Restarts)
	}
	var explored []*InstrReport
	for _, rep := range r.Reports {
		if rep.ExploreWall > 0 {
			explored = append(explored, rep)
		}
	}
	if len(explored) > 0 {
		sort.Slice(explored, func(i, j int) bool {
			if explored[i].ExploreWall != explored[j].ExploreWall {
				return explored[i].ExploreWall > explored[j].ExploreWall
			}
			return explored[i].Key < explored[j].Key
		})
		fmt.Fprintf(&b, "explore wall by handler:\n")
		for i, rep := range explored {
			if i == 10 {
				fmt.Fprintf(&b, "  … %d more\n", len(explored)-i)
				break
			}
			fmt.Fprintf(&b, "  %-28s %10s %6d paths\n",
				rep.Key, rep.ExploreWall.Round(time.Millisecond), rep.Paths)
		}
	}
	return b.String()
}
