package campaign

import (
	"errors"
	"flag"
	"fmt"
	"math"
	"strings"
	"time"
)

// DefaultPathCap is the per-instruction path cap a zero cap stands for on
// every surface: the CLI's -cap, pokeemud's path_cap and Config.
const DefaultPathCap = 256

// SurfaceWorkers is the workers knob's Default: a zero takes the worker
// count the surface passes to Spec.Config.
const SurfaceWorkers = -1

// Spec is a campaign request as plain values: what the campaign and triage
// flag blocks parse and what pokeemud decodes from a submit body.
type Spec struct {
	Handlers       []string `json:"handlers,omitempty"`
	MaxInstrs      int      `json:"max_instrs,omitempty"`
	PathCap        int      `json:"path_cap,omitempty"`
	Seed           int64    `json:"seed,omitempty"`
	Workers        int      `json:"workers,omitempty"`
	ExploreWorkers int      `json:"explore_workers,omitempty"`
	MaxSteps       int      `json:"max_steps,omitempty"`
	Resume         bool     `json:"resume,omitempty"`
	NoCache        bool     `json:"no_cache,omitempty"`
	TestMaxSteps   int      `json:"test_max_steps,omitempty"`
	TestTimeoutMS  int64    `json:"test_timeout_ms,omitempty"`
	StageTimeoutMS int64    `json:"stage_timeout_ms,omitempty"`
	HybridBudget   int      `json:"hybrid_budget,omitempty"`
	HybridSeed     int64    `json:"hybrid_seed,omitempty"`
	Vote           bool     `json:"vote,omitempty"`
}

// Knob is one row of the spec table: a Spec field's CLI flag and JSON
// name, the value a zero stands for (numeric knobs; 0 = zero is a value),
// the least value accepted after that, and help text. An MS knob counts
// milliseconds, which the CLI takes as a duration. Triage marks the knobs
// `pokeemu triage` registers too; the rest configure stages it does not run.
type Knob struct {
	Flag, JSON   string
	Default, Min int64
	MS, Triage   bool
	Help         string

	p any // *int, *int64, *bool or *[]string: the Spec field
}

// Knobs returns the spec table, bound to s's fields.
func (s *Spec) Knobs() []Knob {
	const anySeed = math.MinInt64
	return []Knob{
		{Flag: "handlers", JSON: "handlers", p: &s.Handlers, Triage: true, Help: "comma-separated handler `keys` (none = all)"},
		{Flag: "instrs", JSON: "max_instrs", p: &s.MaxInstrs, Triage: true, Help: "max unique instructions (0 = all)"},
		{Flag: "cap", JSON: "path_cap", p: &s.PathCap, Default: DefaultPathCap, Min: 1, Triage: true, Help: "paths per instruction"},
		{Flag: "seed", JSON: "seed", p: &s.Seed, Default: 1, Min: anySeed, Triage: true, Help: "exploration seed"},
		{Flag: "workers", JSON: "workers", p: &s.Workers, Default: SurfaceWorkers, Min: 1, Triage: true, Help: "parallel workers; never changes the report (0 = one per CPU)"},
		{Flag: "explore-workers", JSON: "explore_workers", p: &s.ExploreWorkers, Triage: true, Help: "workers inside each instruction's symbolic exploration (0 or 1 = sequential; never changes the report)"},
		{Flag: "maxsteps", JSON: "max_steps", p: &s.MaxSteps, Triage: true, Help: "per-path IR step cap (0 = default)"},
		{Flag: "resume", JSON: "resume", p: &s.Resume, Triage: true, Help: "also cache and reuse per-test execution outcomes"},
		{Flag: "no-cache", JSON: "no_cache", p: &s.NoCache, Triage: true, Help: "ignore cached artifacts (still refreshes the corpus)"},
		{Flag: "test-steps", JSON: "test_max_steps", p: &s.TestMaxSteps, Triage: true, Help: "per-test emulator step budget (0 = default)"},
		{Flag: "test-timeout", JSON: "test_timeout_ms", p: &s.TestTimeoutMS, MS: true, Help: "per-test wall-clock budget, a `duration` in whole milliseconds (0 = unlimited)"},
		{Flag: "stage-timeout", JSON: "stage_timeout_ms", p: &s.StageTimeoutMS, MS: true, Help: "per-stage deadline, a `duration` in whole milliseconds; units still queued at it are skipped and ledgered as degraded (0 = unlimited)"},
		{Flag: "hybrid-budget", JSON: "hybrid_budget", p: &s.HybridBudget, Help: "mutated-input executions of the coverage-guided hybrid stage after comparison (0 = off)"},
		{Flag: "hybrid-seed", JSON: "hybrid_seed", p: &s.HybridSeed, Min: anySeed, Help: "hybrid fuzzer RNG seed (0 = -seed)"},
		{Flag: "vote", JSON: "vote", p: &s.Vote, Help: "run every test on lento too and vote the three emulators into per-test verdicts with a blame column"},
	}
}

// AddFlags registers the spec's knobs on fs, bound to s; with triage set,
// only those `pokeemu triage` shares. An MS knob's flag takes a duration in
// whole milliseconds, the unit pokeemud's field carries.
func (s *Spec) AddFlags(fs *flag.FlagSet, triage bool) {
	for _, k := range s.Knobs() {
		if triage && !k.Triage {
			continue
		}
		if k.Default > 0 {
			k.Help = fmt.Sprintf("%s (0 = %d)", k.Help, k.Default)
		}
		switch p := k.p.(type) {
		case *bool:
			fs.BoolVar(p, k.Flag, *p, k.Help)
		case *int:
			fs.IntVar(p, k.Flag, *p, k.Help)
		case *int64:
			if !k.MS {
				fs.Int64Var(p, k.Flag, *p, k.Help)
				continue
			}
			fs.Func(k.Flag, k.Help, func(v string) error {
				d, err := time.ParseDuration(v)
				if err == nil && d%time.Millisecond != 0 {
					err = errors.New("not a whole number of milliseconds")
				}
				*p = d.Milliseconds()
				return err
			})
		case *[]string:
			fs.Func(k.Flag, k.Help, func(v string) error {
				*p = nil
				if v != "" {
					*p = strings.Split(v, ",")
				}
				return nil
			})
		}
	}
}

// Config normalizes s in place, so it echoes the effective values, and
// returns the campaign configuration it describes: a zero takes its knob's
// default (workers: the surface's worker count, the argument), every knob
// must lie in its bounds, and no handlers means every handler. The CLI and
// pokeemud both call it, so they accept the same values and build equal
// Configs; the caller adds the corpus, the baseline and the progress hook.
func (s *Spec) Config(workers int) (Config, error) {
	for _, k := range s.Knobs() {
		if k.Default == SurfaceWorkers {
			k.Default = int64(workers)
		}
		var err error
		switch p := k.p.(type) {
		case *int:
			err = bound(k, p)
		case *int64:
			err = bound(k, p)
		}
		if err != nil {
			return Config{}, err
		}
	}
	if len(s.Handlers) == 0 {
		s.Handlers = nil
	}
	return Config{
		MaxPathsPerInstr: s.PathCap,
		MaxInstrs:        s.MaxInstrs,
		Handlers:         s.Handlers,
		Seed:             s.Seed,
		Workers:          s.Workers,
		ExploreWorkers:   s.ExploreWorkers,
		MaxSteps:         s.MaxSteps,
		NoCache:          s.NoCache,
		Resume:           s.Resume,
		TestMaxSteps:     s.TestMaxSteps,
		TestTimeout:      time.Duration(s.TestTimeoutMS) * time.Millisecond,
		StageTimeout:     time.Duration(s.StageTimeoutMS) * time.Millisecond,
		Vote:             s.Vote,
		Hybrid:           HybridConfig{Budget: s.HybridBudget, Seed: s.HybridSeed},
	}, nil
}

// bound applies k's default to a zero *p and checks k's bounds; an MS
// knob must also fit a time.Duration.
func bound[T int | int64](k Knob, p *T) error {
	const maxMS = math.MaxInt64 / int64(time.Millisecond)
	if *p == 0 {
		*p = T(k.Default)
	}
	switch v := int64(*p); {
	case v < k.Min:
		return fmt.Errorf("campaign: %s (-%s) must be >= %d (got %d)", k.JSON, k.Flag, k.Min, v)
	case k.MS && v > maxMS:
		return fmt.Errorf("campaign: %s (-%s) must be <= %d (got %d)", k.JSON, k.Flag, maxMS, v)
	}
	return nil
}
