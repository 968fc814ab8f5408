package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"maps"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"

	"pokeemu/internal/campaign"
	"pokeemu/internal/core"
	"pokeemu/internal/corpus"
	"pokeemu/internal/equivcheck"
)

// mixHandlers is the 14-handler mix of the repository's headline cold
// campaign (bench_test.go): every finding class plus ordinary instructions.
var mixHandlers = []string{
	"leave", "cmpxchg_rmv_rv", "iret", "rdmsr", "lfs",
	"mov_sreg_rm16", "add_rm8_imm8_alias", "push_r", "add_rmv_rv",
	"shl_rmv_imm8", "mov_rv_rmv", "mul_rmv", "enter", "pop_r",
}

// hybridHandlers is the hybrid-fuzz campaign's handler set.
var hybridHandlers = []string{"push_r", "leave", "add_rmv_rv", "iret", "lfs"}

// equivExcluded are the handlers equiv-proof leaves out: the two 32/16-bit
// signed divisions exhaust the conflict budget only after minutes, and
// idiv_rm8/16 duplicates idiv_rm8.
var equivExcluded = map[string]bool{"idiv_rmv": true, "idiv_rmv/16": true, "idiv_rm8/16": true}

// hybridSeed is the campaign (and so fuzzer) seed hybrid-fuzz runs on
// every workload seed. The fuzzer's cost is the steps its mutants happen to
// run, which no seed predicts: over workload seeds 1–10 hybrid-fuzz took
// 10.2–22.5 s, while one seed's inputs repeat within ±4% (seed 2: 12.2–13.3
// s over six runs, seed 1: 21.7–23.4 s over four). A spread that wide across
// seeds could not resolve the benchmark's bounds.
const hybridSeed = 1

const (
	mixPathCap    = 128
	hybridPathCap = 64
	hybridBudget  = 1024
	equivBudget   = 200
)

func equivOptions(handlers []string) equivcheck.Options {
	return equivcheck.Options{Handlers: handlers, Budget: equivBudget, Workers: 1}
}

// inputs is what a workload's set-up builds from the seed.
type inputs struct {
	spec     campaignSpec // campaign workloads
	handlers []string     // equiv-proof, in check order
	// primeSteps is the per-emulator step count the traced priming run
	// executed (mix-warm under --trace 1), cross-checked against the steps
	// the warm run reads back from the corpus.
	primeSteps map[string]int64
}

// outcome is one workload run's deterministic output and unit accounting.
type outcome struct {
	family    string                // expectation family shared by workloads with one report
	digest    string                // sha256 of the deterministic report text
	counts    map[string]int64      // pinned/recorded deterministic counts
	solver    *campaign.SolverStats // campaign solver counters the traced run must reproduce
	attempted int
	failed    int
	problems  []string // output-check failures the run found itself
	res       *campaign.Result
	steps     map[string]int64 // per-emulator steps (traced runs)
}

// workload is one benchmark workload.
type workload struct {
	name string
	// setupReps is how many times an untraced run repeats the set-up;
	// setup_s is the median.
	setupReps int
	// setup builds the inputs. dir is scratch space owned by this set-up
	// repetition; t is non-nil under --trace 1.
	setup  func(seed int64, dir string, t *tracer) (*inputs, error)
	run    func(in *inputs) (*outcome, error)
	traced func(in *inputs, t *tracer) (*outcome, error)
}

var workloads = []*workload{
	{
		name:      "mix-cold",
		setupReps: 5,
		setup: func(seed int64, _ string, _ *tracer) (*inputs, error) {
			return campaignInputs(seed, campaignSpec{handlers: mixHandlers, pathCap: mixPathCap})
		},
		run:    runCampaign("mix"),
		traced: tracedCampaign("mix"),
	},
	{
		name: "mix-warm",
		// Priming is a whole cold campaign with corpus writes (~17 s), so
		// it is repeated twice rather than five times to keep every run
		// well inside the benchmark's time budget.
		setupReps: 2,
		setup:     setupWarm,
		run: func(in *inputs) (*outcome, error) {
			o, err := runCampaign("mix")(in)
			if err == nil {
				checkWarm(o)
			}
			return o, err
		},
		traced: func(in *inputs, t *tracer) (*outcome, error) {
			res, steps, err := tracedWarm(t, in.spec)
			if err != nil {
				return nil, err
			}
			o := campaignOutcome("mix", res)
			o.steps = steps
			if in.primeSteps != nil && !maps.Equal(steps, in.primeSteps) {
				o.problems = append(o.problems, fmt.Sprintf(
					"corpus steps %v differ from the priming run's executed steps %v", steps, in.primeSteps))
			}
			return o, nil
		},
	},
	{
		name:      "equiv-proof",
		setupReps: 5,
		setup: func(seed int64, _ string, _ *tracer) (*inputs, error) {
			return equivInputs(seed)
		},
		run: func(in *inputs) (*outcome, error) {
			rep, err := equivcheck.Run(equivOptions(in.handlers))
			if err != nil {
				return nil, err
			}
			return equivOutcome(rep), nil
		},
		traced: func(in *inputs, t *tracer) (*outcome, error) {
			rep, err := tracedEquiv(t, in.handlers)
			if err != nil {
				return nil, err
			}
			return equivOutcome(rep), nil
		},
	},
	{
		name:      "hybrid-fuzz",
		setupReps: 5,
		setup: func(int64, string, *tracer) (*inputs, error) {
			return campaignInputs(hybridSeed, campaignSpec{
				handlers: hybridHandlers, pathCap: hybridPathCap, hybridBudget: hybridBudget,
			})
		},
		run:    runCampaign("hybrid"),
		traced: tracedCampaign("hybrid"),
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// campaignInputs seeds a campaign spec and validates its handler list
// against the explored instruction set, so a bad list fails in set-up.
func campaignInputs(seed int64, spec campaignSpec) (*inputs, error) {
	spec.seed = seed
	if _, err := selectInstrs(core.ExploreInstructionSet(), spec.handlers); err != nil {
		return nil, err
	}
	return &inputs{spec: spec}, nil
}

// equivInputs lists every unique handler but the excluded ones. Seed 1
// keeps exploration order; any other seed checks them in a seeded shuffle
// (verdict counts do not depend on the order, the rendered report does).
func equivInputs(seed int64) (*inputs, error) {
	var hs []string
	for _, u := range core.ExploreInstructionSet().Unique {
		if !equivExcluded[u.Key()] {
			hs = append(hs, u.Key())
		}
	}
	if seed != 1 {
		rand.New(rand.NewSource(seed)).Shuffle(len(hs), func(i, j int) { hs[i], hs[j] = hs[j], hs[i] })
	}
	return &inputs{handlers: hs}, nil
}

// setupWarm primes a fresh corpus with the cold mix campaign: with tracing
// off by campaign.Run in a child process, so set-up leaves the parent as
// it was; under --trace 1 by the traced cold pipeline, writing the corpus
// through the public Put* calls. Set-up ends with a sync: otherwise the
// kernel writes the ~140 MB primed corpus back during the timed runs.
func setupWarm(seed int64, dir string, t *tracer) (*inputs, error) {
	in, err := campaignInputs(seed, campaignSpec{handlers: mixHandlers, pathCap: mixPathCap})
	if err != nil {
		return nil, err
	}
	in.spec.corpusDir = filepath.Join(dir, "corpus")
	if t == nil {
		self, err := os.Executable()
		if err != nil {
			return nil, err
		}
		cmd := exec.Command(self, "--prime", in.spec.corpusDir, "--seed", strconv.FormatInt(seed, 10))
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("priming the warm corpus: %w", err)
		}
		syscall.Sync()
		return in, nil
	}
	crp, err := corpus.Open(in.spec.corpusDir)
	if err != nil {
		return nil, err
	}
	_, end := t.open("setup", "prime", "")
	_, steps, err := tracedCold(t, in.spec, crp)
	end()
	if err != nil {
		return nil, err
	}
	in.primeSteps = steps
	syscall.Sync()
	return in, nil
}

// prime is the child-process half of setupWarm.
func prime(dir string, seed int64) error {
	spec := campaignSpec{handlers: mixHandlers, pathCap: mixPathCap, seed: seed, corpusDir: dir}
	res, err := campaign.Run(spec.config())
	if err != nil {
		return err
	}
	if n := res.Degraded.Total(); n > 0 {
		return fmt.Errorf("priming run degraded %d units", n)
	}
	return nil
}

func runCampaign(family string) func(*inputs) (*outcome, error) {
	return func(in *inputs) (*outcome, error) {
		res, err := campaign.Run(in.spec.config())
		if err != nil {
			return nil, err
		}
		o := campaignOutcome(family, res)
		s := res.Solver
		s.InternHits, s.InternMisses = 0, 0
		o.solver = &s
		return o, nil
	}
}

func tracedCampaign(family string) func(*inputs, *tracer) (*outcome, error) {
	return func(in *inputs, t *tracer) (*outcome, error) {
		res, steps, err := tracedCold(t, in.spec, nil)
		if err != nil {
			return nil, err
		}
		o := campaignOutcome(family, res)
		o.steps = steps
		return o, nil
	}
}

// checkWarm requires a 100% hit rate, so mix-warm never silently measures
// a cold run.
func checkWarm(o *outcome) {
	c := o.res.Cache
	if c.InstrMisses != 0 || c.ExecMisses != 0 || !c.SummaryHit {
		o.problems = append(o.problems, fmt.Sprintf(
			"warm run missed the corpus: %d instruction and %d execution misses, summary hit %v",
			c.InstrMisses, c.ExecMisses, c.SummaryHit))
	}
}

func campaignOutcome(family string, res *campaign.Result) *outcome {
	o := &outcome{
		family: family,
		digest: digest(res.Summary()),
		counts: map[string]int64{
			"paths": int64(res.TotalPaths), "tests": int64(res.TotalTests),
			"lofi_diff_tests": int64(res.LoFiDiffTests), "hifi_diff_tests": int64(res.HiFiDiffTests),
		},
		attempted: len(res.Reports) + res.TotalTests + res.HybridStats.Execs,
		failed:    res.Degraded.Total(),
		res:       res,
	}
	if res.HybridUsed {
		st := res.HybridStats
		for k, v := range map[string]int{
			"hybrid.seeds": st.Seeds, "hybrid.seed_signatures": st.SeedSignatures,
			"hybrid.execs": st.Execs, "hybrid.skipped": st.Skipped, "hybrid.deduped": st.Deduped,
			"hybrid.new_coverage": st.NewCoverage, "hybrid.divergent": st.Divergent,
			"hybrid.promising": st.Promising, "hybrid.reseeds": st.Reseeds,
			"hybrid.reseed_tests": st.ReseedTests, "hybrid.signatures": st.Signatures,
			"hybrid.edges": st.Edges,
		} {
			o.counts[k] = int64(v)
		}
	}
	return o
}

func equivOutcome(rep *equivcheck.Report) *outcome {
	o := &outcome{
		family: "equiv",
		digest: digest(rep.Render()),
		counts: map[string]int64{
			"equiv": int64(rep.Equiv), "diverges": int64(rep.Diverges),
			"unknown": int64(rep.Unknown), "queries": rep.Queries,
		},
		attempted: len(rep.Handlers),
	}
	for _, v := range rep.Handlers {
		if strings.HasPrefix(v.Stage, "panic:") {
			o.failed++
		}
	}
	return o
}

func digest(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:])
}
