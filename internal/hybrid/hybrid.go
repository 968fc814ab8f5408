// Package hybrid implements the coverage-guided mutational fuzzer that
// hybrid campaigns marry to symbolic exploration. Symex-generated tests
// seed a corpus; deterministic seeded mutation over their initializer bytes
// generates candidate inputs; each candidate runs on the instrumented Hi-Fi
// interpreter and is deduplicated by coverage signature; novel inputs run
// the full differential trio. Inputs that reach new coverage without
// diverging ("promising") are handed back to symex as concrete path seeds
// for targeted exploration — the loop that opens the frontier past the
// solver budget the paper's pure pipeline stops at.
//
// Determinism contract (the campaign's canonical-merge discipline): each
// round's job list is a pure function of the RNG seed, the round number,
// and the corpus state at round start; jobs execute on an index-sliced pool
// and merge in index order. The result — corpus, statistics, divergences —
// is byte-identical for every worker count.
package hybrid

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"

	"pokeemu/internal/core"
	"pokeemu/internal/coverage"
	"pokeemu/internal/diff"
	"pokeemu/internal/emu"
	"pokeemu/internal/faults"
	"pokeemu/internal/fidelis"
	"pokeemu/internal/harness"
	"pokeemu/internal/machine"
	"pokeemu/internal/testgen"
	"pokeemu/internal/x86"
	"pokeemu/internal/x86/sem"
)

// Version identifies the fuzzer algorithm (operators, scheduling, reseed);
// it participates in corpus cache keys so stale cached stages re-run.
const Version = 1

// Defaults for the knobs a zero Config leaves unset.
const (
	DefaultRoundSize   = 16
	DefaultReseedPaths = 4
	DefaultMaxReseeds  = 2
	rareEdgeMax        = 2 // an edge ≤ this many inputs have hit is "rare"
	rareWeight         = 4 // scheduling weight per rare edge an input holds
)

// Config tunes one fuzzing stage.
type Config struct {
	Budget   int   // mutated-input executions to spend (required > 0)
	Seed     int64 // RNG seed; the stage is a pure function of it
	Workers  int   // mutator pool size; never affects the result
	MaxSteps int   // per-execution step budget (0 = harness default)

	RoundSize   int // jobs planned per scheduling round (0 = DefaultRoundSize)
	ReseedPaths int // guided-exploration path cap per promising input (0 = DefaultReseedPaths)
	MaxReseeds  int // promising inputs handed back to symex (0 = DefaultMaxReseeds)

	Image *machine.Memory // shared baseline image
	Boot  []byte          // baseline initializer (testgen.BaselineInit)

	// Explorer lazily supplies the guided-exploration engine for the reseed
	// phase; nil disables reseeding. Instrs are the campaign's unique
	// instructions, used to resolve a promising input's test instruction
	// back to its exploration identity.
	Explorer func() (*core.Explorer, error)
	Instrs   []*core.UniqueInstr
}

// Seed is one symex-generated test seeding the fuzzer, with the campaign's
// compare verdict attached (so the seed evaluation pass costs one
// instrumented run, not a trio re-run).
type Seed struct {
	ID       string
	Handler  string
	Mnemonic string
	Prog     []byte
	TestOff  int
	Divs     []Divergence // campaign-observed divergences of this test
}

// Input is one corpus entry: a seed or an admitted (novel-signature)
// mutation, with its coverage identity.
type Input struct {
	ID       string `json:"id"`
	Parent   string `json:"parent,omitempty"` // corpus input this was mutated from
	Op       string `json:"op,omitempty"`     // mutation operator ("" for seeds)
	Handler  string `json:"handler"`
	Mnemonic string `json:"mnemonic"`
	Prog     []byte `json:"prog"`
	TestOff  int    `json:"test_off"`

	Sig       uint64 `json:"sig"`      // coverage signature (dedup key)
	EdgeCount int    `json:"edges"`    // distinct edges this input hit
	NewBits   int    `json:"new_bits"` // new (edge,bucket) classes at admission
	Divergent bool   `json:"divergent,omitempty"`
	Promising bool   `json:"promising,omitempty"` // new coverage, no divergence

	edges []uint32 // runtime-only: edge list for rarity scheduling
}

// Divergence is one implementation disagreement found on a corpus input.
type Divergence struct {
	InputID   string `json:"input_id"`
	Handler   string `json:"handler"`
	Mnemonic  string `json:"mnemonic"`
	Impl      string `json:"impl"` // emulator that disagreed with hardware
	Signature string `json:"signature"`
}

// HandlerCoverage is the per-handler coverage rollup for -timing.
type HandlerCoverage struct {
	Handler string `json:"handler"`
	Edges   int    `json:"edges"` // distinct edges across the handler's inputs
	Sigs    int    `json:"sigs"`  // distinct coverage signatures
}

// Stats aggregates one stage deterministically.
type Stats struct {
	Seeds          int `json:"seeds"`
	SeedSignatures int `json:"seed_signatures"` // distinct sigs among seeds (the pure-symex yield)
	Execs          int `json:"execs"`           // mutated executions spent
	Skipped        int `json:"skipped"`         // mutation jobs skipped (injected faults)
	Deduped        int `json:"deduped"`         // candidates dropped by signature
	NewCoverage    int `json:"new_coverage"`    // admitted inputs with new (edge,bucket) bits
	Divergent      int `json:"divergent"`       // admitted mutated inputs that diverged
	Promising      int `json:"promising"`
	Reseeds        int `json:"reseeds"`      // promising inputs handed back to symex
	ReseedTests    int `json:"reseed_tests"` // guided-exploration tests executed
	Signatures     int `json:"signatures"`   // distinct signatures in the final corpus
	Edges          int `json:"edges"`        // distinct edges in the global map

	PerHandler []HandlerCoverage `json:"per_handler,omitempty"`
}

// Result is one stage's complete, deterministic outcome.
type Result struct {
	Inputs      []*Input     `json:"inputs"`
	Divergences []Divergence `json:"divergences,omitempty"`
	Stats       Stats        `json:"stats"`
}

// SeedsSHA content-hashes the executable seed set for the corpus cache key.
func SeedsSHA(boot []byte, seeds []Seed) string {
	h := sha256.New()
	h.Write(boot)
	for _, s := range seeds {
		h.Write([]byte{0xff})
		h.Write([]byte(s.ID))
		h.Write([]byte{0xff})
		h.Write(s.Prog)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// jobSeed derives one mutation job's RNG seed (splitmix-style) from the
// stage seed and the job's (round, index) identity.
func jobSeed(seed int64, round, idx int) int64 {
	h := uint64(seed)
	for _, v := range [...]uint64{uint64(round) + 1, uint64(idx) + 1} {
		h ^= v * 0x9e3779b97f4a7c15
		h ^= h >> 33
		h *= 0xff51afd7ed558ccd
		h ^= h >> 33
	}
	return int64(h)
}

// fuzzer is one stage's mutable state.
type fuzzer struct {
	cfg    Config
	budget harness.Budget
	global *coverage.Global
	sigs   map[uint64]bool
	byHand map[string]*handlerCov
	res    *Result

	// The trio's Lo-Fi and hardware factories live for the whole stage, as
	// in campaign.Run, so celer's translation-block cache and the hardware
	// oracle's shared program cache persist across candidates.
	celer, hardware harness.Factory

	// maps pools the 128 KiB coverage maps coverRun records into; each goes
	// back cleared, so a worker reuses one map across its runs.
	maps sync.Pool
}

// newFuzzer builds the state for one stage over a normalized cfg.
func newFuzzer(cfg Config) *fuzzer {
	return &fuzzer{
		cfg:      cfg,
		budget:   harness.Budget{MaxSteps: cfg.MaxSteps},
		global:   coverage.NewGlobal(),
		sigs:     make(map[uint64]bool),
		byHand:   make(map[string]*handlerCov),
		res:      &Result{},
		celer:    harness.CelerFactory(),
		hardware: harness.HardwareFactory(),
	}
}

type handlerCov struct {
	g    *coverage.Global
	sigs map[uint64]bool
}

// covRecord is one instrumented execution's coverage in compact form.
type covRecord struct {
	sig   uint64
	edges []uint32       // hit edges, ascending
	hits  []coverage.Hit // the same edges with their counters
}

// candidate is one job's output before the canonical merge.
type candidate struct {
	skipped bool
	parent  *Input
	op      string
	prog    []byte
	testOff int
	covRecord
	fidelis  *harness.Result
	handler  string
	mnemonic string
}

// Run executes one fuzzing stage over the seed corpus. The result is a
// pure function of (cfg minus Workers, seeds); ctx cancellation stops
// scheduling new rounds (the partial result is still canonically merged).
func Run(ctx context.Context, cfg Config, seeds []Seed) (*Result, error) {
	if cfg.Budget <= 0 {
		return nil, fmt.Errorf("hybrid: budget must be positive")
	}
	if cfg.Image == nil || cfg.Boot == nil {
		return nil, fmt.Errorf("hybrid: image and boot code required")
	}
	if cfg.RoundSize <= 0 {
		cfg.RoundSize = DefaultRoundSize
	}
	if cfg.ReseedPaths <= 0 {
		cfg.ReseedPaths = DefaultReseedPaths
	}
	if cfg.MaxReseeds < 0 {
		cfg.MaxReseeds = 0
	} else if cfg.MaxReseeds == 0 {
		cfg.MaxReseeds = DefaultMaxReseeds
	}
	f := newFuzzer(cfg)
	f.evalSeeds(ctx, seeds)
	if len(f.res.Inputs) > 0 {
		round := 0
		for f.res.Stats.Execs < cfg.Budget && ctx.Err() == nil {
			n := cfg.Budget - f.res.Stats.Execs
			if n > cfg.RoundSize {
				n = cfg.RoundSize
			}
			f.runRound(ctx, round, n)
			round++
		}
		f.reseed(ctx)
	}
	f.finalize()
	return f.res, nil
}

// coverRun executes one input on the instrumented Hi-Fi interpreter,
// recording into a pooled map that goes back cleared.
func (f *fuzzer) coverRun(prog []byte) (*covRecord, *harness.Result) {
	cov, _ := f.maps.Get().(*coverage.Map)
	if cov == nil {
		cov = coverage.New()
	}
	r := harness.RunBootBudget(harness.CoverageFactory(cov), f.cfg.Image, f.cfg.Boot, prog, f.budget)
	rec := &covRecord{sig: cov.Signature(), edges: cov.Edges(), hits: cov.Hits()}
	cov.Reset()
	f.maps.Put(cov)
	return rec, r
}

// admit merges one novel-signature input into the corpus and all coverage
// accumulators; callers have already checked the signature is unseen.
func (f *fuzzer) admit(in *Input, hits []coverage.Hit) {
	f.sigs[in.Sig] = true
	_, newBits := f.global.AddInput(hits)
	in.NewBits = newBits
	if newBits > 0 {
		f.res.Stats.NewCoverage++
	}
	hc := f.byHand[in.Handler]
	if hc == nil {
		hc = &handlerCov{g: coverage.NewGlobal(), sigs: make(map[uint64]bool)}
		f.byHand[in.Handler] = hc
	}
	hc.g.AddInput(hits)
	hc.sigs[in.Sig] = true
	f.res.Inputs = append(f.res.Inputs, in)
}

// evalSeeds runs every seed on the instrumented interpreter and admits the
// signature-distinct ones, carrying over the campaign's divergence verdicts.
func (f *fuzzer) evalSeeds(ctx context.Context, seeds []Seed) {
	f.res.Stats.Seeds = len(seeds)
	covs := make([]*covRecord, len(seeds))
	runPool(ctx, f.cfg.Workers, len(seeds), func(i int) {
		covs[i], _ = f.coverRun(seeds[i].Prog)
	})
	seen := make(map[uint64]bool)
	for i, s := range seeds {
		if covs[i] == nil {
			continue // canceled or crashed slot; deterministic only pre-cancel
		}
		// Every seed's divergence verdict is carried over — even a seed whose
		// coverage duplicates an earlier one — so the hybrid report reproduces
		// the campaign's full known-divergence set.
		f.res.Divergences = append(f.res.Divergences, s.Divs...)
		sig := covs[i].sig
		if !seen[sig] {
			seen[sig] = true
			f.res.Stats.SeedSignatures++
		}
		if f.sigs[sig] {
			continue
		}
		in := &Input{
			ID: s.ID, Handler: s.Handler, Mnemonic: s.Mnemonic,
			Prog: s.Prog, TestOff: s.TestOff,
			Sig: sig, EdgeCount: len(covs[i].edges),
			Divergent: len(s.Divs) > 0,
			edges:     covs[i].edges,
		}
		f.admit(in, covs[i].hits)
	}
}

// runRound plans, executes, and canonically merges one batch of n mutation
// jobs against the round-start corpus snapshot.
func (f *fuzzer) runRound(ctx context.Context, round, n int) {
	corpus := f.res.Inputs // immutable snapshot: jobs only read it
	// Rare-edge-favoring scheduler: an input's weight grows with the number
	// of edges few corpus inputs have reached.
	weights := make([]int, len(corpus))
	total := 0
	for i, in := range corpus {
		weights[i] = 1 + rareWeight*f.global.Rarity(in.edges, rareEdgeMax)
		total += weights[i]
	}
	pick := func(rng *rand.Rand) *Input {
		r := rng.Intn(total)
		for i, w := range weights {
			if r < w {
				return corpus[i]
			}
			r -= w
		}
		return corpus[len(corpus)-1]
	}

	cands := make([]*candidate, n)
	runPool(ctx, f.cfg.Workers, n, func(j int) {
		c := &candidate{skipped: true}
		cands[j] = c
		if err := faults.Hit(faults.HybridMutate, fmt.Sprintf("r%d#%d", round, j)); err != nil {
			return
		}
		rng := rand.New(rand.NewSource(jobSeed(f.cfg.Seed, round, j)))
		parent := pick(rng)
		donor := corpus[rng.Intn(len(corpus))]
		op := Ops[rng.Intn(len(Ops))]
		init := Mutate(rng, parent.Prog[:parent.TestOff], donor.Prog[:donor.TestOff], op)
		prog := append(init, parent.Prog[parent.TestOff:]...)
		c.parent, c.op = parent, op
		c.prog, c.testOff = prog, len(init)
		c.handler, c.mnemonic = parent.Handler, parent.Mnemonic
		rec, fi := f.coverRun(prog)
		c.covRecord, c.fidelis = *rec, fi
		c.skipped = false
	})

	// Canonical merge in job-index order: dedup by signature, then decide
	// which novel candidates go through the differential trio.
	var novel []*candidate
	var ids []string
	for j, c := range cands {
		f.res.Stats.Execs++
		if c == nil || c.skipped {
			f.res.Stats.Skipped++
			continue
		}
		if f.sigs[c.sig] {
			f.res.Stats.Deduped++
			continue
		}
		f.sigs[c.sig] = true // reserve; admit() sets it again harmlessly
		novel = append(novel, c)
		ids = append(ids, fmt.Sprintf("hyb:r%d#%d", round, j))
	}

	divs := make([][]Divergence, len(novel))
	runPool(ctx, f.cfg.Workers, len(novel), func(i int) {
		divs[i] = f.trio(ids[i], novel[i])
	})
	for i, c := range novel {
		in := &Input{
			ID: ids[i], Parent: c.parent.ID, Op: c.op,
			Handler: c.handler, Mnemonic: c.mnemonic,
			Prog: c.prog, TestOff: c.testOff,
			Sig: c.sig, EdgeCount: len(c.edges),
			Divergent: len(divs[i]) > 0,
			edges:     c.edges,
		}
		f.admit(in, c.hits)
		if in.Divergent {
			f.res.Stats.Divergent++
			f.res.Divergences = append(f.res.Divergences, divs[i]...)
		} else if in.NewBits > 0 {
			in.Promising = true
			f.res.Stats.Promising++
		}
	}
}

// trio completes the differential comparison for one candidate: the
// instrumented fidelis run already happened, so only the Lo-Fi emulator and
// the hardware oracle execute here.
func (f *fuzzer) trio(id string, c *candidate) []Divergence {
	ce := harness.RunBootBudget(f.celer, f.cfg.Image, f.cfg.Boot, c.prog, f.budget)
	hw := harness.RunBootBudget(f.hardware, f.cfg.Image, f.cfg.Boot, c.prog, f.budget)
	filter := diff.UndefFilterFor(c.handler)
	var out []Divergence
	for _, pair := range []struct {
		impl string
		r    *harness.Result
	}{{"fidelis", c.fidelis}, {"celer", ce}} {
		ds := diff.Compare(hw.Snapshot, pair.r.Snapshot, filter)
		if len(ds) == 0 {
			continue
		}
		d := diff.Difference{
			TestID: id, Handler: c.handler, Mnemonic: c.mnemonic,
			ImplA: "hardware", ImplB: pair.impl, Fields: ds,
		}
		out = append(out, Divergence{
			InputID: id, Handler: c.handler, Mnemonic: c.mnemonic,
			Impl: pair.impl, Signature: d.Signature(),
		})
	}
	return out
}

// finalize computes the corpus-wide statistics and the per-handler rollup.
func (f *fuzzer) finalize() {
	f.res.Stats.Signatures = len(f.sigs)
	f.res.Stats.Edges = f.global.Edges()
	hands := make([]string, 0, len(f.byHand))
	for h := range f.byHand {
		hands = append(hands, h)
	}
	sort.Strings(hands)
	for _, h := range hands {
		hc := f.byHand[h]
		f.res.Stats.PerHandler = append(f.res.Stats.PerHandler, HandlerCoverage{
			Handler: h, Edges: hc.g.Edges(), Sigs: len(hc.sigs),
		})
	}
}

// resolveInstr maps a corpus input's test-instruction bytes back to the
// campaign's unique-instruction identity for guided exploration.
func (f *fuzzer) resolveInstr(prog []byte, testOff int) *core.UniqueInstr {
	if testOff < 0 || testOff >= len(prog) {
		return nil
	}
	inst, err := x86.Decode(prog[testOff:])
	if err != nil {
		return nil
	}
	for _, u := range f.cfg.Instrs {
		if bytes.Equal(u.Repr, inst.Raw) {
			return u
		}
	}
	return nil
}

// reseed hands the first MaxReseeds promising inputs back to symex: replay
// the input concretely to the test instruction, read the Figure 3 variable
// assignment out of the paused machine, and run a small guided exploration
// radiating from that concrete path. Generated tests join the corpus like
// any other input.
func (f *fuzzer) reseed(ctx context.Context) {
	if f.cfg.Explorer == nil || f.cfg.MaxReseeds == 0 {
		return
	}
	var promising []*Input
	for _, in := range f.res.Inputs {
		if in.Promising {
			promising = append(promising, in)
		}
	}
	if len(promising) > f.cfg.MaxReseeds {
		promising = promising[:f.cfg.MaxReseeds]
	}
	if len(promising) == 0 {
		return
	}
	ex, err := f.cfg.Explorer()
	if err != nil || ex == nil {
		return
	}
	probe := ex.Probe()
	for _, in := range promising {
		if ctx.Err() != nil {
			return
		}
		u := f.resolveInstr(in.Prog, in.TestOff)
		if u == nil {
			continue
		}
		m := f.replayToTest(in.Prog, in.TestOff)
		if m == nil {
			continue
		}
		f.res.Stats.Reseeds++
		guide := probe.AssignmentFromMachine(m)
		res, err := ex.ExploreStateGuided(u, guide, f.cfg.ReseedPaths)
		if err != nil {
			continue
		}
		for k, tc := range res.Tests {
			p, err := testgen.Build(tc)
			if err != nil || !testgen.Verify(p, f.cfg.Image) {
				continue
			}
			f.res.Stats.ReseedTests++
			rec, fi := f.coverRun(p.Code)
			sig := rec.sig
			if f.sigs[sig] {
				f.res.Stats.Deduped++
				continue
			}
			id := fmt.Sprintf("%s~s%d", in.ID, k)
			c := &candidate{
				prog: p.Code, testOff: p.TestOffset, covRecord: *rec, fidelis: fi,
				handler: in.Handler, mnemonic: in.Mnemonic,
			}
			ds := f.trio(id, c)
			nin := &Input{
				ID: id, Parent: in.ID, Op: "reseed",
				Handler: in.Handler, Mnemonic: in.Mnemonic,
				Prog: p.Code, TestOff: p.TestOffset,
				Sig: sig, EdgeCount: len(c.edges),
				Divergent: len(ds) > 0,
				edges:     c.edges,
			}
			f.admit(nin, rec.hits)
			if nin.Divergent {
				f.res.Stats.Divergent++
				f.res.Divergences = append(f.res.Divergences, ds...)
			}
		}
	}
}

// replayToTest boots the input and steps the hardware-configuration Hi-Fi
// interpreter until control reaches the test instruction, returning the
// paused machine (nil when the mutated initializer faults or loops first).
func (f *fuzzer) replayToTest(prog []byte, testOff int) *machine.Machine {
	maxSteps := f.budget.MaxSteps
	if maxSteps == 0 {
		maxSteps = harness.DefaultMaxSteps
	}
	m := machine.NewBoot(f.cfg.Image)
	m.Mem.WriteBytes(machine.BootBase, f.cfg.Boot)
	m.Mem.WriteBytes(machine.CodeBase, prog)
	e := fidelis.NewWithConfig(m, sem.HardwareConfig)
	target := machine.CodeBase + uint32(testOff)
	for i := 0; i < maxSteps; i++ {
		if m.EIP == target {
			return m
		}
		if ev := e.Step(); ev.Kind != emu.EventNone {
			return nil
		}
	}
	return nil
}

// runPool executes task(0..n-1) on an index-sliced worker pool: each index
// runs exactly once, panics are contained to their slot, and cancellation
// stops new pulls. Merging stays with the caller, in index order — the
// same contract as the campaign's pool.
func runPool(ctx context.Context, workers, n int, task func(i int)) {
	if n == 0 {
		return
	}
	if workers < 1 {
		workers = 1
	}
	if workers > n {
		workers = n
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || ctx.Err() != nil {
					return
				}
				func() {
					defer func() { recover() }() // a crashed slot reads as skipped
					task(i)
				}()
			}
		}()
	}
	wg.Wait()
}
