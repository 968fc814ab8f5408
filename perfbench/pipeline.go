package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"

	"pokeemu/internal/campaign"
	"pokeemu/internal/core"
	"pokeemu/internal/corpus"
	"pokeemu/internal/diff"
	"pokeemu/internal/equivcheck"
	"pokeemu/internal/harness"
	"pokeemu/internal/hybrid"
	"pokeemu/internal/machine"
	"pokeemu/internal/symex"
	"pokeemu/internal/testgen"
)

// The traced pipelines below replay campaign.Run's sequential (Workers=1)
// schedule call for call, with every call into a layer's public function
// wrapped in a span. They reassemble a campaign.Result so the traced run's
// Summary can be checked byte for byte against the untraced run's.

// configLabel is the campaign's default solver/semantics corpus label.
const configLabel = "bochs"

// campaignSpec is one campaign workload's configuration.
type campaignSpec struct {
	handlers     []string
	pathCap      int
	seed         int64
	corpusDir    string
	hybridBudget int
}

func (c campaignSpec) config() campaign.Config {
	return campaign.Config{
		MaxPathsPerInstr: c.pathCap,
		Handlers:         c.handlers,
		Seed:             c.seed,
		Workers:          1,
		ExploreWorkers:   1,
		CorpusDir:        c.corpusDir,
		Resume:           c.corpusDir != "",
		Hybrid:           campaign.HybridConfig{Budget: c.hybridBudget},
	}
}

func (c campaignSpec) instrKey(handler string) corpus.InstrKey {
	return corpus.InstrKey{
		Handler: handler, PathCap: c.pathCap, Seed: c.seed, Config: configLabel,
		SymexVersion: symex.SerialVersion, GenVersion: testgen.Version,
	}
}

func execKey(boot, prog []byte) corpus.ExecKey {
	return corpus.ExecKey{
		ProgSHA:  corpus.ExecProgSHA(boot, prog),
		MaxSteps: harness.DefaultMaxSteps,
		SnapVer:  machine.SnapVersion,
	}
}

var summaryKey = corpus.SummaryKey{Config: configLabel, SymexVersion: symex.SerialVersion}

// test is one runnable test program and its three executions.
type test struct {
	id, handler, mnemonic string
	prog                  []byte
	testOff               int
	fi, ce, hw            *harness.Result
}

// tracedInstrs runs instruction-set exploration and resolves the handler
// list the way campaign.Run does.
func tracedInstrs(t *tracer, res *campaign.Result, handlers []string) ([]*core.UniqueInstr, error) {
	t.call("core", "ExploreInstructionSet", "", func() { res.InstrSet = core.ExploreInstructionSet() })
	return selectInstrs(res.InstrSet, handlers)
}

// selectInstrs filters the unique instructions to handlers, keeping
// exploration order; an unknown handler is an error.
func selectInstrs(set *core.InstrSetResult, handlers []string) ([]*core.UniqueInstr, error) {
	want := make(map[string]bool, len(handlers))
	for _, h := range handlers {
		want[h] = true
	}
	var out []*core.UniqueInstr
	for _, u := range set.Unique {
		if want[u.Key()] {
			out = append(out, u)
			delete(want, u.Key())
		}
	}
	if len(want) > 0 {
		return nil, fmt.Errorf("unknown handler keys: %v", want)
	}
	return out, nil
}

// tracedCold is the cold campaign: explore, generate, execute, compare and
// (with a hybrid budget) fuzz. With crp set it also writes every corpus
// entry the campaign writes under Resume, priming crp for a warm run. It
// returns the steps each emulator executed.
func tracedCold(t *tracer, spec campaignSpec, crp *corpus.Corpus) (*campaign.Result, map[string]int64, error) {
	res := &campaign.Result{RootCauses: map[string]int{}}
	instrs, err := tracedInstrs(t, res, spec.handlers)
	if err != nil {
		return nil, nil, err
	}
	opts := symex.DefaultOptions()
	opts.MaxPaths = spec.pathCap
	opts.Seed = spec.seed
	opts.Workers = 1

	var ex *core.Explorer
	s := t.call("symex", "core.NewExplorer", "", func() { ex, err = core.NewExplorer(opts) })
	if err != nil {
		return nil, nil, err
	}
	s.Paths = int64(ex.SummaryPaths)
	res.SummaryPaths = ex.SummaryPaths
	if crp != nil {
		sums := ex.Summaries()
		ent := &corpus.SummaryEntry{
			Key: summaryKey, Paths: ex.SummaryPaths,
			Data: symex.EncodeSummary(sums.Data), SS: symex.EncodeSummary(sums.SS),
		}
		if err := tracedPut(t, "PutSummary", func() error { return crp.PutSummary(ent) }); err != nil {
			return nil, nil, err
		}
	}
	image := ex.Image()

	var tests []*test
	for _, u := range instrs {
		var er *core.ExploreResult
		s := t.call("symex", "core.Explorer.ExploreState", u.Key(), func() { er, err = ex.ExploreState(u) })
		if err != nil {
			return nil, nil, err
		}
		s.Paths, s.TreeNodes = int64(er.Stats.Paths), er.Stats.TreeNodes
		rep := &campaign.InstrReport{
			Key: u.Key(), Paths: len(er.Tests), Exhausted: er.Exhausted, Queries: er.Stats.SolverQueries,
		}
		var cached []corpus.CachedTest
		for _, tc := range er.Tests {
			var p *testgen.Program
			s := t.call("testgen", "Build", tc.ID, func() { p, err = testgen.Build(tc) })
			if err != nil {
				s.Fail = true
				rep.GenFailed++
				continue
			}
			var ok bool
			s = t.call("testgen", "Verify", tc.ID, func() { ok = testgen.Verify(p, image) })
			if !ok {
				s.Fail = true
				rep.InitFault++
				continue
			}
			rep.Generated++
			tests = append(tests, &test{id: tc.ID, handler: tc.Handler, mnemonic: tc.Mnemonic,
				prog: p.Code, testOff: p.TestOffset})
			cached = append(cached, corpus.CachedTest{
				ID: tc.ID, PathIndex: tc.PathIndex,
				Outcome: corpus.Outcome{
					Kind: uint8(tc.Outcome.Kind), Vector: tc.Outcome.Vector,
					ErrCode: tc.Outcome.ErrCode, HasErr: tc.Outcome.HasErr, Soft: tc.Outcome.Soft,
				},
				Diffs: tc.Diffs(), Prog: p.Code, TestOffset: p.TestOffset,
			})
		}
		if crp != nil {
			ent := &corpus.InstrEntry{
				Key: spec.instrKey(u.Key()), HandlerName: u.Spec.Name, Mnemonic: u.Spec.Mn,
				Paths: rep.Paths, Exhausted: rep.Exhausted, Queries: rep.Queries,
				Generated: rep.Generated, GenFailed: rep.GenFailed, InitFault: rep.InitFault,
				Tests: cached,
			}
			if err := tracedPut(t, "PutInstr", func() error { return crp.PutInstr(ent) }); err != nil {
				return nil, nil, err
			}
		}
		addReport(res, rep)
	}
	res.TotalTests = len(tests)

	boot := testgen.BaselineInit()
	budget := harness.Budget{MaxSteps: harness.DefaultMaxSteps}
	steps := map[string]int64{}
	emus := []struct {
		name string
		f    harness.Factory
		out  func(*test) **harness.Result
	}{
		{"fidelis", harness.FidelisFactory(), func(x *test) **harness.Result { return &x.fi }},
		{"celer", harness.CelerFactoryFast(true), func(x *test) **harness.Result { return &x.ce }},
		{"hwsim", harness.HardwareFactory(), func(x *test) **harness.Result { return &x.hw }},
	}
	for _, x := range tests {
		for _, e := range emus {
			var r *harness.Result
			s := t.call("harness", "RunBootBudget/"+e.name, x.id, func() {
				r = harness.RunBootBudget(e.f, image, boot, x.prog, budget)
			})
			s.Steps = int64(r.Steps)
			steps[r.Impl] += int64(r.Steps)
			*e.out(x) = r
		}
		if crp != nil {
			ent, err := encodeExec(execKey(boot, x.prog), x, image)
			if err != nil {
				return nil, nil, err
			}
			if err := tracedPut(t, "PutExec", func() error { return crp.PutExec(ent) }); err != nil {
				return nil, nil, err
			}
		}
	}
	tracedCompare(t, res, tests)
	// The executions are dead after comparison in campaign.Run too; keeping
	// them live through the hybrid stage would change its GC pacing.
	for _, x := range tests {
		x.fi, x.ce, x.hw = nil, nil, nil
	}

	if spec.hybridBudget > 0 {
		if err := tracedHybrid(t, res, spec, ex, instrs, tests, image, boot); err != nil {
			return nil, nil, err
		}
	}
	return res, steps, nil
}

func addReport(res *campaign.Result, rep *campaign.InstrReport) {
	res.Reports = append(res.Reports, rep)
	res.TotalPaths += rep.Paths
	res.ExploredInstrs++
	if rep.Exhausted {
		res.ExhaustedCount++
	}
}

func tracedPut(t *tracer, op string, put func() error) error {
	var err error
	s := t.call("corpus", op, "", func() { err = put() })
	s.Fail = err != nil
	return err
}

// encodeExec serializes a test's trio the way the campaign's -resume cache
// stores it: snapshots relative to the shared baseline image.
func encodeExec(key corpus.ExecKey, x *test, image *machine.Memory) (*corpus.ExecEntry, error) {
	ent := &corpus.ExecEntry{Key: key}
	for _, r := range []*harness.Result{x.fi, x.ce, x.hw} {
		var buf bytes.Buffer
		if err := r.Snapshot.WriteTo(&buf, image); err != nil {
			return nil, err
		}
		ent.Impls = append(ent.Impls, corpus.ExecOutcome{
			Impl: r.Impl, Steps: r.Steps, BaselineFault: r.BaselineFault, Snap: buf.Bytes(),
		})
	}
	return ent, nil
}

// tracedCompare diffs every test against the hardware oracle, lo-fi first.
func tracedCompare(t *tracer, res *campaign.Result, tests []*test) {
	for _, x := range tests {
		filter := diff.UndefFilterFor(x.handler)
		for _, side := range []struct {
			impl string
			r    *harness.Result
		}{{"celer", x.ce}, {"fidelis", x.fi}} {
			var ds []diff.FieldDiff
			t.call("diff", "Compare", x.id, func() { ds = diff.Compare(x.hw.Snapshot, side.r.Snapshot, filter) })
			if len(ds) == 0 {
				continue
			}
			if side.impl == "celer" {
				res.LoFiDiffTests++
			} else {
				res.HiFiDiffTests++
			}
			d := &diff.Difference{TestID: x.id, Handler: x.handler, Mnemonic: x.mnemonic,
				ImplA: "hardware", ImplB: side.impl, Fields: ds}
			res.Differences = append(res.Differences, d)
			res.RootCauses[diff.RootCause(d)]++
		}
	}
}

func tracedHybrid(t *tracer, res *campaign.Result, spec campaignSpec, ex *core.Explorer,
	instrs []*core.UniqueInstr, tests []*test, image *machine.Memory, boot []byte) error {
	divs := make(map[string][]hybrid.Divergence)
	for _, d := range res.Differences {
		divs[d.TestID] = append(divs[d.TestID], hybrid.Divergence{
			InputID: d.TestID, Handler: d.Handler, Mnemonic: d.Mnemonic,
			Impl: d.ImplB, Signature: d.Signature(),
		})
	}
	seeds := make([]hybrid.Seed, 0, len(tests))
	for _, x := range tests {
		seeds = append(seeds, hybrid.Seed{ID: x.id, Handler: x.handler, Mnemonic: x.mnemonic,
			Prog: x.prog, TestOff: x.testOff, Divs: divs[x.id]})
	}
	var hres *hybrid.Result
	var err error
	s := t.call("hybrid", "Run", "", func() {
		hres, err = hybrid.Run(context.Background(), hybrid.Config{
			Budget: spec.hybridBudget, Seed: spec.seed, Workers: 1,
			MaxSteps: harness.DefaultMaxSteps, Image: image, Boot: boot,
			Explorer: func() (*core.Explorer, error) { return ex, nil }, Instrs: instrs,
		}, seeds)
	})
	if err != nil {
		return err
	}
	s.Hybrid = &hres.Stats
	res.HybridUsed, res.HybridStats, res.HybridDivs = true, hres.Stats, hres.Divergences
	return nil
}

// tracedWarm is the warm Resume campaign against a primed corpus: every
// instruction and execution resolves from the corpus, so the run is
// corpus reads, snapshot decodes and comparison. It returns the executed
// step count each emulator recorded in the corpus.
func tracedWarm(t *tracer, spec campaignSpec) (*campaign.Result, map[string]int64, error) {
	var crp *corpus.Corpus
	var err error
	t.call("corpus", "Open", "", func() { crp, err = corpus.Open(spec.corpusDir) })
	if err != nil {
		return nil, nil, err
	}
	res := &campaign.Result{RootCauses: map[string]int{}}
	instrs, err := tracedInstrs(t, res, spec.handlers)
	if err != nil {
		return nil, nil, err
	}
	var tests []*test
	for _, u := range instrs {
		key := spec.instrKey(u.Key())
		var ent *corpus.InstrEntry
		var ok bool
		s := t.call("corpus", "GetInstr", u.Key(), func() { ent, ok = crp.GetInstr(key) })
		s.Hit, s.Bytes = ok, objectSize(crp, key.Hash())
		if !ok {
			return nil, nil, fmt.Errorf("warm corpus misses instruction %s", u.Key())
		}
		addReport(res, &campaign.InstrReport{Key: u.Key(), Paths: ent.Paths, Exhausted: ent.Exhausted,
			Generated: ent.Generated, GenFailed: ent.GenFailed, InitFault: ent.InitFault, Queries: ent.Queries})
		for _, ct := range ent.Tests {
			tests = append(tests, &test{id: ct.ID, handler: ent.HandlerName, mnemonic: ent.Mnemonic,
				prog: ct.Prog, testOff: ct.TestOffset})
		}
	}
	res.TotalTests = len(tests)
	var se *corpus.SummaryEntry
	var ok bool
	s := t.call("corpus", "GetSummary", "", func() { se, ok = crp.GetSummary(summaryKey) })
	s.Hit, s.Bytes = ok, objectSize(crp, summaryKey.Hash())
	if !ok {
		return nil, nil, fmt.Errorf("warm corpus misses the descriptor-parse summary")
	}
	res.SummaryPaths = se.Paths

	var image *machine.Memory
	t.call("machine", "BaselineImage", "", func() { image = machine.BaselineImage() })
	boot := testgen.BaselineInit()
	steps := map[string]int64{}
	for _, x := range tests {
		var key corpus.ExecKey
		t.call("corpus", "ExecProgSHA", x.id, func() { key = execKey(boot, x.prog) })
		var ent *corpus.ExecEntry
		s := t.call("corpus", "GetExec", x.id, func() { ent, ok = crp.GetExec(key) })
		s.Hit, s.Bytes = ok, objectSize(crp, key.Hash())
		if !ok || len(ent.Impls) != 3 {
			return nil, nil, fmt.Errorf("warm corpus misses execution %s", x.id)
		}
		rs := make([]*harness.Result, 3)
		for i, impl := range ent.Impls {
			var snap *machine.Snapshot
			s := t.call("machine", "ReadSnapshot", x.id, func() {
				snap, err = machine.ReadSnapshot(bytes.NewReader(impl.Snap), image)
			})
			s.Bytes = int64(len(impl.Snap))
			if err != nil {
				return nil, nil, err
			}
			rs[i] = &harness.Result{Impl: impl.Impl, Snapshot: snap, Steps: impl.Steps}
			steps[impl.Impl] += int64(impl.Steps)
		}
		x.fi, x.ce, x.hw = rs[0], rs[1], rs[2]
	}
	tracedCompare(t, res, tests)
	return res, steps, nil
}

// objectSize is the on-disk size of a corpus object (the documented
// <root>/objects/<hh>/<hash>.json layout); 0 when absent.
func objectSize(crp *corpus.Corpus, hash string) int64 {
	fi, err := os.Stat(filepath.Join(crp.Dir(), "objects", hash[:2], hash+".json"))
	if err != nil {
		return 0
	}
	return fi.Size()
}

// tracedEquiv checks each handler in its own equivcheck.Run call, so every
// handler gets a span, and reassembles the matrix report.
func tracedEquiv(t *tracer, handlers []string) (*equivcheck.Report, error) {
	rep := &equivcheck.Report{}
	for _, h := range handlers {
		var r *equivcheck.Report
		var err error
		s := t.call("equivcheck", "Run", h, func() {
			r, err = equivcheck.Run(equivOptions([]string{h}))
		})
		if err != nil {
			return nil, err
		}
		v := r.Handlers[0]
		s.Verdict = v.Verdict
		rep.Config, rep.PathCap, rep.Budget = r.Config, r.PathCap, r.Budget
		rep.Handlers = append(rep.Handlers, v)
		rep.Equiv += r.Equiv
		rep.Diverges += r.Diverges
		rep.Unknown += r.Unknown
		rep.Queries += r.Queries
	}
	return rep, nil
}
