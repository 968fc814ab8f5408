package hybrid

import (
	"context"
	"encoding/json"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"pokeemu/internal/core"
	"pokeemu/internal/faults"
	"pokeemu/internal/machine"
	"pokeemu/internal/symex"
	"pokeemu/internal/testgen"
)

// fixtureHandlers is the small gate-handler subset every test fuzzes over;
// the same set the campaign goldens use.
var fixtureHandlers = map[string]bool{"push_r": true, "leave": true, "add_rmv_rv": true}

var fixOnce sync.Once
var fix struct {
	ex     *core.Explorer
	instrs []*core.UniqueInstr
	image  *machine.Memory
	boot   []byte
	seeds  []Seed
	err    error
}

// fixture builds one shared explorer and seed corpus (symbolic exploration
// is the expensive part; every test reuses it).
func fixture(t *testing.T) {
	t.Helper()
	fixOnce.Do(func() {
		is := core.ExploreInstructionSet()
		opts := symex.DefaultOptions()
		opts.MaxPaths = 6
		opts.Seed = 1
		ex, err := core.NewExplorer(opts)
		if err != nil {
			fix.err = err
			return
		}
		fix.ex = ex
		fix.image = ex.Image()
		fix.boot = testgen.BaselineInit()
		for _, u := range is.Unique {
			if !fixtureHandlers[u.Key()] {
				continue
			}
			fix.instrs = append(fix.instrs, u)
			er, err := ex.ExploreState(u)
			if err != nil {
				fix.err = err
				return
			}
			for _, tc := range er.Tests {
				p, err := testgen.Build(tc)
				if err != nil || !testgen.Verify(p, fix.image) {
					continue
				}
				fix.seeds = append(fix.seeds, Seed{
					ID: tc.ID, Handler: tc.Handler, Mnemonic: tc.Mnemonic,
					Prog: p.Code, TestOff: p.TestOffset,
				})
			}
		}
	})
	if fix.err != nil {
		t.Fatalf("fixture: %v", fix.err)
	}
	if len(fix.seeds) == 0 {
		t.Fatal("fixture produced no seeds")
	}
}

func baseConfig(workers int) Config {
	return Config{
		Budget:  48,
		Seed:    7,
		Workers: workers,
		Image:   fix.image,
		Boot:    fix.boot,
	}
}

func TestRunErrors(t *testing.T) {
	if _, err := Run(context.Background(), Config{}, nil); err == nil {
		t.Error("zero budget: want error")
	}
	if _, err := Run(context.Background(), Config{Budget: 4}, nil); err == nil {
		t.Error("missing image: want error")
	}
}

func TestRunEmptySeeds(t *testing.T) {
	fixture(t)
	res, err := Run(context.Background(), baseConfig(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Execs != 0 || len(res.Inputs) != 0 {
		t.Errorf("empty seed corpus must not fuzz: %+v", res.Stats)
	}
}

// TestCoverageBeyondSeeds is the headline acceptance property: a seeded
// hybrid run over the gate handlers reaches strictly more distinct coverage
// signatures than the pure-symex seed corpus, and keeps every seed
// divergence (nothing known is lost).
func TestCoverageBeyondSeeds(t *testing.T) {
	fixture(t)
	seeds := append([]Seed(nil), fix.seeds...)
	seeds[0].Divs = []Divergence{{InputID: seeds[0].ID, Handler: seeds[0].Handler,
		Mnemonic: seeds[0].Mnemonic, Impl: "celer", Signature: "sig-known"}}
	res, err := Run(context.Background(), baseConfig(4), seeds)
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.Execs != 48 {
		t.Errorf("Execs = %d, want the full budget 48", st.Execs)
	}
	if st.Signatures <= st.SeedSignatures {
		t.Errorf("hybrid corpus has %d signatures, seeds alone %d: fuzzing found no new coverage",
			st.Signatures, st.SeedSignatures)
	}
	if st.Edges <= 0 || st.NewCoverage <= 0 {
		t.Errorf("coverage accumulators empty: %+v", st)
	}
	found := false
	for _, d := range res.Divergences {
		if d.Signature == "sig-known" {
			found = true
		}
	}
	if !found {
		t.Error("seed divergence verdict was dropped")
	}
	if len(st.PerHandler) == 0 {
		t.Error("per-handler coverage rollup missing")
	}
	for i := 1; i < len(st.PerHandler); i++ {
		if st.PerHandler[i-1].Handler >= st.PerHandler[i].Handler {
			t.Error("per-handler rollup not sorted")
		}
	}
	for _, in := range res.Inputs {
		if in.Op != "" && len(in.Prog) > in.TestOff {
			continue
		}
		if in.TestOff > len(in.Prog) {
			t.Errorf("input %s: test offset %d beyond program (%d bytes)", in.ID, in.TestOff, len(in.Prog))
		}
	}
}

// TestRunDeterministic pins the worker-count independence contract: the
// whole Result — corpus, stats, divergences — is byte-identical for
// Workers=1 and Workers=8.
func TestRunDeterministic(t *testing.T) {
	fixture(t)
	run := func(workers int) []byte {
		res, err := Run(context.Background(), baseConfig(workers), fix.seeds)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.MarshalIndent(res, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	one := run(1)
	eight := run(8)
	if string(one) != string(eight) {
		t.Errorf("Workers=1 vs Workers=8 results differ:\n--- 1:\n%s\n--- 8:\n%s", one, eight)
	}
}

// TestFaultSkip pins the chaos contract at the hybrid.mutate point: every
// job skips, the corpus stays seeds-only, and the skip counts are
// deterministic for any worker count.
func TestFaultSkip(t *testing.T) {
	fixture(t)
	if _, err := faults.ArmSpec("hybrid.mutate:err"); err != nil {
		t.Fatal(err)
	}
	defer faults.Disarm()
	var stats [2]Stats
	for i, workers := range []int{1, 4} {
		res, err := Run(context.Background(), baseConfig(workers), fix.seeds)
		if err != nil {
			t.Fatal(err)
		}
		stats[i] = res.Stats
		if res.Stats.Skipped != res.Stats.Execs || res.Stats.Execs != 48 {
			t.Errorf("workers=%d: skipped %d of %d execs, want all 48",
				workers, res.Stats.Skipped, res.Stats.Execs)
		}
		if got, want := len(res.Inputs), res.Stats.SeedSignatures; got != want {
			t.Errorf("workers=%d: corpus grew to %d under total mutation failure, want %d seeds",
				workers, got, want)
		}
	}
	stats[0].PerHandler, stats[1].PerHandler = nil, nil
	if !reflect.DeepEqual(stats[0], stats[1]) {
		t.Errorf("degraded stats differ across worker counts:\n%+v\n%+v", stats[0], stats[1])
	}
}

// TestReseedDirect drives the symex hand-back in isolation: a promising
// corpus input is replayed to its test instruction, probed, and guided
// exploration contributes new corpus inputs tagged Op="reseed".
func TestReseedDirect(t *testing.T) {
	fixture(t)
	f := newFuzzer(Config{
		Budget: 1, Image: fix.image, Boot: fix.boot,
		ReseedPaths: 2, MaxReseeds: 1,
		Explorer: func() (*core.Explorer, error) { return fix.ex, nil },
		Instrs:   fix.instrs,
	})
	s := fix.seeds[0]
	rec, fi := f.coverRun(s.Prog)
	if fi.Snapshot == nil {
		t.Fatal("seed run produced no snapshot")
	}
	in := &Input{
		ID: s.ID, Handler: s.Handler, Mnemonic: s.Mnemonic,
		Prog: s.Prog, TestOff: s.TestOff,
		Sig: rec.sig, EdgeCount: len(rec.edges),
		Promising: true, edges: rec.edges,
	}
	f.admit(in, rec.hits)
	f.reseed(context.Background())
	if f.res.Stats.Reseeds != 1 {
		t.Fatalf("Reseeds = %d, want 1 (replay or instruction resolution failed)", f.res.Stats.Reseeds)
	}
	if f.res.Stats.ReseedTests == 0 {
		t.Fatal("guided exploration produced no tests")
	}
	reseeded := 0
	for _, ri := range f.res.Inputs {
		if ri.Op == "reseed" {
			reseeded++
			if ri.Parent != in.ID {
				t.Errorf("reseed input %s has parent %q, want %q", ri.ID, ri.Parent, in.ID)
			}
		}
	}
	if reseeded == 0 && f.res.Stats.Deduped == 0 {
		t.Error("reseed tests neither admitted nor deduped")
	}
}

// TestRunWithReseed runs the full loop with the symex hand-back enabled;
// the result must stay deterministic across worker counts.
func TestRunWithReseed(t *testing.T) {
	fixture(t)
	run := func(workers int) *Result {
		cfg := baseConfig(workers)
		cfg.Budget = 32
		cfg.ReseedPaths = 2
		cfg.MaxReseeds = 1
		cfg.Explorer = func() (*core.Explorer, error) { return fix.ex, nil }
		cfg.Instrs = fix.instrs
		res, err := Run(context.Background(), cfg, fix.seeds)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(1), run(8)
	aj, _ := json.Marshal(a)
	bj, _ := json.Marshal(b)
	if string(aj) != string(bj) {
		t.Error("reseed-enabled results differ across worker counts")
	}
}

func TestRunCanceled(t *testing.T) {
	fixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Run(ctx, baseConfig(2), fix.seeds)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Execs != 0 {
		t.Errorf("canceled run spent %d execs", res.Stats.Execs)
	}
}

func TestSeedsSHA(t *testing.T) {
	boot := []byte{1, 2, 3}
	a := []Seed{{ID: "a", Prog: []byte{4, 5}}}
	b := []Seed{{ID: "a", Prog: []byte{4, 6}}}
	if SeedsSHA(boot, a) == SeedsSHA(boot, b) {
		t.Error("program change did not change the hash")
	}
	if SeedsSHA(boot, a) == SeedsSHA([]byte{9}, a) {
		t.Error("boot change did not change the hash")
	}
	if SeedsSHA(boot, a) != SeedsSHA(boot, []Seed{{ID: "a", Prog: []byte{4, 5}}}) {
		t.Error("hash not stable")
	}
}

func TestJobSeed(t *testing.T) {
	seen := make(map[int64]bool)
	for r := 0; r < 8; r++ {
		for j := 0; j < 8; j++ {
			s := jobSeed(7, r, j)
			if seen[s] {
				t.Fatalf("jobSeed collision at r=%d j=%d", r, j)
			}
			seen[s] = true
		}
	}
	if jobSeed(1, 0, 0) == jobSeed(2, 0, 0) {
		t.Error("stage seed does not perturb job seeds")
	}
}

func TestRunPool(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 16} {
		var hits [10]atomic.Int32
		runPool(context.Background(), workers, len(hits), func(i int) {
			hits[i].Add(1)
			if i == 4 {
				panic("boom") // must stay contained to this slot
			}
		})
		for i := range hits {
			if hits[i].Load() != 1 {
				t.Errorf("workers=%d: index %d ran %d times", workers, i, hits[i].Load())
			}
		}
	}
	runPool(context.Background(), 2, 0, func(int) { t.Error("n=0 must not run tasks") })
}
