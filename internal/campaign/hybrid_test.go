package campaign

import (
	"path/filepath"
	"strings"
	"testing"
)

// hybridGoldenConfig is the seeded short hybrid campaign the `make hybrid`
// smoke gate pins: the golden-test handler set plus a small fuzzing budget.
func hybridGoldenConfig() Config {
	return Config{
		MaxPathsPerInstr: 24,
		Handlers:         []string{"push_r", "leave", "add_rmv_rv"},
		Seed:             1,
		Workers:          4,
		Hybrid:           HybridConfig{Budget: 32},
	}
}

// TestHybridSummaryGolden pins the hybrid campaign report byte for byte and
// asserts the two acceptance properties of the hybrid loop: the fuzzed
// corpus reaches strictly more distinct coverage signatures than the
// pure-symex seed corpus, and every divergence the symex pipeline found is
// reproduced in the hybrid stage's divergence set.
func TestHybridSummaryGolden(t *testing.T) {
	res, err := Run(hybridGoldenConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !res.HybridUsed {
		t.Fatal("hybrid stage did not run")
	}
	st := res.HybridStats
	if st.Execs != 32 {
		t.Errorf("hybrid spent %d execs, want the full budget 32", st.Execs)
	}
	if st.Signatures <= st.SeedSignatures {
		t.Errorf("hybrid corpus has %d signatures, seeds alone %d: fuzzing beat nothing",
			st.Signatures, st.SeedSignatures)
	}
	known := make(map[string]bool)
	for _, d := range res.HybridDivs {
		known[d.Impl+" "+d.Signature] = true
	}
	for _, d := range res.Differences {
		if !known[d.ImplB+" "+d.Signature()] {
			t.Errorf("campaign divergence %s %s not reproduced by the hybrid stage",
				d.ImplB, d.Signature())
		}
	}
	if len(st.PerHandler) == 0 {
		t.Error("per-handler coverage rollup missing")
	}
	if !strings.Contains(res.TimingTable(), "coverage ") {
		t.Error("timing table omits the per-handler coverage section")
	}
	compareGolden(t, filepath.Join("testdata", "summary_hybrid.golden"), []byte(res.Summary()))
}

// TestHybridSummaryDeterministic pins worker-count independence end to end:
// Workers 1 vs 8 (the hybrid stage's pool included) must render
// byte-identical reports.
func TestHybridSummaryDeterministic(t *testing.T) {
	var sums [2]string
	for i, workers := range []int{1, 8} {
		cfg := hybridGoldenConfig()
		cfg.Workers = workers
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sums[i] = res.Summary()
	}
	if sums[0] != sums[1] {
		t.Errorf("hybrid summaries differ between Workers=1 and Workers=8:\n--- 1 worker:\n%s\n--- 8 workers:\n%s",
			sums[0], sums[1])
	}
}

// TestHybridCorpusCache pins the stage-level cache: a warm re-run serves
// the whole fuzzing stage from the corpus and renders the identical report.
func TestHybridCorpusCache(t *testing.T) {
	dir := t.TempDir()
	cfg := hybridGoldenConfig()
	cfg.Handlers = []string{"push_r"}
	cfg.Hybrid.Budget = 16
	cfg.CorpusDir = dir
	cold, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Cache.FuzzHit {
		t.Error("cold run claims a fuzz cache hit")
	}
	warm, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Cache.FuzzHit {
		t.Error("warm run did not serve the hybrid stage from the corpus")
	}
	if cold.Summary() != warm.Summary() {
		t.Errorf("cached hybrid stage changed the report:\n--- cold:\n%s\n--- warm:\n%s",
			cold.Summary(), warm.Summary())
	}
}

func TestHybridValidate(t *testing.T) {
	cfg := Config{Hybrid: HybridConfig{Budget: -1}}
	if err := cfg.Validate(); err == nil {
		t.Error("negative hybrid budget accepted")
	}
}
