package campaign

import (
	"reflect"
	"testing"

	"pokeemu/internal/solver"
)

// TestWorkerDeterminism is the campaign's determinism property: the Result
// summary and every deterministic field are byte-identical whether the
// pipeline runs sequentially or over eight workers. Timings and cache
// counters are the only run-dependent state, and they are rendered by
// TimingTable, never Summary.
func TestWorkerDeterminism(t *testing.T) {
	cfg := Config{
		MaxPathsPerInstr: 24,
		Handlers:         []string{"push_r", "leave", "add_rmv_rv", "shl_rmv_imm8"},
		Seed:             7,
	}
	cfg.Workers = 1
	seq, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 8
	par, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	if s1, s8 := seq.Summary(), par.Summary(); s1 != s8 {
		t.Errorf("summaries differ between Workers=1 and Workers=8:\n--- 1:\n%s\n--- 8:\n%s", s1, s8)
	}
	// ExploreWall is the one run-dependent InstrReport field (rendered only
	// by TimingTable); pin it before comparing.
	for _, r := range append(append([]*InstrReport(nil), seq.Reports...), par.Reports...) {
		r.ExploreWall = 0
	}
	if !reflect.DeepEqual(seq.Reports, par.Reports) {
		t.Error("per-instruction reports differ across worker counts")
	}
	if !reflect.DeepEqual(seq.RootCauses, par.RootCauses) {
		t.Error("root-cause clustering differs across worker counts")
	}
	if seq.TotalPaths != par.TotalPaths || seq.TotalTests != par.TotalTests ||
		seq.LoFiDiffTests != par.LoFiDiffTests || seq.HiFiDiffTests != par.HiFiDiffTests {
		t.Errorf("headline counts differ: %d/%d/%d/%d vs %d/%d/%d/%d",
			seq.TotalPaths, seq.TotalTests, seq.LoFiDiffTests, seq.HiFiDiffTests,
			par.TotalPaths, par.TotalTests, par.LoFiDiffTests, par.HiFiDiffTests)
	}
	if len(seq.Differences) != len(par.Differences) {
		t.Fatalf("difference lists: %d vs %d", len(seq.Differences), len(par.Differences))
	}
	for i := range seq.Differences {
		if !reflect.DeepEqual(seq.Differences[i], par.Differences[i]) {
			t.Errorf("difference %d diverges across worker counts", i)
			break
		}
	}
}

// TestFastPathDeterminism: the Lo-Fi direct-dispatch fast path is a pure
// execution-speed knob — the campaign report must be byte-identical with it
// on (the default) and off, at any worker count. The solver configuration is
// held fixed, so any drift here is a fast-path semantics bug, not a model
// change.
func TestFastPathDeterminism(t *testing.T) {
	cfg := Config{
		MaxPathsPerInstr: 24,
		Handlers:         []string{"push_r", "leave", "add_rmv_rv", "shl_rmv_imm8"},
		Seed:             7,
	}
	cfg.Workers = 1
	fast, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.NoFastPath = true
	cfg.Workers = 8
	slow, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sf, ss := fast.Summary(), slow.Summary(); sf != ss {
		t.Errorf("summaries differ between fast and slow dispatch:\n--- fast:\n%s\n--- slow:\n%s", sf, ss)
	}
	for _, r := range append(append([]*InstrReport(nil), fast.Reports...), slow.Reports...) {
		r.ExploreWall = 0
	}
	if !reflect.DeepEqual(fast.Reports, slow.Reports) {
		t.Error("per-instruction reports differ between fast and slow dispatch")
	}
	if !reflect.DeepEqual(fast.RootCauses, slow.RootCauses) {
		t.Error("root-cause clustering differs between fast and slow dispatch")
	}
	if !reflect.DeepEqual(fast.Differences, slow.Differences) {
		t.Error("difference lists diverge between fast and slow dispatch")
	}
}

// TestSolverBatchDeterminism: batching only changes which model the solver
// returns for satisfiable queries, never satisfiability itself — so a
// batched and an unbatched campaign must agree on every verdict-level
// headline even when the concrete test programs differ. The per-test
// artifacts are allowed to drift (that is why the corpus key carries the
// solver label); the divergence findings are not.
func TestSolverBatchDeterminism(t *testing.T) {
	cfg := Config{
		MaxPathsPerInstr: 24,
		Handlers:         []string{"push_r", "leave", "add_rmv_rv", "shl_rmv_imm8"},
		Seed:             7,
		Workers:          4,
	}
	batched, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Solver = solver.Options{NoBatch: true}
	plain, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if batched.TotalPaths != plain.TotalPaths {
		t.Errorf("path counts differ: batched %d, plain %d", batched.TotalPaths, plain.TotalPaths)
	}
	causes := func(r *Result) map[string]bool {
		m := make(map[string]bool)
		for c := range r.RootCauses {
			m[c] = true
		}
		return m
	}
	if !reflect.DeepEqual(causes(batched), causes(plain)) {
		t.Errorf("root-cause sets differ: batched %v, plain %v", causes(batched), causes(plain))
	}
}
