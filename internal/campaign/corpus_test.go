package campaign

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"pokeemu/internal/faults"
)

// smallConfig is a fast two-handler campaign used by the corpus and
// determinism tests.
func smallConfig() Config {
	return Config{
		MaxPathsPerInstr: 24,
		Handlers:         []string{"push_r", "add_rmv_rv"},
		Seed:             1,
	}
}

// TestCorpusColdWarm checks the tentpole contract: a warm re-run resolves
// every instruction (and the descriptor-parse summaries) from the corpus,
// skips exploration entirely, and still renders a byte-identical report.
func TestCorpusColdWarm(t *testing.T) {
	dir := t.TempDir()
	cfg := smallConfig()
	cfg.CorpusDir = dir

	cold, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !cold.Cache.Enabled {
		t.Fatal("cache not enabled with CorpusDir set")
	}
	if cold.Cache.InstrMisses != 2 || cold.Cache.InstrHits != 0 {
		t.Fatalf("cold run cache = %+v, want 2 misses", cold.Cache)
	}
	if cold.Cache.SummaryHit {
		t.Error("cold run claims a summary hit")
	}
	if cold.Cache.TestsGenerated == 0 {
		t.Fatal("cold run generated no tests")
	}

	warm, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Cache.InstrHits != 2 || warm.Cache.InstrMisses != 0 {
		t.Fatalf("warm run cache = %+v, want 2 hits", warm.Cache)
	}
	if warm.Cache.TestsCached != cold.Cache.TestsGenerated {
		t.Errorf("warm run loaded %d tests, cold generated %d",
			warm.Cache.TestsCached, cold.Cache.TestsGenerated)
	}
	// Fully warm: the explorer is never built, so exploration cost only the
	// corpus lookups.
	if !warm.Cache.SummaryHit {
		t.Error("warm run missed the descriptor-parse summaries")
	}
	if cs, ws := cold.Summary(), warm.Summary(); cs != ws {
		t.Errorf("cold and warm summaries differ:\ncold:\n%s\nwarm:\n%s", cs, ws)
	}
	if cold.SummaryPaths == 0 || cold.SummaryPaths != warm.SummaryPaths {
		t.Errorf("summary paths: cold %d, warm %d", cold.SummaryPaths, warm.SummaryPaths)
	}
}

// TestNoCacheForcesCold checks that -no-cache bypasses reads on a warm
// corpus but still refreshes it.
func TestNoCacheForcesCold(t *testing.T) {
	dir := t.TempDir()
	cfg := smallConfig()
	cfg.CorpusDir = dir
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	cfg.NoCache = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cache.InstrHits != 0 || res.Cache.InstrMisses != 2 {
		t.Errorf("no-cache run cache = %+v, want all misses", res.Cache)
	}
	if res.Cache.SummaryHit {
		t.Error("no-cache run used cached summaries")
	}
}

// TestResumeCachesExecution checks that -resume replays cached trio
// outcomes: the second run executes nothing and reports identically.
func TestResumeCachesExecution(t *testing.T) {
	dir := t.TempDir()
	cfg := smallConfig()
	cfg.CorpusDir = dir
	cfg.Resume = true

	first, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if first.Cache.ExecHits != 0 || first.Cache.ExecMisses != first.TotalTests {
		t.Fatalf("first run exec cache = %+v over %d tests", first.Cache, first.TotalTests)
	}
	second, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if second.Cache.ExecHits != second.TotalTests || second.Cache.ExecMisses != 0 {
		t.Fatalf("resumed run exec cache = %+v over %d tests", second.Cache, second.TotalTests)
	}
	if fs, ss := first.Summary(), second.Summary(); fs != ss {
		t.Errorf("resumed summary differs:\nfirst:\n%s\nsecond:\n%s", fs, ss)
	}
	if first.LoFiDiffTests != second.LoFiDiffTests || first.HiFiDiffTests != second.HiFiDiffTests {
		t.Errorf("diff counts changed across resume: %d/%d vs %d/%d",
			first.LoFiDiffTests, first.HiFiDiffTests,
			second.LoFiDiffTests, second.HiFiDiffTests)
	}
}

// TestWarmResumeWorkerDeterminism replays a primed exec cache with one
// and with eight workers. Eight workers decode, compare and release
// snapshots concurrently, recycling each other's pooled pages; the reports
// must still be byte-identical to each other and to the cold run, which
// `make race` checks under the race detector.
func TestWarmResumeWorkerDeterminism(t *testing.T) {
	cfg := Config{
		MaxPathsPerInstr: 24,
		Handlers:         []string{"push_r", "leave", "add_rm8_imm8_alias", "lfs"},
		Seed:             1,
		Workers:          1,
		CorpusDir:        t.TempDir(),
		Resume:           true,
	}
	cold, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(cold.Differences) == 0 {
		t.Fatal("the cold run found no differences to replay")
	}
	for _, workers := range []int{1, 8} {
		cfg.Workers = workers
		warm, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if warm.Cache.ExecHits != cold.TotalTests || warm.Cache.ExecMisses != 0 {
			t.Fatalf("Workers=%d: exec hits/misses %d/%d, want %d/0",
				workers, warm.Cache.ExecHits, warm.Cache.ExecMisses, cold.TotalTests)
		}
		if cs, ws := cold.Summary(), warm.Summary(); cs != ws {
			t.Errorf("Workers=%d warm summary differs from the cold one:\ncold:\n%s\nwarm:\n%s", workers, cs, ws)
		}
		if !reflect.DeepEqual(warm.Differences, cold.Differences) {
			t.Errorf("Workers=%d: warm differences differ from the cold run's", workers)
		}
		// The decode work is a deterministic count: one decode per
		// distinct snapshot of a trio, whatever the worker count.
		if c := warm.Cache; c.SnapshotsDecoded != warmSnapshotsDecoded || c.SnapshotsShared != warmSnapshotsShared {
			t.Errorf("Workers=%d: %d snapshots decoded, %d shared, want %d/%d",
				workers, c.SnapshotsDecoded, c.SnapshotsShared, warmSnapshotsDecoded, warmSnapshotsShared)
		}
		if !strings.Contains(warm.TimingTable(), fmt.Sprintf("cached snapshots: %d decoded, %d shared",
			warmSnapshotsDecoded, warmSnapshotsShared)) {
			t.Errorf("Workers=%d: the timing table lacks the snapshot counts:\n%s", workers, warm.TimingTable())
		}
	}
	if cold.Cache.SnapshotsDecoded != 0 || strings.Contains(cold.TimingTable(), "cached snapshots") {
		t.Error("the cold run counted cached snapshots")
	}
}

// The snapshot decode counts of TestWarmResumeWorkerDeterminism's warm
// run: its 3×tests snapshots split into distinct byte strings per trio
// and members equal to an earlier one.
const (
	warmSnapshotsDecoded = 154
	warmSnapshotsShared  = 107
)

// TestPanicIsolation checks that a crashing handler costs one fault record,
// not the campaign: the other instructions still produce tests, and the
// fault appears deterministically in the summary.
func TestPanicIsolation(t *testing.T) {
	if _, err := faults.ArmSpec("campaign.explore:key=push_r:panic=injected explorer crash"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(faults.Disarm)
	cfg := smallConfig()
	cfg.Workers = 4
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.InstrFaults != 1 {
		t.Fatalf("InstrFaults = %d, want 1", res.InstrFaults)
	}
	if len(res.Faults) != 1 || res.Faults[0].Stage != "explore" ||
		res.Faults[0].Key != "push_r" ||
		!strings.Contains(res.Faults[0].Err, "injected explorer crash") {
		t.Fatalf("fault record = %+v", res.Faults)
	}
	if res.TotalTests == 0 {
		t.Error("surviving instruction generated no tests")
	}
	if s := res.Summary(); !strings.Contains(s, "injected explorer crash") {
		t.Errorf("summary does not surface the fault:\n%s", s)
	}
}

// TestExecPanicIsolation checks the same for the execution stage: a test
// whose worker panics is excluded from diffing but the campaign completes.
func TestExecPanicIsolation(t *testing.T) {
	// Exactly one victim: the first execution to reach the fault point.
	if _, err := faults.ArmSpec("campaign.exec:n=1:panic=injected executor crash"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(faults.Disarm)
	cfg := smallConfig()
	cfg.Workers = 4
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.ExecFaults != 1 {
		t.Fatalf("ExecFaults = %d, want 1", res.ExecFaults)
	}
	if res.LoFiDiffTests == 0 && res.HiFiDiffTests == 0 && res.TotalTests < 2 {
		t.Error("no surviving tests were compared")
	}
}
