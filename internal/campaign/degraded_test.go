package campaign

// Silent-drop pin tests (the PR's bug-class audit): every place the
// pipeline used to swallow an error with `continue` or `_ =` must now
// land in the degraded ledger with an exact, pinned count.

import (
	"bytes"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"pokeemu/internal/corpus"
	"pokeemu/internal/faults"
	"pokeemu/internal/machine"
)

// TestCorpusWriteFailuresArePinned pins the exact ledger count for a cold
// run whose every corpus write fails: one descriptor-summary entry plus
// one instruction entry, formerly both dropped via `_ = crp.Put...`.
func TestCorpusWriteFailuresArePinned(t *testing.T) {
	t.Cleanup(faults.Disarm)
	res := runChaosCase(t, chaosCase{
		spec:     "corpus.write:p=1:err",
		handlers: []string{"push_r"},
		prewarm:  nil,
	}, 2)
	if res.Degraded.CorpusWrites != 2 {
		t.Errorf("Degraded.CorpusWrites = %d, want 2 (summary + instr entry)", res.Degraded.CorpusWrites)
	}
	if res.Degraded.Instrs != 0 || res.Degraded.Execs != 0 || res.Degraded.CorpusReads != 0 {
		t.Errorf("unexpected non-write degradation: %+v", res.Degraded)
	}
	if res.TotalTests == 0 || res.LoFiDiffTests == 0 {
		t.Error("write failures must not cost the run its in-memory results")
	}
}

// TestUnopenableCorpusDegradesToUncached: when the corpus root cannot even
// be initialized (every write fails before Open succeeds), the campaign
// runs uncached and ledgers the loss instead of failing outright.
func TestUnopenableCorpusDegradesToUncached(t *testing.T) {
	t.Cleanup(faults.Disarm)
	if _, err := faults.ArmSpec("corpus.write:p=1:err"); err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{
		MaxPathsPerInstr: 8,
		Handlers:         []string{"push_r"},
		Seed:             1,
		Workers:          2,
		CorpusDir:        t.TempDir(), // fresh: the VERSION write must fail
	})
	faults.Disarm()
	if err != nil {
		t.Fatalf("campaign failed instead of degrading: %v", err)
	}
	if res.Cache.Enabled {
		t.Error("cache reported enabled without an opened corpus")
	}
	if res.Degraded.CorpusWrites != 1 || res.Degraded.Reasons[ReasonCorpusOpen] != 1 {
		t.Errorf("degraded ledger = %+v, want exactly one %q unit", res.Degraded, ReasonCorpusOpen)
	}
	if res.TotalTests == 0 || res.LoFiDiffTests == 0 {
		t.Error("uncached run lost its results")
	}
}

// TestVersionMismatchStillRefuses: an incompatible corpus is a hard error,
// never a degradation — its data is unsafe to reuse or overwrite.
func TestVersionMismatchStillRefuses(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "VERSION"), []byte("99\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Run(Config{
		MaxPathsPerInstr: 8,
		Handlers:         []string{"push_r"},
		Seed:             1,
		Workers:          1,
		CorpusDir:        dir,
	})
	if !errors.Is(err, corpus.ErrVersionMismatch) {
		t.Fatalf("err = %v, want corpus.ErrVersionMismatch", err)
	}
}

// TestUndecodableExecEntriesArePinned corrupts every cached execution
// outcome (a well-formed exec record with a wrong impl order — the shape
// the trio decoder once skipped silently) and requires the resumed run to
// re-execute each one, counting every corrupt entry in both the cache
// stats and the degraded ledger.
func TestUndecodableExecEntriesArePinned(t *testing.T) {
	t.Cleanup(faults.Disarm)
	faults.Disarm()
	dir := t.TempDir()
	cfg := Config{
		MaxPathsPerInstr: 8,
		Handlers:         []string{"push_r"},
		Seed:             1,
		Workers:          2,
		CorpusDir:        dir,
		Resume:           true,
	}
	cold, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Cache.ExecMisses != cold.TotalTests || cold.TotalTests == 0 {
		t.Fatalf("cold resume run: %d tests, %d exec misses", cold.TotalTests, cold.Cache.ExecMisses)
	}

	// Corrupt in place: every exec entry stays a valid exec record but
	// gets an impl name the campaign cannot map back to a harness result.
	corrupted := 0
	err = filepath.WalkDir(filepath.Join(dir, "objects"), func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		ent, err := corpus.DecodeExecEntry(b)
		if err != nil {
			return nil // not an exec entry
		}
		corrupted++
		ent.Impls[0].Impl = "fidelib"
		out, err := corpus.EncodeExecEntry(ent)
		if err != nil {
			return err
		}
		return os.WriteFile(path, out, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	if corrupted != cold.TotalTests {
		t.Fatalf("corrupted %d exec entries, want %d", corrupted, cold.TotalTests)
	}

	warm, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Cache.ExecDecodeFailed != cold.TotalTests {
		t.Errorf("ExecDecodeFailed = %d, want %d", warm.Cache.ExecDecodeFailed, cold.TotalTests)
	}
	if warm.Cache.ExecHits != 0 || warm.Cache.ExecMisses != cold.TotalTests {
		t.Errorf("exec cache hits/misses = %d/%d, want 0/%d (every entry re-executed)",
			warm.Cache.ExecHits, warm.Cache.ExecMisses, cold.TotalTests)
	}
	if warm.Degraded.CorpusReads != cold.TotalTests {
		t.Errorf("Degraded.CorpusReads = %d, want %d", warm.Degraded.CorpusReads, cold.TotalTests)
	}
	if got := warm.Degraded.Reasons[ReasonCorpusRead]; got != cold.TotalTests {
		t.Errorf("reason %q counted %d times, want %d", ReasonCorpusRead, got, cold.TotalTests)
	}
	// The re-execution repaired the corpus: a third run replays cleanly.
	again, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if again.Cache.ExecHits != cold.TotalTests || again.Cache.ExecDecodeFailed != 0 {
		t.Errorf("after repair: hits %d, decode failures %d, want %d/0",
			again.Cache.ExecHits, again.Cache.ExecDecodeFailed, cold.TotalTests)
	}
	if cs, ws := cold.Summary(), again.Summary(); cs != ws {
		t.Errorf("repaired summary drifted:\ncold:\n%s\nrepaired:\n%s", cs, ws)
	}
}

// TestWrongBaseSnapshotsAreReexecuted rewrites every cached execution
// outcome as if it had been written against another base image (the empty
// one) and requires the resumed run to reject each entry and re-execute it,
// finding exactly the cold run's differences: a snapshot decoded over the
// wrong image is never served as a result.
func TestWrongBaseSnapshotsAreReexecuted(t *testing.T) {
	t.Cleanup(faults.Disarm)
	faults.Disarm()
	dir := t.TempDir()
	cfg := Config{
		MaxPathsPerInstr: 8,
		Handlers:         []string{"push_r"},
		Seed:             1,
		Workers:          2,
		CorpusDir:        dir,
		Resume:           true,
	}
	cold, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	image := machine.BaselineImage()
	rewritten := 0
	err = filepath.WalkDir(filepath.Join(dir, "objects"), func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		ent, err := corpus.DecodeExecEntry(b)
		if err != nil {
			return nil // not an exec entry
		}
		for i := range ent.Impls {
			snap, err := machine.ReadSnapshot(bytes.NewReader(ent.Impls[i].Snap), image)
			if err != nil {
				return err
			}
			var buf bytes.Buffer
			if err := snap.WriteTo(&buf, nil); err != nil {
				return err
			}
			ent.Impls[i].Snap = buf.Bytes()
		}
		rewritten++
		out, err := corpus.EncodeExecEntry(ent)
		if err != nil {
			return err
		}
		return os.WriteFile(path, out, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	if rewritten != cold.TotalTests || rewritten == 0 {
		t.Fatalf("rewrote %d exec entries, want %d", rewritten, cold.TotalTests)
	}

	warm, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Cache.ExecDecodeFailed != cold.TotalTests || warm.Cache.ExecHits != 0 {
		t.Errorf("decode failures %d, exec hits %d, want %d/0 (every entry re-executed)",
			warm.Cache.ExecDecodeFailed, warm.Cache.ExecHits, cold.TotalTests)
	}
	if !reflect.DeepEqual(warm.Differences, cold.Differences) {
		t.Errorf("re-executed run found %d differences, cold run %d",
			len(warm.Differences), len(cold.Differences))
	}
	again, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if again.Cache.ExecHits != cold.TotalTests || again.Cache.ExecDecodeFailed != 0 {
		t.Errorf("after repair: hits %d, decode failures %d, want %d/0",
			again.Cache.ExecHits, again.Cache.ExecDecodeFailed, cold.TotalTests)
	}
	if cs, ws := cold.Summary(), again.Summary(); cs != ws {
		t.Errorf("repaired summary drifted:\ncold:\n%s\nrepaired:\n%s", cs, ws)
	}
}
