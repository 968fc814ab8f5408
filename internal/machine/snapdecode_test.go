package machine_test

import (
	"bytes"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"pokeemu/internal/campaign"
	"pokeemu/internal/corpus"
	"pokeemu/internal/machine"
)

// TestDecodeSnapshotMatchesPerPage decodes every snapshot a seeded
// campaign stores in its corpus with both DecodeSnapshot and the per-page
// reference decoder: the CPU, exception, touched set and every touched
// page must be equal.
func TestDecodeSnapshotMatchesPerPage(t *testing.T) {
	dir := t.TempDir()
	res, err := campaign.Run(campaign.Config{
		MaxPathsPerInstr: 16,
		Handlers:         []string{"push_r", "leave", "add_rmv_rv"},
		Seed:             1,
		Workers:          1,
		CorpusDir:        dir,
		Resume:           true,
	})
	if err != nil {
		t.Fatal(err)
	}
	image := machine.BaselineImage()
	snaps, pages := 0, 0
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
		for _, impl := range ent.Impls {
			got, err := machine.DecodeSnapshot(impl.Snap, image)
			if err != nil {
				t.Fatalf("%s %s: %v", path, impl.Impl, err)
			}
			want, err := machine.ReadSnapshotPerPage(bytes.NewReader(impl.Snap), image)
			if err != nil {
				t.Fatalf("%s %s: reference: %v", path, impl.Impl, err)
			}
			if got.CPU != want.CPU || !reflect.DeepEqual(got.Exception, want.Exception) {
				t.Fatalf("%s %s: CPU or exception differs", path, impl.Impl)
			}
			gt, wt := got.Mem.Touched(image), want.Mem.Touched(image)
			if !reflect.DeepEqual(gt, wt) {
				t.Fatalf("%s %s: touched %v, want %v", path, impl.Impl, gt, wt)
			}
			for pn := range wt {
				if !bytes.Equal(got.Mem.ReadPage(pn), want.Mem.ReadPage(pn)) {
					t.Fatalf("%s %s: page %#x differs", path, impl.Impl, pn)
				}
			}
			snaps++
			pages += len(wt)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if snaps != 3*res.TotalTests || pages == 0 {
		t.Fatalf("compared %d snapshots with %d pages; the campaign ran %d tests",
			snaps, pages, res.TotalTests)
	}
}
