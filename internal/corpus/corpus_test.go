package corpus

import (
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func testKey(handler string) InstrKey {
	return InstrKey{
		Handler: handler, PathCap: 256, MaxSteps: 0, Seed: 1,
		Config: "bochs", SymexVersion: 1, GenVersion: 1,
	}
}

func testEntry(handler string) *InstrEntry {
	return &InstrEntry{
		Key:         testKey(handler),
		HandlerName: handler,
		Mnemonic:    handler,
		Paths:       3,
		Exhausted:   true,
		Queries:     42,
		Generated:   2,
		Tests: []CachedTest{
			{ID: handler + "#0", PathIndex: 0, Prog: []byte{0x90, 0xf4},
				Diffs: map[string]uint64{"st_eax": 7}},
			{ID: handler + "#2", PathIndex: 2, Prog: []byte{0x40, 0xf4},
				Outcome: Outcome{Kind: 1, Vector: 13, HasErr: true}},
		},
	}
}

func TestInstrRoundtrip(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.GetInstr(testKey("push_r")); ok {
		t.Fatal("hit on empty corpus")
	}
	want := testEntry("push_r")
	if err := c.PutInstr(want); err != nil {
		t.Fatal(err)
	}
	got, ok := c.GetInstr(testKey("push_r"))
	if !ok {
		t.Fatal("miss after put")
	}
	if got.Paths != want.Paths || got.Queries != want.Queries ||
		!got.Exhausted || len(got.Tests) != 2 {
		t.Errorf("entry mismatch: %+v", got)
	}
	if got.Tests[0].Diffs["st_eax"] != 7 {
		t.Errorf("diffs lost: %+v", got.Tests[0])
	}
	if string(got.Tests[1].Prog) != string(want.Tests[1].Prog) {
		t.Errorf("prog bytes lost")
	}
	if got.Tests[1].Outcome.Vector != 13 || !got.Tests[1].Outcome.HasErr {
		t.Errorf("outcome lost: %+v", got.Tests[1].Outcome)
	}
}

// TestKeyDimensionsMiss checks that every key field participates in the
// content address: changing any one of them must miss.
func TestKeyDimensionsMiss(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.PutInstr(testEntry("push_r")); err != nil {
		t.Fatal(err)
	}
	mutants := []InstrKey{}
	for i := 0; i < 7; i++ {
		k := testKey("push_r")
		switch i {
		case 0:
			k.Handler = "pop_r"
		case 1:
			k.PathCap = 512
		case 2:
			k.MaxSteps = 100
		case 3:
			k.Seed = 2
		case 4:
			k.Config = "hardware"
		case 5:
			k.SymexVersion = 2
		case 6:
			k.GenVersion = 2
		}
		mutants = append(mutants, k)
	}
	for i, k := range mutants {
		if _, ok := c.GetInstr(k); ok {
			t.Errorf("mutant key %d unexpectedly hit", i)
		}
	}
	if _, ok := c.GetInstr(testKey("push_r")); !ok {
		t.Error("original key should still hit")
	}
}

func TestCorruptObjectIsMiss(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.PutInstr(testEntry("push_r")); err != nil {
		t.Fatal(err)
	}
	hash := testKey("push_r").Hash()
	path := filepath.Join(dir, "objects", hash[:2], hash+".json")
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, torn := range [][]byte{[]byte("{torn"), good[:len(good)/2], good[:len(good)-1]} {
		if err := os.WriteFile(path, torn, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok := c.GetInstr(testKey("push_r")); ok {
			t.Errorf("corrupt object (%d of %d bytes) should miss", len(torn), len(good))
		}
	}
	// Recompute-and-overwrite restores it.
	if err := c.PutInstr(testEntry("push_r")); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.GetInstr(testKey("push_r")); !ok {
		t.Error("rewrite should hit again")
	}
}

func TestFormatVersionMismatch(t *testing.T) {
	dir := t.TempDir()
	if _, err := Open(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "VERSION"), []byte("99\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Error("expected version mismatch error")
	}
}

func TestStatsAndConcurrentAccess(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	handlers := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	for _, h := range handlers {
		wg.Add(1)
		go func(h string) {
			defer wg.Done()
			if err := c.PutInstr(testEntry(h)); err != nil {
				t.Error(err)
			}
			if _, ok := c.GetInstr(testKey(h)); !ok {
				t.Errorf("miss after concurrent put of %q", h)
			}
		}(h)
	}
	wg.Wait()
	s := c.Stats()
	if s.Writes != int64(len(handlers)) || s.Hits != int64(len(handlers)) {
		t.Errorf("stats = %+v, want %d writes and hits", s, len(handlers))
	}
}

func TestExecRoundtrip(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := ExecKey{ProgSHA: ExecProgSHA([]byte{1, 2}, []byte{3}), MaxSteps: 4096, SnapVer: 1}
	e := &ExecEntry{Key: k, Impls: []ExecOutcome{
		{Impl: "fidelis", Steps: 10, Snap: []byte("snapA")},
		{Impl: "celer", Steps: 9, Snap: []byte("snapB")},
		{Impl: "hardware", Steps: 8, BaselineFault: true, Snap: []byte("snapC")},
	}}
	if err := c.PutExec(e); err != nil {
		t.Fatal(err)
	}
	got, ok := c.GetExec(k)
	if !ok {
		t.Fatal("miss after put")
	}
	if len(got.Impls) != 3 || got.Impls[2].Impl != "hardware" ||
		!got.Impls[2].BaselineFault || string(got.Impls[0].Snap) != "snapA" {
		t.Errorf("exec entry mismatch: %+v", got)
	}
	// Different program bytes → different key.
	k2 := ExecKey{ProgSHA: ExecProgSHA([]byte{1, 2}, []byte{4}), MaxSteps: 4096, SnapVer: 1}
	if _, ok := c.GetExec(k2); ok {
		t.Error("different program unexpectedly hit")
	}
}
