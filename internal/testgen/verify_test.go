package testgen

import (
	"sync"
	"testing"

	"pokeemu/internal/core"
	"pokeemu/internal/emu"
	"pokeemu/internal/fidelis"
	"pokeemu/internal/machine"
	"pokeemu/internal/symex"
	"pokeemu/internal/x86/sem"
)

// mixHandlers is the headline 14-handler campaign mix (bench_test.go).
var mixHandlers = []string{
	"leave", "cmpxchg_rmv_rv", "iret", "rdmsr", "lfs",
	"mov_sreg_rm16", "add_rm8_imm8_alias", "push_r", "add_rmv_rv",
	"shl_rmv_imm8", "mov_rv_rmv", "mul_rmv", "enter", "pop_r",
}

// verifyPrivate is Verify as it ran before the shared cache: a fresh
// hardware-configuration emulator with its own program cache per call.
// It is the reference the shared-cache verdicts must equal.
func verifyPrivate(p *Program, image *machine.Memory) bool {
	m := machine.NewBoot(image)
	m.Mem.WriteBytes(machine.BootBase, BaselineInit())
	m.Mem.WriteBytes(machine.CodeBase, p.Code)
	hw := fidelis.NewWithConfig(m, sem.HardwareConfig)
	testEIP := uint32(machine.CodeBase + p.TestOffset)
	for i := 0; i < 4096; i++ {
		if m.EIP == testEIP {
			return true
		}
		if ev := hw.Step(); ev.Kind != emu.EventNone {
			return false
		}
	}
	return false
}

// mixFixture is every built test of the mix handlers (both operand sizes)
// at a small path cap, with its reference verdict.
type mixFixture struct {
	image *machine.Memory
	ids   []string
	progs []*Program
	want  []bool
}

var (
	mixOnce sync.Once
	mix     mixFixture
	mixErr  error
)

func mixTests(t *testing.T) *mixFixture {
	t.Helper()
	mixOnce.Do(func() {
		opts := symex.DefaultOptions()
		opts.MaxPaths = 8
		ex, err := core.NewExplorer(opts)
		if err != nil {
			mixErr = err
			return
		}
		mix.image = ex.Image()
		in := make(map[string]bool)
		for _, h := range mixHandlers {
			in[h] = true
		}
		for _, u := range core.ExploreInstructionSet().Unique {
			if !in[u.Spec.Name] {
				continue
			}
			res, err := ex.ExploreState(u)
			if err != nil {
				mixErr = err
				return
			}
			for _, tc := range res.Tests {
				p, err := Build(tc)
				if err != nil {
					continue
				}
				mix.ids = append(mix.ids, tc.ID)
				mix.progs = append(mix.progs, p)
				mix.want = append(mix.want, verifyPrivate(p, mix.image))
			}
		}
	})
	if mixErr != nil {
		t.Fatal(mixErr)
	}
	return &mix
}

// TestVerifySharedCacheMatchesPrivate checks that Verify on the shared
// process-wide cache gives every mix test the verdict a private per-call
// cache gives, init faults included.
func TestVerifySharedCacheMatchesPrivate(t *testing.T) {
	f := mixTests(t)
	faults := 0
	for i, p := range f.progs {
		if got := Verify(p, f.image); got != f.want[i] {
			t.Errorf("%s: Verify %v, private-cache reference %v", f.ids[i], got, f.want[i])
		}
		if !f.want[i] {
			faults++
		}
	}
	if faults == 0 {
		t.Error("no init-fault case among the mix tests")
	}
	if n := verifyCache.Len(); n == 0 || n > verifyCacheCap {
		t.Errorf("verify cache holds %d bodies (cap %d)", n, verifyCacheCap)
	}
	t.Logf("%d tests, %d init faults, %d cached bodies", len(f.progs), faults, verifyCache.Len())
}

// TestVerifyConcurrent runs Verify over the mix tests from several
// goroutines at once (run under -race): the shared cache must neither race
// nor change a verdict.
func TestVerifyConcurrent(t *testing.T) {
	f := mixTests(t)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := range f.progs {
				i := (k + w*len(f.progs)/4) % len(f.progs)
				if got := Verify(f.progs[i], f.image); got != f.want[i] {
					t.Errorf("worker %d, %s: Verify %v, want %v", w, f.ids[i], got, f.want[i])
				}
			}
		}(w)
	}
	wg.Wait()
}
