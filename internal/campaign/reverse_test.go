package campaign

import (
	"testing"

	"pokeemu/internal/core"
	"pokeemu/internal/diff"
	"pokeemu/internal/harness"
	"pokeemu/internal/symex"
	"pokeemu/internal/testgen"
	"pokeemu/internal/x86"
	"pokeemu/internal/x86/sem"
)

// TestReverseLifting exercises the opposite lifting direction the paper
// proposes in Section 7: explore the *hardware* semantics and use the
// lifted tests to evaluate the Hi-Fi emulator. The far-pointer fetch-order
// quirk of the Bochs-like emulator must surface from this direction too.
func TestReverseLifting(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy integration test")
	}
	opts := symex.DefaultOptions()
	opts.MaxPaths = 256
	ex, err := core.NewExplorerWithConfig(opts, sem.HardwareConfig)
	if err != nil {
		t.Fatal(err)
	}
	var target *core.UniqueInstr
	for _, u := range core.ExploreInstructionSet().Unique {
		if u.Key() == "lfs" {
			target = u
			break
		}
	}
	if target == nil {
		t.Fatal("lfs not found")
	}
	res, err := ex.ExploreState(target)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tests) == 0 {
		t.Fatal("no paths explored from the hardware side")
	}

	boot := testgen.BaselineInit()
	fiF := harness.FidelisFactory()
	hwF := harness.HardwareFactory()
	found := false
	ran := 0
	for _, tc := range res.Tests {
		p, err := testgen.Build(tc)
		if err != nil || !testgen.Verify(p, ex.Image()) {
			continue
		}
		ran++
		fi := harness.RunBootBudget(fiF, ex.Image(), boot, p.Code, harness.Budget{})
		hw := harness.RunBootBudget(hwF, ex.Image(), boot, p.Code, harness.Budget{})
		ds := diff.Compare(hw.Snapshot, fi.Snapshot, diff.UndefFilterFor(tc.Handler))
		if len(ds) == 0 {
			continue
		}
		d := &diff.Difference{Handler: tc.Handler, Mnemonic: tc.Mnemonic,
			ImplA: "hardware", ImplB: "fidelis", Fields: ds}
		if diff.RootCause(d) == "far load: operand fetch order" {
			found = true
		}
	}
	if ran == 0 {
		t.Fatal("no reverse-lifted tests ran")
	}
	if !found {
		t.Errorf("reverse lifting across %d tests did not surface the Hi-Fi fetch-order quirk", ran)
	}
	t.Logf("reverse lifting: %d paths, %d tests run, fetch-order quirk found=%v",
		len(res.Tests), ran, found)
}

// TestForwardAndReverseAgreeOnDefinedBehavior: for a fully defined
// instruction, lifting from either side must produce tests on which the
// Hi-Fi emulator and the hardware agree.
func TestForwardAndReverseAgreeOnDefinedBehavior(t *testing.T) {
	opts := symex.DefaultOptions()
	opts.MaxPaths = 64
	for _, cfg := range []sem.Config{sem.BochsConfig, sem.HardwareConfig} {
		ex, err := core.NewExplorerWithConfig(opts, cfg)
		if err != nil {
			t.Fatal(err)
		}
		inst, err := x86.Decode(append([]byte{0x01, 0xd8},
			make([]byte, 13)...)) // add %ebx, %eax
		if err != nil {
			t.Fatal(err)
		}
		u := &core.UniqueInstr{Spec: inst.Spec, OpSize: 32, Repr: []byte{0x01, 0xd8}}
		res, err := ex.ExploreState(u)
		if err != nil {
			t.Fatal(err)
		}
		boot := testgen.BaselineInit()
		for _, tc := range res.Tests {
			p, err := testgen.Build(tc)
			if err != nil {
				continue
			}
			fi := harness.RunBootBudget(harness.FidelisFactory(), ex.Image(), boot, p.Code, harness.Budget{})
			hw := harness.RunBootBudget(harness.HardwareFactory(), ex.Image(), boot, p.Code, harness.Budget{})
			ds := diff.Compare(hw.Snapshot, fi.Snapshot, diff.UndefFilterFor(tc.Handler))
			if len(ds) != 0 {
				t.Errorf("defined instruction differs on a lifted test: %v", ds)
			}
		}
	}
}
