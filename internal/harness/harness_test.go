package harness

import (
	"testing"
	"time"

	"pokeemu/internal/emu"
	"pokeemu/internal/machine"
	"pokeemu/internal/testgen"
	"pokeemu/internal/x86"
)

// TestFigure4Timeline verifies the execution structure of the paper's
// Figure 4: bootstrap → baseline initializer → test program, with event
// interception enabled only after the baseline init completes and the
// snapshot taken at the terminal event.
func TestFigure4Timeline(t *testing.T) {
	image := machine.BaselineImage()
	boot := testgen.BaselineInit()
	prog := append(x86.AsmMovRegImm32(x86.EAX, 42), x86.AsmHlt()...)

	for _, f := range []Factory{FidelisFactory(), CelerFactory(), HardwareFactory()} {
		res := RunBoot(f, image, boot, prog, 0)
		if res.BaselineFault {
			t.Fatalf("%s: baseline init faulted", res.Impl)
		}
		// Only post-baseline events are recorded: the mov and the hlt.
		if len(res.Events) != 2 {
			t.Errorf("%s: %d recorded events, want 2 (init events suppressed)",
				res.Impl, len(res.Events))
		}
		last := res.Events[len(res.Events)-1]
		if last.Kind != emu.EventHalt {
			t.Errorf("%s: terminal event %v, want halt", res.Impl, last.Kind)
		}
		if res.Snapshot.CPU.GPR[x86.EAX] != 42 || !res.Snapshot.CPU.Halted {
			t.Errorf("%s: snapshot not taken at the halt", res.Impl)
		}
	}
}

// TestRunWithoutBootStartsAtBaseline covers the direct-state mode used by
// unit tests: no boot code, machine already in the baseline state.
func TestRunWithoutBootStartsAtBaseline(t *testing.T) {
	image := machine.BaselineImage()
	prog := append(x86.AsmMovRegImm32(x86.EBX, 7), x86.AsmHlt()...)
	res := Run(FidelisFactory(), image, prog, 0)
	if res.Snapshot.CPU.GPR[x86.EBX] != 7 {
		t.Error("program did not run")
	}
}

// TestExceptionDuringTestIsRecorded: the terminal exception must land in
// the snapshot (the state the difference analysis compares).
func TestExceptionDuringTestIsRecorded(t *testing.T) {
	image := machine.BaselineImage()
	boot := testgen.BaselineInit()
	prog := append([]byte{0xf7, 0xf1}, x86.AsmHlt()...) // div %ecx with ecx=0 → #DE
	res := RunBoot(CelerFactory(), image, boot, prog, 0)
	if res.Snapshot.Exception == nil || res.Snapshot.Exception.Vector != x86.ExcDE {
		t.Errorf("snapshot exception = %v, want #DE", res.Snapshot.Exception)
	}
}

// TestMaxStepsTerminates: a runaway guest is cut off.
func TestMaxStepsTerminates(t *testing.T) {
	image := machine.BaselineImage()
	prog := []byte{0xeb, 0xfe} // jmp self
	res := Run(FidelisFactory(), image, prog, 50)
	if res.Steps != 50 {
		t.Errorf("steps = %d, want the cap", res.Steps)
	}
}

// TestWallClockBudget verifies the campaign's per-test safety net: a
// program that spins forever is cut off by Budget.Wall and flagged as
// timed out (its partial snapshot must not be diffed), while the same
// program under a pure step budget is not flagged.
func TestWallClockBudget(t *testing.T) {
	image := machine.BaselineImage()
	spin := []byte{0xeb, 0xfe} // jmp -2
	res := RunBootBudget(FidelisFactory(), image, nil, spin,
		Budget{MaxSteps: 1 << 30, Wall: time.Millisecond})
	if !res.TimedOut {
		t.Fatalf("spinning program not flagged: %d steps", res.Steps)
	}
	res = RunBootBudget(FidelisFactory(), image, nil, spin, Budget{MaxSteps: 500})
	if res.TimedOut {
		t.Error("step-capped run must not be flagged as timed out")
	}
	if res.Steps != 500 {
		t.Errorf("step budget ran %d steps, want 500", res.Steps)
	}
}

// TestGuestsAreIsolated: every Run boots a fresh guest, so memory a test
// wrote is invisible to the next test run through the same factory, even
// though the factory's translation or program cache is shared between the
// two guests (the §5.2 reset-between-tests property).
func TestGuestsAreIsolated(t *testing.T) {
	const addr = 0x300000
	dirty := append(x86.AsmMovMemImm32(addr, 0xdead), x86.AsmMovRegMem32(x86.EAX, addr)...)
	dirty = append(dirty, x86.AsmHlt()...)
	probe := append(x86.AsmMovRegMem32(x86.EAX, addr), x86.AsmHlt()...)
	for _, name := range []string{"fidelis", "celer", "hardware", "lento"} {
		f, ok := ByName(name)
		if !ok {
			t.Fatalf("ByName(%q) not found", name)
		}
		if got := Run(f, nil, dirty, 100).Snapshot.CPU.GPR[x86.EAX]; got != 0xdead {
			t.Fatalf("%s: dirtying test read back %#x, want 0xdead", name, got)
		}
		if got := Run(f, nil, probe, 100).Snapshot.CPU.GPR[x86.EAX]; got != 0 {
			t.Errorf("%s: next guest read %#x at %#x, want 0 (state leaked across runs)", name, got, addr)
		}
	}
}
