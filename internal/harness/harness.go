// Package harness executes test programs on emulators and captures final
// states (paper Section 5): boot a fresh guest from the shared baseline
// image, load the test program at the entry point, run to completion while
// intercepting exceptions and halts, and snapshot the CPU and physical
// memory in a common format.
package harness

import (
	"time"

	"pokeemu/internal/celer"
	"pokeemu/internal/coverage"
	"pokeemu/internal/emu"
	"pokeemu/internal/fidelis"
	"pokeemu/internal/hwsim"
	"pokeemu/internal/lento"
	"pokeemu/internal/machine"
)

// DefaultMaxSteps bounds a single test-program run.
const DefaultMaxSteps = 4096

// wallCheckInterval is how many steps run between wall-clock budget checks;
// checking every step would put a clock read on the hot path.
const wallCheckInterval = 128

// Budget bounds a single test execution. MaxSteps is the deterministic
// budget (same result on every run); Wall is an optional safety net against
// pathological slowness — a campaign that wants byte-identical reports
// across runs should leave Wall at zero.
type Budget struct {
	MaxSteps int           // 0 = DefaultMaxSteps
	Wall     time.Duration // 0 = unlimited
}

// Factory creates one emulator implementation over a guest machine.
type Factory struct {
	Name string
	New  func(m *machine.Machine) emu.Emulator
}

// FidelisFactory builds the Hi-Fi interpreter (fresh translation state per
// guest, as an interpreter re-decodes everything).
func FidelisFactory() Factory {
	return Factory{Name: "fidelis", New: func(m *machine.Machine) emu.Emulator {
		return fidelis.New(m)
	}}
}

// CoverageFactory builds the Hi-Fi interpreter with an edge-coverage map
// attached: the run's IR control-flow edges accumulate into cov. The
// snapshot is identical to an uninstrumented fidelis run, so hybrid
// campaigns diff the instrumented leg directly.
func CoverageFactory(cov *coverage.Map) Factory {
	return Factory{Name: "fidelis", New: func(m *machine.Machine) emu.Emulator {
		e := fidelis.New(m)
		e.SetCoverage(cov)
		return e
	}}
}

// CelerFactory builds the Lo-Fi emulator with a translation-block cache
// persistent across guests — the DBT speed advantage.
func CelerFactory() Factory {
	cache := celer.NewCache()
	return Factory{Name: "celer", New: func(m *machine.Machine) emu.Emulator {
		return celer.NewWithCache(m, cache)
	}}
}

// Deprecated: celer has one dispatch path; use CelerFactory.
func CelerFactoryFast(bool) Factory { return CelerFactory() }

// LentoFactory builds the third, deliberately independent backend: the
// naive direct-decode interpreter. It shares no translation or evaluation
// machinery with fidelis or celer, which is what makes 3-way majority
// voting meaningful. No cache exists to share — every step re-decodes.
func LentoFactory() Factory {
	return Factory{Name: "lento", New: func(m *machine.Machine) emu.Emulator {
		return lento.New(m)
	}}
}

// HardwareFactory builds the hardware oracle guest. Its per-test cost is the
// lowest: hardware needs no translation, modeled as a program cache shared
// across every guest — mirroring native execution under KVM.
func HardwareFactory() Factory {
	cache := fidelis.NewCache()
	return Factory{Name: "hardware", New: func(m *machine.Machine) emu.Emulator {
		return hwsim.NewHardwareShared(m, cache)
	}}
}

// Result is a completed test execution.
type Result struct {
	Impl     string
	Snapshot *machine.Snapshot
	Events   []emu.Event
	Steps    int
	// BaselineFault is set if the guest faulted or halted before the
	// baseline initializer completed (never expected).
	BaselineFault bool
	// TimedOut is set if the wall-clock budget expired before the guest
	// reached a terminal event; the snapshot is then a partial state and
	// must not be diffed.
	TimedOut bool
}

// ByName returns a fresh factory for an implementation name. Every call
// builds new translation caches, so callers that need scheduling-independent
// results (the triage minimizer re-running oracles per case) get isolated
// state.
func ByName(name string) (Factory, bool) {
	switch name {
	case "fidelis":
		return FidelisFactory(), true
	case "celer":
		return CelerFactory(), true
	case "hardware":
		return HardwareFactory(), true
	case "lento":
		return LentoFactory(), true
	}
	return Factory{}, false
}

// RunBootBudget executes a test the way the paper does (Figure 4): boot
// the guest from the shared image, run the fixed baseline state initializer
// as guest code, then the test program; interception of exceptions and
// halts is enabled only once the baseline initialization has completed, and
// the final CPU + memory state is snapshotted at the terminal event. The
// budget holds the campaign's per-test step and wall-time caps.
//
// bootCode is the baseline initializer (testgen.BaselineInit()); pass nil
// to start directly in the baseline state (used by unit tests).
func RunBootBudget(f Factory, image *machine.Memory, bootCode, program []byte, budget Budget) *Result {
	maxSteps := budget.MaxSteps
	if maxSteps == 0 {
		maxSteps = DefaultMaxSteps
	}
	var start time.Time
	if budget.Wall > 0 {
		start = time.Now()
	}
	var m *machine.Machine
	if bootCode == nil {
		m = machine.NewBaseline(image)
	} else {
		m = machine.NewBoot(image)
		m.Mem.WriteBytes(machine.BootBase, bootCode)
	}
	m.Mem.WriteBytes(machine.CodeBase, program)
	e := f.New(m)

	res := &Result{Impl: f.Name}
	var lastExc *machine.ExceptionInfo
	baselineDone := bootCode == nil
	for res.Steps = 0; res.Steps < maxSteps; res.Steps++ {
		if budget.Wall > 0 && res.Steps%wallCheckInterval == wallCheckInterval-1 &&
			time.Since(start) > budget.Wall {
			res.TimedOut = true
			break
		}
		if !baselineDone && m.EIP == machine.CodeBase {
			baselineDone = true
		}
		ev := e.Step()
		if !baselineDone && ev.Kind != emu.EventNone {
			res.BaselineFault = true
		}
		if baselineDone || res.BaselineFault {
			res.Events = append(res.Events, ev)
			switch ev.Kind {
			case emu.EventException, emu.EventShutdown:
				lastExc = ev.Exception
			}
		}
		if ev.Kind == emu.EventHalt || ev.Kind == emu.EventShutdown ||
			ev.Kind == emu.EventTimeout {
			break
		}
	}
	res.Snapshot = m.Snapshot(lastExc)
	// The guest is done: an emulator that keeps per-guest storage (fidelis's
	// compiled bodies) hands it back for the next guest.
	if r, ok := e.(interface{ Release() }); ok {
		r.Release()
	}
	return res
}
