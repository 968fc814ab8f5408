package celer_test

import (
	"reflect"
	"testing"

	"pokeemu/internal/celer"
	"pokeemu/internal/core"
	"pokeemu/internal/emu"
	"pokeemu/internal/harness"
	"pokeemu/internal/machine"
	"pokeemu/internal/x86"
)

// TestCelerFastSlowDifferential runs every unique instruction the decoder
// exploration finds through celer's Step (direct dispatch, fast) and through
// the re-lowering reference dispatcher (slow), and requires the event
// stream, the step count and the full final snapshot (CPU and memory) to be
// identical. Every factory keeps its translation cache across the whole
// sweep, so Step is exercised warm.
//
// Step runs twice per instruction: through the production factory (a fresh
// guest per run) and through one guest rebound onto every run's machine,
// whose dispatch chain still holds the earlier programs' translations at
// the same addresses — what self-modifying or remapped code produces inside
// one run. A chain entry that skipped its raw-byte revalidation would run a
// stale translation there.
func TestCelerFastSlowDifferential(t *testing.T) {
	uniq := core.ExploreInstructionSet().Unique
	if len(uniq) == 0 {
		t.Fatal("instruction-set exploration found nothing")
	}
	refCache := celer.NewCache()
	slow := harness.Factory{Name: "celer", New: func(m *machine.Machine) emu.Emulator {
		return celer.NewReferenceWithCache(m, refCache)
	}}
	warm := celer.NewWithCache(nil, celer.NewCache())
	fasts := []struct {
		name string
		f    harness.Factory
	}{
		{"fresh", harness.CelerFactory()},
		{"warm", harness.Factory{Name: "celer", New: func(m *machine.Machine) emu.Emulator {
			warm.Rebind(m)
			return warm
		}}},
	}

	// Varied register state so data-dependent paths (shift counts, string
	// counts, divisors, memory addresses) do something; ECX small keeps rep
	// prefixes cheap. ESP stays at the baseline for sane fault delivery.
	pre := []byte{}
	for _, ri := range []struct {
		r x86.Reg
		v uint32
	}{
		{x86.EAX, 0x00010203}, {x86.ECX, 3}, {x86.EDX, 0x00000080},
		{x86.EBX, 0x00002000}, {x86.EBP, 0x00003000},
		{x86.ESI, 0x00002100}, {x86.EDI, 0x00002200},
	} {
		pre = append(pre, x86.AsmMovRegImm32(ri.r, ri.v)...)
	}
	// Status flags set to a mixed pattern (CF|PF|AF|ZF|SF|OF), DF clear.
	pre = append(pre, x86.AsmPushImm32(0x8d5)...)
	pre = append(pre, x86.AsmPopf()...)

	for _, u := range uniq {
		prog := append(append([]byte{}, pre...), u.Repr...)
		prog = append(prog, x86.AsmHlt()...)
		rs := harness.RunBootBudget(slow, nil, nil, prog, harness.Budget{MaxSteps: 256})
		for _, fast := range fasts {
			rf := harness.RunBootBudget(fast.f, nil, nil, prog, harness.Budget{MaxSteps: 256})
			if !reflect.DeepEqual(rf.Events, rs.Events) {
				t.Errorf("%s (% x), %s guest: event streams differ: fast %v, slow %v",
					u.Key(), u.Repr, fast.name, rf.Events, rs.Events)
				continue
			}
			if rf.Steps != rs.Steps {
				t.Errorf("%s (% x), %s guest: steps differ: fast %d, slow %d",
					u.Key(), u.Repr, fast.name, rf.Steps, rs.Steps)
				continue
			}
			if !reflect.DeepEqual(rf.Snapshot, rs.Snapshot) {
				t.Errorf("%s (% x), %s guest: final snapshots differ", u.Key(), u.Repr, fast.name)
			}
		}
	}
}
