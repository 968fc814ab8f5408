package harness

import (
	"reflect"
	"testing"

	"pokeemu/internal/core"
	"pokeemu/internal/x86"
)

// TestLentoDifferential runs every unique instruction the decoder
// exploration finds — the full handler matrix, exception paths included —
// on lento (the direct-decode interpreter) and fidelis (the IR evaluator),
// and requires the event stream, the step count, and the full final
// snapshot (CPU and memory) to be identical. This is the contract that
// makes lento a usable voting peer: any observable divergence from the
// hi-fi reference would turn majority verdicts into noise.
func TestLentoDifferential(t *testing.T) {
	uniq := core.ExploreInstructionSet().Unique
	if len(uniq) == 0 {
		t.Fatal("instruction-set exploration found nothing")
	}
	lf := LentoFactory()
	ff := FidelisFactory()

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
		rl := run(lf, nil, prog, 256)
		rf := run(ff, nil, prog, 256)
		if !reflect.DeepEqual(rl.Events, rf.Events) {
			t.Errorf("%s (% x): event streams differ: lento %v, fidelis %v",
				u.Key(), u.Repr, rl.Events, rf.Events)
			continue
		}
		if rl.Steps != rf.Steps {
			t.Errorf("%s (% x): steps differ: lento %d, fidelis %d",
				u.Key(), u.Repr, rl.Steps, rf.Steps)
			continue
		}
		if !reflect.DeepEqual(rl.Snapshot, rf.Snapshot) {
			t.Errorf("%s (% x): final snapshots differ", u.Key(), u.Repr)
		}
	}
}
