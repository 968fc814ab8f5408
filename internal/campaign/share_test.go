package campaign

import (
	"bytes"
	"testing"

	"pokeemu/internal/corpus"
	"pokeemu/internal/diff"
	"pokeemu/internal/harness"
	"pokeemu/internal/machine"
	"pokeemu/internal/testgen"
)

// cachedTrio runs a program that writes the stack on the three emulators
// and returns their outcomes as the -resume cache stores them.
func cachedTrio(t *testing.T, image *machine.Memory) *corpus.ExecEntry {
	t.Helper()
	prog := []byte{0xb8, 0x2a, 0, 0, 0, 0x50, 0xf4} // mov eax, 42; push eax; hlt
	boot := testgen.BaselineInit()
	run := func(f harness.Factory) *harness.Result {
		return harness.RunBootBudget(f, image, boot, prog, harness.Budget{})
	}
	ent, err := encodeExec(corpus.ExecKey{}, run(harness.FidelisFactory()),
		run(harness.CelerFactory()), run(harness.HardwareFactory()), image)
	if err != nil {
		t.Fatal(err)
	}
	return ent
}

// TestDecodeExecSharesEqualSnapshots: trio members with equal snapshot
// bytes share one decoded snapshot, the comparison of a member with its
// sharer is nil without reading memory, and releasing the trio member by
// member (a shared snapshot once per sharer) is safe.
func TestDecodeExecSharesEqualSnapshots(t *testing.T) {
	image := machine.BaselineImage()
	dec := machine.NewDecoder(image)
	ent := cachedTrio(t, image)
	for i := range ent.Impls {
		ent.Impls[i].Snap = bytes.Clone(ent.Impls[0].Snap)
	}
	rs, n, err := decodeExec(ent, dec)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 || rs[0].Snapshot != rs[1].Snapshot || rs[1].Snapshot != rs[2].Snapshot {
		t.Fatalf("three equal snapshots: %d decoded, shared %v/%v, want 1 decoded, all shared",
			n, rs[0].Snapshot == rs[1].Snapshot, rs[1].Snapshot == rs[2].Snapshot)
	}
	for i, r := range rs {
		if r.Impl != implOrder[i] {
			t.Errorf("result %d is %q, want %q", i, r.Impl, implOrder[i])
		}
	}
	s := rs[0].Snapshot
	if s.Mem == nil || len(s.Mem.AppendTouched(nil, s.Mem.Root())) == 0 {
		t.Fatal("the decoded snapshot touched no page; the test needs pooled pages")
	}
	filter := diff.UndefFilterFor("push_r")
	if ds := diff.Compare(s, s, filter); ds != nil {
		t.Fatalf("a pooled snapshot differs from itself: %v", ds)
	}
	if n := testing.AllocsPerRun(10, func() { diff.Compare(s, s, filter) }); n != 0 {
		t.Errorf("self-compare allocates %v times, want 0", n)
	}
	releaseAll(rs...)
	releaseAll(rs...)
	if s.Mem != nil {
		t.Error("the shared snapshot survived its release")
	}
	// The pages went back to the pool once: a fresh decode of the same
	// bytes still equals an independent one-off decode.
	again, err := dec.Decode(ent.Impls[0].Snap)
	if err != nil {
		t.Fatal(err)
	}
	defer again.Release()
	ref, err := machine.DecodeSnapshot(ent.Impls[0].Snap, image)
	if err != nil {
		t.Fatal(err)
	}
	if ds := diff.Compare(again, ref, filter); ds != nil {
		t.Errorf("a decode after the shared release differs from a one-off decode: %v", ds)
	}
}

// TestDecodeExecDistinctSnapshots: members with different bytes get their
// own snapshots, and a member equal to an earlier one (not the first)
// shares that one.
func TestDecodeExecDistinctSnapshots(t *testing.T) {
	image := machine.BaselineImage()
	dec := machine.NewDecoder(image)
	ent := cachedTrio(t, image)
	other, err := machine.DecodeSnapshot(ent.Impls[0].Snap, image)
	if err != nil {
		t.Fatal(err)
	}
	other.CPU.GPR[0]++
	var buf bytes.Buffer
	if err := other.WriteTo(&buf, image); err != nil {
		t.Fatal(err)
	}
	ent.Impls[0].Snap = buf.Bytes()
	ent.Impls[2].Snap = bytes.Clone(ent.Impls[1].Snap)
	rs, n, err := decodeExec(ent, dec)
	if err != nil {
		t.Fatal(err)
	}
	defer releaseAll(rs...)
	if n != 2 || rs[0].Snapshot == rs[1].Snapshot || rs[1].Snapshot != rs[2].Snapshot {
		t.Fatalf("%d decoded, want 2 with the last two members sharing", n)
	}
	if ds := diff.Compare(rs[0].Snapshot, rs[1].Snapshot, diff.Filter{}); len(ds) != 1 || ds[0].Field != "eax" {
		t.Errorf("distinct members compare as %v, want one eax difference", ds)
	}
}
