package diff

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"pokeemu/internal/machine"
	"pokeemu/internal/x86"
)

// bytewiseMemDiffs is the reference memory comparison: every byte of the
// union of touched pages read through Read8 on both sides.
func bytewiseMemDiffs(a, b *machine.Snapshot) []FieldDiff {
	pages := a.Mem.Touched(a.Mem.Root())
	for pn := range b.Mem.Touched(b.Mem.Root()) {
		pages[pn] = true
	}
	pns := make([]uint32, 0, len(pages))
	for pn := range pages {
		pns = append(pns, pn)
	}
	sort.Slice(pns, func(i, j int) bool { return pns[i] < pns[j] })
	var out []FieldDiff
	for _, pn := range pns {
		base := pn * machine.PageSize
		for off := uint32(0); off < machine.PageSize; off++ {
			av, bv := a.Mem.Read8(base+off), b.Mem.Read8(base+off)
			if av != bv {
				out = append(out, FieldDiff{
					Field: fmt.Sprintf("mem[%#x]", base+off),
					A:     uint64(av), B: uint64(bv),
				})
			}
		}
	}
	return out
}

// comparePages are the pages the random cases draw from: the first and
// last physical pages, pages the shared root holds, and pages it does not.
var comparePages = []uint32{0, 1, 2, 7, 300, machine.NumPages - 1}

// randomSide builds one side's overlay chain over root: one or two
// overlay layers, each touching a random subset of comparePages in one of
// several ways.
func randomSide(rng *rand.Rand, root *machine.Memory) *machine.Memory {
	m := root.Overlay()
	if rng.Intn(3) == 0 {
		m = m.Overlay()
	}
	for _, pn := range comparePages {
		base := pn * machine.PageSize
		switch rng.Intn(6) {
		case 0, 1: // untouched: absent, or falls through to the root
		case 2: // touched, all zero (absent pages read as zero too)
			for off := uint32(0); off < machine.PageSize; off += 512 {
				m.Write8(base+off, 0)
			}
		case 3: // touched but unchanged from the root
			m.Write8(base+5, root.Read8(base+5))
		case 4: // differences at the page edges
			m.Write8(base, byte(rng.Intn(256)))
			m.Write8(base+machine.PageSize-1, byte(rng.Intn(256)))
		case 5: // scattered differences
			for i := rng.Intn(20); i >= 0; i-- {
				m.Write8(base+uint32(rng.Intn(machine.PageSize)), byte(rng.Intn(256)))
			}
		}
	}
	return m
}

// TestCompareMatchesBytewise requires the page-at-a-time Compare to return
// exactly the byte-at-a-time reference's diffs, fields and order included,
// over seeded random overlay pairs.
func TestCompareMatchesBytewise(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	root := machine.NewMemory()
	for _, pn := range comparePages[1:4] {
		for off := uint32(0); off < machine.PageSize; off += 64 {
			root.Write8(pn*machine.PageSize+off, byte(rng.Intn(256)))
		}
	}
	cpu := machine.BaselineCPU()
	check := func(name string, a, b *machine.Memory) {
		t.Helper()
		sa := &machine.Snapshot{CPU: cpu, Mem: a}
		sb := &machine.Snapshot{CPU: cpu, Mem: b}
		got, want := Compare(sa, sb, Filter{}), bytewiseMemDiffs(sa, sb)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Compare = %v\nwant %v", name, got, want)
		}
	}

	// Hand-built cases first, each checked in both directions.
	oneSide := root.Overlay()
	oneSide.Write8(300*machine.PageSize+9, 1)
	zeroed := root.Overlay()
	zeroed.Write8(300*machine.PageSize, 0)
	edges := root.Overlay()
	edges.Write8(machine.PageSize, ^root.Read8(machine.PageSize))
	edges.Write8(2*machine.PageSize-1, 0xee)
	several := edges.Overlay()
	for _, pn := range comparePages {
		several.Write8(pn*machine.PageSize+100, 0x5a)
	}
	cases := []struct {
		name string
		a    *machine.Memory
		diff bool
	}{
		{"page on one side only", oneSide, true},
		{"absent vs all-zero page", zeroed, false},
		{"offsets 0 and 4095 over the root", edges, true},
		{"several pages, two layers", several, true},
	}
	for _, c := range cases {
		b := root.Overlay()
		sa := &machine.Snapshot{CPU: cpu, Mem: c.a}
		sb := &machine.Snapshot{CPU: cpu, Mem: b}
		if got := len(Compare(sa, sb, Filter{})) > 0; got != c.diff {
			t.Errorf("%s: differs = %v, want %v", c.name, got, c.diff)
		}
		check(c.name, c.a, b)
		check(c.name+" (swapped)", b, c.a)
	}

	for i := 0; i < 300; i++ {
		check(fmt.Sprintf("random pair %d", i), randomSide(rng, root), randomSide(rng, root))
	}
}

// TestCompareFieldNames pins the field names of a comparison where every
// CPU field differs: the precomputed name tables must spell each field the
// way it was formatted per call.
func TestCompareFieldNames(t *testing.T) {
	a := &machine.Snapshot{CPU: machine.BaselineCPU(), Mem: machine.NewMemory()}
	b := &machine.Snapshot{CPU: a.CPU, Mem: machine.NewMemory()}
	c := &b.CPU
	for i := range c.GPR {
		c.GPR[i]++
	}
	for i := range c.Seg {
		c.Seg[i].Sel++
		c.Seg[i].Base++
		c.Seg[i].Limit++
		c.Seg[i].Attr++
	}
	for i := range c.MSR {
		c.MSR[i]++
	}
	var want []string
	for i := 0; i < 8; i++ {
		want = append(want, x86.Reg(i).String())
	}
	for s := 0; s < x86.NumSegRegs; s++ {
		name := x86.SegReg(s).String()
		want = append(want, name+".sel", name+".base", name+".limit", name+".attr")
	}
	for i := range c.MSR {
		want = append(want, fmt.Sprintf("msr%d", i))
	}
	var got []string
	for _, f := range Compare(a, b, Filter{}) {
		got = append(got, f.Field)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("fields = %v\nwant %v", got, want)
	}
}

// TestCompareEqualAllocs pins the cost of the common case, two equal
// final states: Compare formats no field name and collects the touched
// pages without a map, so it allocates nothing.
func TestCompareEqualAllocs(t *testing.T) {
	root := machine.BaselineImage()
	side := func() *machine.Snapshot {
		m := root.Overlay()
		for _, pn := range comparePages {
			m.Write8(pn*machine.PageSize+7, 0x42)
		}
		m = m.Overlay()
		m.Write8(machine.StackTop-4, 1)
		return &machine.Snapshot{CPU: machine.BaselineCPU(), Mem: m}
	}
	a, b := side(), side()
	if ds := Compare(a, b, Filter{}); len(ds) != 0 {
		t.Fatalf("equal snapshots differ: %v", ds)
	}
	if n := testing.AllocsPerRun(100, func() { Compare(a, b, Filter{}) }); n != 0 {
		t.Errorf("equal-snapshot Compare allocates %v times per call, want 0", n)
	}
}
