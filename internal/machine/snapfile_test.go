package machine

import (
	"bytes"
	"strings"
	"testing"

	"pokeemu/internal/x86"
)

func TestSnapshotFileRoundTrip(t *testing.T) {
	image := BaselineImage()
	m := NewBaseline(image)
	m.GPR[x86.EAX] = 0x12345678
	m.EFLAGS |= 1 << x86.FlagZF
	m.CR2 = 0xdeadf000
	m.MSR[2] = 0x1122334455667788
	m.Halted = true
	m.Mem.Write(0x300123, 0xa5, 1)
	m.Seg[x86.FS].Base = 0x1000

	exc := &ExceptionInfo{Vector: x86.ExcGP, ErrCode: 0x50, HasErr: true}
	snap := m.Snapshot(exc)

	var buf bytes.Buffer
	if err := snap.WriteTo(&buf, image); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSnapshot(&buf, image)
	if err != nil {
		t.Fatal(err)
	}
	if got.CPU != snap.CPU {
		t.Errorf("CPU mismatch:\n got %+v\nwant %+v", got.CPU, snap.CPU)
	}
	if got.Exception == nil || *got.Exception != *exc {
		t.Errorf("exception = %v", got.Exception)
	}
	if got.Mem.Read8(0x300123) != 0xa5 {
		t.Error("touched page content lost")
	}
	// Untouched content must come through the shared base.
	if got.Mem.Read(GDTBase+8, 4) != snap.Mem.Read(GDTBase+8, 4) {
		t.Error("baseline content lost")
	}
}

func TestSnapshotFileNoException(t *testing.T) {
	image := BaselineImage()
	snap := NewBaseline(image).Snapshot(nil)
	var buf bytes.Buffer
	if err := snap.WriteTo(&buf, image); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSnapshot(&buf, image)
	if err != nil {
		t.Fatal(err)
	}
	if got.Exception != nil {
		t.Errorf("exception = %v, want none", got.Exception)
	}
}

func TestSnapshotFileRejectsGarbage(t *testing.T) {
	if _, err := ReadSnapshot(bytes.NewReader([]byte("nope")), nil); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := ReadSnapshot(bytes.NewReader([]byte("PKEM\xff\xff")), nil); err == nil {
		t.Error("bad version accepted")
	}
}

// pagesEqual reports whether a and b hold the same touched set relative to
// their roots and the same contents on every touched page.
func pagesEqual(t *testing.T, got, want *Memory, gotRoot, wantRoot *Memory) {
	t.Helper()
	gt, wt := got.Touched(gotRoot), want.Touched(wantRoot)
	if len(gt) != len(wt) {
		t.Fatalf("touched %d pages, want %d", len(gt), len(wt))
	}
	for pn := range wt {
		if !gt[pn] {
			t.Fatalf("page %#x not touched after round trip", pn)
		}
		g, w := basePage(got, pn), basePage(want, pn)
		if !bytes.Equal(g, w) {
			t.Fatalf("page %#x content differs after round trip", pn)
		}
	}
}

// pageEdgeSnapshot builds a snapshot over root that touches a page without
// changing it, writes a run ending at byte 4095, and writes a fresh page.
func pageEdgeSnapshot(root *Memory) *Snapshot {
	m := NewMachine(BaselineCPU(), root.Overlay())
	m.GPR[x86.EBX] = 0xcafe
	m.Mem.Write8(GDTBase+3, m.Mem.Read8(GDTBase+3))  // touched, unchanged
	m.Mem.Write(StackBase+PageSize-4, 0xdeadbeef, 4) // run ends at byte 4095
	m.Mem.Write8(CodeBase, 0x90)
	m.Mem.Write8(CodeBase+2*PageSize, 0) // touched, zero over an absent page
	return m.Snapshot(&ExceptionInfo{Vector: x86.ExcPF, ErrCode: 2, HasErr: true})
}

func TestSnapshotFileRoundTripPages(t *testing.T) {
	for _, tc := range []struct {
		name string
		root *Memory
	}{{"nil root", nil}, {"baseline image", BaselineImage()}} {
		t.Run(tc.name, func(t *testing.T) {
			img := tc.root
			if img == nil {
				img = BaselineImage()
			}
			snap := pageEdgeSnapshot(img)
			var buf bytes.Buffer
			if err := snap.WriteTo(&buf, tc.root); err != nil {
				t.Fatal(err)
			}
			got, err := ReadSnapshot(&buf, tc.root)
			if err != nil {
				t.Fatal(err)
			}
			if got.CPU != snap.CPU || *got.Exception != *snap.Exception {
				t.Errorf("CPU/exception mismatch: %+v %v", got.CPU, got.Exception)
			}
			gotRoot := tc.root
			if gotRoot == nil {
				gotRoot = got.Mem.Root()
			}
			pagesEqual(t, got.Mem, snap.Mem, gotRoot, tc.root)
			if got.Mem.Read(StackBase+PageSize-4, 4) != 0xdeadbeef {
				t.Error("run ending at byte 4095 lost")
			}
		})
	}
}

func TestSnapshotFileUnchangedPageSize(t *testing.T) {
	image := BaselineImage()
	encode := func(s *Snapshot) int {
		var buf bytes.Buffer
		if err := s.WriteTo(&buf, image); err != nil {
			t.Fatal(err)
		}
		return buf.Len()
	}
	m := NewBaseline(image)
	empty := encode(m.Snapshot(nil))
	m.Mem.Write8(GDTBase, m.Mem.Read8(GDTBase))
	unchanged := encode(m.Snapshot(nil))
	if n := unchanged - empty; n > 10 {
		t.Errorf("unchanged touched page encodes in %d bytes, want <= 10", n)
	}
	// A 4-byte change ending at byte 4095 is one maximal run: a 4-byte run
	// header plus the bytes.
	m.Mem.Write(GDTBase+PageSize-4, 0xffffffff, 4)
	if n := encode(m.Snapshot(nil)) - unchanged; n != 8 {
		t.Errorf("4-byte run at the page end costs %d bytes, want 8", n)
	}
}

// oneRunSnapshot encodes a snapshot whose only touched page holds a single
// two-byte run, so the page record is the last 16 bytes: u32 page number,
// u32 CRC, u16 run count, u16 offset, u16 length, 2 bytes.
func oneRunSnapshot(t *testing.T, image *Memory) []byte {
	t.Helper()
	m := NewBaseline(image)
	m.Mem.Write(StackBase+0x10, 0xa5a5, 2)
	var buf bytes.Buffer
	if err := m.Snapshot(nil).WriteTo(&buf, image); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestSnapshotFileRejects(t *testing.T) {
	image := BaselineImage()
	valid := oneRunSnapshot(t, image)
	if _, err := ReadSnapshot(bytes.NewReader(valid), image); err != nil {
		t.Fatalf("valid snapshot rejected: %v", err)
	}
	rec := len(valid) - 16
	patch := func(at int, v ...byte) []byte {
		b := bytes.Clone(valid)
		copy(b[at:], v)
		return b
	}
	otherImage := BaselineImage()
	otherImage.Write8(StackBase+0x800, 1)
	for _, tc := range []struct {
		name, want string
		data       []byte
		base       *Memory
	}{
		{"v1 header", "unsupported snapshot version 1", patch(4, 1, 0), image},
		{"page out of range", "out of range", patch(rec, 0, 4, 0, 0), image}, // page 0x400
		{"run overflows", "overflows", patch(rec+10, 0xff, 0x0f), image},     // offset 4095, length 2
		{"truncated run", "truncated", valid[:len(valid)-1], image},
		{"trailing bytes", "trailing", append(bytes.Clone(valid), 0), image},
		{"different base image", "different base image", valid, otherImage},
		{"nil base for an image snapshot", "different base image",
			func() []byte {
				m := NewBaseline(image)
				m.Mem.Write8(GDTBase, 0xff)
				var buf bytes.Buffer
				_ = m.Snapshot(nil).WriteTo(&buf, image)
				return buf.Bytes()
			}(), nil},
	} {
		_, err := ReadSnapshot(bytes.NewReader(tc.data), tc.base)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
}
