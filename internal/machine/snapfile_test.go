package machine

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"runtime"
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

// TestDecodeSnapshotRefusesHugeCount: a header claiming NumPages pages with
// no page bytes behind it is refused before the 4 MiB page slab exists.
func TestDecodeSnapshotRefusesHugeCount(t *testing.T) {
	image := BaselineImage()
	var buf bytes.Buffer
	if err := NewBaseline(image).Snapshot(nil).WriteTo(&buf, image); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if got := binary.LittleEndian.Uint32(data[len(data)-4:]); got != 0 {
		t.Fatalf("baseline snapshot lists %d pages, want 0", got)
	}
	binary.LittleEndian.PutUint32(data[len(data)-4:], NumPages)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := DecodeSnapshot(data, image)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("err = %v, want a truncated snapshot", err)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n >= 64<<10 {
		t.Errorf("refusing the header allocated %d bytes", n)
	}
	if _, err := readSnapshotPerPage(bytes.NewReader(data), image); err == nil {
		t.Error("the per-page decoder accepts the header")
	}
}

// readSnapshotPerPage is the snapshot decoder DecodeSnapshot replaced: it
// reads the whole stream into a copy and allocates every touched page on
// its own. DecodeSnapshot must agree with it on every input.
func readSnapshotPerPage(r io.Reader, base *Memory) (*Snapshot, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	d := &snapDecoder{b: data}
	if magic := d.take(len(snapMagic)); d.err == nil && string(magic) != snapMagic {
		return nil, fmt.Errorf("machine: bad snapshot magic %q", magic)
	}
	if version := d.u16(); d.err == nil && version != snapVersion {
		return nil, fmt.Errorf("machine: unsupported snapshot version %d", version)
	}

	s := &Snapshot{}
	c := &s.CPU
	for i := range c.GPR {
		c.GPR[i] = d.u32()
	}
	c.EIP = d.u32()
	c.EFLAGS = d.u32()
	for i := range c.Seg {
		c.Seg[i] = Segment{Sel: d.u16(), Base: d.u32(), Limit: d.u32(), Attr: d.u16()}
	}
	for _, v := range []*uint32{&c.CR0, &c.CR2, &c.CR3, &c.CR4,
		&c.GDTRBase, &c.GDTRLimit, &c.IDTRBase, &c.IDTRLimit} {
		*v = d.u32()
	}
	for i := range c.MSR {
		c.MSR[i] = d.u64()
	}
	c.Halted = d.u8() == 1

	// Exception record.
	present, errCode, vector, hasErr := d.u8(), d.u32(), d.u8(), d.u8()
	if present == 1 {
		s.Exception = &ExceptionInfo{Vector: vector, ErrCode: errCode, HasErr: hasErr == 1}
	}

	// Pages.
	count := d.u32()
	if d.err != nil {
		return nil, d.err
	}
	if count > NumPages {
		return nil, fmt.Errorf("machine: snapshot claims %d pages", count)
	}
	if base == nil {
		base = NewMemory()
	}
	mem := base.Overlay()
	var prev uint32
	for i := uint32(0); i < count; i++ {
		pn, sum, runs := d.u32(), d.u32(), d.u16()
		if d.err != nil {
			return nil, d.err
		}
		if pn >= NumPages {
			return nil, fmt.Errorf("machine: snapshot page %#x out of range", pn)
		}
		if i > 0 && pn <= prev {
			return nil, fmt.Errorf("machine: snapshot page %#x out of order", pn)
		}
		prev = pn
		p := new(page)
		copy(p[:], basePage(base, pn))
		if crc32.Checksum(p[:], castagnoli) != sum {
			return nil, fmt.Errorf("machine: snapshot page %#x was written against a different base image", pn)
		}
		for j := uint16(0); j < runs; j++ {
			off, n := int(d.u16()), int(d.u16())
			if off+n > PageSize {
				return nil, fmt.Errorf("machine: snapshot page %#x run [%d,+%d) overflows the page", pn, off, n)
			}
			copy(p[off:], d.take(n))
			if d.err != nil {
				return nil, d.err
			}
		}
		mem.pages[pn] = p
	}
	if len(d.b) != 0 {
		return nil, fmt.Errorf("machine: %d trailing bytes after snapshot", len(d.b))
	}
	s.Mem = mem
	return s, nil
}
