package machine

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"sync"
	"testing"

	"pokeemu/internal/x86"
)

// The reference accessors below are the byte-at-a-time code that Read,
// Write and FetchCode replaced: one overlay-chain lookup per byte. The page
// paths must match them byte for byte, fault for fault.

func refRead(m *Memory, addr uint32, bytes uint8) uint64 {
	var v uint64
	for i := uint8(0); i < bytes; i++ {
		v |= uint64(m.Read8(addr+uint32(i))) << (8 * i)
	}
	return v
}

func refWrite(m *Memory, addr uint32, v uint64, bytes uint8) {
	for i := uint8(0); i < bytes; i++ {
		m.Write8(addr+uint32(i), byte(v>>(8*i)))
	}
}

// refFetchCode checks the limit, walks the page tables and reads memory
// once per byte.
func refFetchCode(m *Machine, n int) ([]byte, *ExceptionInfo) {
	cs := &m.Seg[x86.CS]
	var out []byte
	for i := 0; i < n; i++ {
		off := m.EIP + uint32(i)
		if off > cs.Limit {
			return out, &ExceptionInfo{Vector: x86.ExcGP, ErrCode: 0, HasErr: true}
		}
		phys, exc := m.Translate(cs.Base+off, false)
		if exc != nil {
			return out, exc
		}
		out = append(out, m.Mem.Read8(phys))
	}
	return out, nil
}

// accessPages are the page numbers an encoded access lands on: pages held
// by the baseline image, by the middle or top overlay, by two layers at
// once, by none (absent, reading as zeros), the code pages, and the last
// pages before the 4 MiB wrap.
var accessPages = []uint32{
	0x000, 0x001, 0x003, 0x005, 0x0ff, // page 0 after the wrap, image pages, an absent page
	CodeBase / PageSize, CodeBase/PageSize + 1, CodeBase/PageSize + 2, CodeBase/PageSize + 3,
	StackBase / PageSize, 0x3fd, 0x3fe, 0x3ff,
}

// fillPage gives page pn of one layer a recognizable pattern.
func fillPage(m *Memory, pn uint32, salt byte) {
	p := new(page)
	for i := range p {
		p[i] = byte(pn)*31 + byte(i)*7 + salt
	}
	m.pages[pn] = p
}

// accessImage is the baseline image plus pattern pages, shared read-only
// by every accessMachine (writes land in the top overlay).
var accessImage = sync.OnceValue(func() *Memory {
	image := BaselineImage()
	for _, pn := range []uint32{CodeBase / PageSize, CodeBase/PageSize + 2, 0x3ff} {
		fillPage(image, pn, 1)
	}
	return image
})

// accessMachine builds a baseline machine over a three-layer chain: the
// shared image, a middle overlay and a top overlay. Pages 0x0ff,
// CodeBase+3 pages and 0x3fd are absent everywhere.
func accessMachine() *Machine {
	mid := accessImage().Overlay()
	for _, pn := range []uint32{0x000, CodeBase/PageSize + 1, CodeBase/PageSize + 2, 0x3fe} {
		fillPage(mid, pn, 2)
	}
	top := mid.Overlay()
	fillPage(top, 0x3ff, 3)
	return NewMachine(BaselineCPU(), top)
}

// accessOpLen is the size of one encoded access:
//
//	[0]     kind: 0 read, 1 write, 2 fetch
//	[1]     page: index into accessPages
//	[2:4]   offset within the page (little endian, mod PageSize)
//	[4]     address bits 24–31, which the 4 MiB wrap must discard
//	[5]     read/write width in bytes (mod 9); fetch length (mod 16)
//	[6:10]  write value; for a fetch, the limit slack past EIP
//	[10]    fetch flags: 1 paging off, 2 next page not present,
//	        4 limit = EIP + slack (mod 16)
const accessOpLen = 11

func accessOp(kind byte, pn, off uint32, width uint8, value uint32, flags byte) []byte {
	op := make([]byte, accessOpLen)
	op[0] = kind
	for i, p := range accessPages {
		if p == pn {
			op[1] = byte(i)
		}
	}
	binary.LittleEndian.PutUint16(op[2:], uint16(off))
	op[5] = width
	binary.LittleEndian.PutUint32(op[6:], value)
	op[10] = flags
	return op
}

// checkAccessOps runs the encoded accesses on two identical machines, one
// through Read/Write/FetchCode and one through the references, and
// requires equal results, faults, CPU state and every overlay layer.
func checkAccessOps(t *testing.T, data []byte) {
	t.Helper()
	got, want := accessMachine(), accessMachine()
	for i := 0; i+accessOpLen <= len(data); i += accessOpLen {
		op := data[i : i+accessOpLen]
		addr := uint32(op[4])<<24 | accessPages[int(op[1])%len(accessPages)]*PageSize |
			uint32(binary.LittleEndian.Uint16(op[2:]))%PageSize
		value := binary.LittleEndian.Uint32(op[6:])
		switch op[0] % 3 {
		case 0:
			w := op[5] % 9
			if g, r := got.Mem.Read(addr, w), refRead(want.Mem, addr, w); g != r {
				t.Fatalf("op %d: Read(%#x, %d) = %#x, reference %#x", i/accessOpLen, addr, w, g, r)
			}
		case 1:
			w := op[5] % 9
			v := uint64(value) | uint64(value)<<32
			got.Mem.Write(addr, v, w)
			refWrite(want.Mem, addr, v, w)
		case 2:
			for _, m := range []*Machine{got, want} {
				m.EIP = addr
				m.CR0 |= 1 << x86.CR0PG
				if op[10]&1 != 0 {
					m.CR0 &^= 1 << x86.CR0PG
				}
				if op[10]&2 != 0 {
					// Clear the present bit of the next page's PTE
					// (byte by byte, so both sides set up alike).
					pte := uint32(PTBase + (addr/PageSize+1)%1024*4)
					m.Mem.Write8(pte, m.Mem.Read8(pte)&^byte(x86.PteP))
				}
				m.Seg[x86.CS].Limit = 0xffffffff
				if op[10]&4 != 0 {
					m.Seg[x86.CS].Limit = addr + value%16
				}
			}
			n := int(op[5] % 16)
			g, gexc := got.FetchCode(n)
			r, rexc := refFetchCode(want, n)
			if !bytes.Equal(g, r) || !reflect.DeepEqual(gexc, rexc) {
				t.Fatalf("op %d: FetchCode(%d) at %#x = % x, %v; reference % x, %v",
					i/accessOpLen, n, addr, g, gexc, r, rexc)
			}
		}
		if got.CPU != want.CPU {
			t.Fatalf("op %d: CPU differs:\n%+v\nreference\n%+v", i/accessOpLen, got.CPU, want.CPU)
		}
	}
	sameLayers(t, got.Mem, want.Mem)
}

// sameLayers requires the two overlay chains to hold the same pages with
// the same content, layer by layer.
func sameLayers(t *testing.T, got, want *Memory) {
	t.Helper()
	for depth := 0; got != nil || want != nil; depth++ {
		if got == nil || want == nil {
			t.Fatalf("chains differ in length at layer %d", depth)
		}
		if len(got.pages) != len(want.pages) {
			t.Fatalf("layer %d holds %d pages, reference %d", depth, len(got.pages), len(want.pages))
		}
		for pn, wp := range want.pages {
			if gp, ok := got.pages[pn]; !ok || *gp != *wp {
				t.Fatalf("layer %d page %#x differs from the reference", depth, pn)
			}
		}
		got, want = got.base, want.base
	}
}

// TestMemoryAccessMatchesByteReference covers the page edges at every
// width on every kind of page, the 4 MiB wrap, and fetches that cross into
// a faulting page, run past the segment limit or wrap with paging off.
func TestMemoryAccessMatchesByteReference(t *testing.T) {
	var data []byte
	for _, pn := range accessPages {
		for off := uint32(PageSize - 4); off < PageSize; off++ {
			for _, w := range []uint8{1, 2, 4} {
				data = append(data, accessOp(0, pn, off, w, 0, 0)...)
				data = append(data, accessOp(1, pn, off, w, 0xa5c3_0f1e+off, 0)...)
				data = append(data, accessOp(0, pn, off, w, 0, 0)...)
			}
		}
	}
	checkAccessOps(t, data)

	// A zero-width access touches no page.
	checkAccessOps(t, accessOp(1, 0x0ff, 0, 0, 1, 0))

	// Above 4 MiB the address wraps: bits 24–31 are discarded.
	wrap := accessOp(1, 0x3ff, PageSize-2, 4, 0x11223344, 0)
	wrap[4] = 0xff
	checkAccessOps(t, append(wrap, accessOp(0, 0x000, 0, 4, 0, 0)...))

	for _, tc := range []struct {
		name  string
		op    []byte
		vec   uint8
		cr2   uint32
		bytes int
	}{
		{"next page faults", accessOp(2, CodeBase/PageSize, PageSize-3, 15, 0, 2), x86.ExcPF, CodeBase + PageSize, 3},
		{"limit clips", accessOp(2, CodeBase/PageSize, 16, 15, 2, 4), x86.ExcGP, 0, 3},
		{"limit clips at the page end", accessOp(2, CodeBase/PageSize, PageSize-3, 15, 2, 4), x86.ExcGP, 0, 3},
		{"wrap with paging off", accessOp(2, 0x3ff, PageSize-2, 15, 0, 1), 0, 0, 15},
		{"absent pages", accessOp(2, CodeBase/PageSize+3, PageSize-1, 15, 0, 0), 0, 0, 15},
	} {
		t.Run(tc.name, func(t *testing.T) {
			checkAccessOps(t, tc.op)
			m := accessMachine()
			m.EIP = accessPages[tc.op[1]]*PageSize + uint32(binary.LittleEndian.Uint16(tc.op[2:]))
			if tc.op[10]&1 != 0 {
				m.CR0 &^= 1 << x86.CR0PG
			}
			if tc.op[10]&2 != 0 {
				m.Mem.Write8(PTBase+(m.EIP/PageSize+1)*4, 0)
			}
			if tc.op[10]&4 != 0 {
				m.Seg[x86.CS].Limit = m.EIP + 2
			}
			out, exc := m.FetchCode(int(tc.op[5]))
			if len(out) != tc.bytes {
				t.Errorf("fetched %d bytes, want %d", len(out), tc.bytes)
			}
			switch {
			case tc.vec == 0 && exc != nil:
				t.Errorf("unexpected fault %v", exc)
			case tc.vec != 0 && (exc == nil || exc.Vector != tc.vec):
				t.Errorf("fault %v, want #%d", exc, tc.vec)
			case tc.vec == x86.ExcPF && m.CR2 != tc.cr2:
				t.Errorf("CR2 = %#x, want %#x", m.CR2, tc.cr2)
			}
		})
	}
}

// FuzzMemoryAccess runs random access sequences against the byte-at-a-time
// reference. The seeds are the edge cases of the test above.
func FuzzMemoryAccess(f *testing.F) {
	f.Add(accessOp(0, 0x3ff, PageSize-1, 4, 0, 0))
	f.Add(append(accessOp(1, CodeBase/PageSize+1, PageSize-3, 4, 0xdeadbeef, 0),
		accessOp(0, CodeBase/PageSize+1, PageSize-2, 2, 0, 0)...))
	f.Add(accessOp(1, 0x0ff, PageSize-2, 2, 0xffff, 0))
	f.Add(accessOp(1, 0x0ff, 0, 0, 1, 0))
	f.Add(accessOp(2, CodeBase/PageSize, PageSize-3, 15, 0, 2))
	f.Add(accessOp(2, CodeBase/PageSize, PageSize-3, 15, 5, 4))
	f.Add(accessOp(2, 0x3ff, PageSize-2, 15, 0, 1))
	high := accessOp(2, 0x3ff, PageSize-2, 15, 0, 1)
	high[4] = 0x80
	f.Add(high)
	f.Fuzz(checkAccessOps)
}
