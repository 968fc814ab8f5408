package machine

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
	"sync"
)

// Snapshot file format. The paper notes that while Bochs and QEMU ship
// their own snapshot facilities, PokeEMU uses its own format so that states
// from different implementations compare directly (Section 5.1). This is
// that format: a fixed-size CPU record, the exception record, then every
// touched memory page as a delta against the shared base image's page.
// All integers are little endian.
//
//	"PKEM" magic, u16 version (2)
//	CPU record: 8 × u32 GPR, u32 EIP, u32 EFLAGS,
//	  6 × (u16 selector, u32 base, u32 limit, u16 attributes),
//	  u32 CR0, CR2, CR3, CR4, u32 GDTR base, limit, u32 IDTR base, limit,
//	  6 × u64 MSR, u8 halted
//	exception record: u8 present, u32 error code, u8 vector, u8 has-error
//	u32 page count, then per page in ascending page-number order:
//	  u32 page number
//	  u32 CRC-32C of the base page (4096 zero bytes where the base has none)
//	  u16 run count, then per run: u16 offset, u16 length, length bytes
//
// A run is a maximal stretch of bytes that differ from the base page. A
// touched page that ended up equal to its base page is still listed, with
// zero runs, so Touched survives a round trip. The CRC makes the reader
// prove it holds the writer's base page: decoding against another image
// fails instead of yielding a wrong state.

const (
	snapMagic   = "PKEM"
	snapVersion = 2
)

// SnapVersion is the snapshot file format version, exported so persistent
// caches of serialized snapshots can key on it.
const SnapVersion = snapVersion

var (
	castagnoli = crc32.MakeTable(crc32.Castagnoli)
	zeroPage   page
	zeroCRC    = crc32.Checksum(zeroPage[:], castagnoli)
)

// basePage returns the content of page pn in the shared base image, with
// an absent page (or a nil image) reading as zeros.
func basePage(base *Memory, pn uint32) []byte {
	if base != nil {
		if p := base.ReadPage(pn); p != nil {
			return p
		}
	}
	return zeroPage[:]
}

// WriteTo serializes the snapshot relative to the given shared baseline
// image (pass nil to emit every touched page in the overlay chain as a
// delta against zeros).
func (s *Snapshot) WriteTo(w io.Writer, sharedRoot *Memory) error {
	le := binary.LittleEndian
	b := make([]byte, 0, 512)
	b = append(b, snapMagic...)
	b = le.AppendUint16(b, snapVersion)

	c := &s.CPU
	for _, r := range c.GPR {
		b = le.AppendUint32(b, r)
	}
	b = le.AppendUint32(b, c.EIP)
	b = le.AppendUint32(b, c.EFLAGS)
	for _, seg := range c.Seg {
		b = le.AppendUint16(b, seg.Sel)
		b = le.AppendUint32(b, seg.Base)
		b = le.AppendUint32(b, seg.Limit)
		b = le.AppendUint16(b, seg.Attr)
	}
	for _, v := range []uint32{c.CR0, c.CR2, c.CR3, c.CR4,
		c.GDTRBase, c.GDTRLimit, c.IDTRBase, c.IDTRLimit} {
		b = le.AppendUint32(b, v)
	}
	for _, m := range c.MSR {
		b = le.AppendUint64(b, m)
	}
	b = append(b, boolByte(c.Halted))

	// Exception record.
	if e := s.Exception; e == nil {
		b = append(b, 0, 0, 0, 0, 0, 0, 0)
	} else {
		b = append(b, 1)
		b = le.AppendUint32(b, e.ErrCode)
		b = append(b, e.Vector, boolByte(e.HasErr))
	}

	// Touched pages, sorted for determinism.
	pns := s.Mem.AppendTouched(nil, sharedRoot)
	slices.Sort(pns)
	pns = slices.Compact(pns)
	b = le.AppendUint32(b, uint32(len(pns)))
	for _, pn := range pns {
		old := basePage(sharedRoot, pn)
		b = le.AppendUint32(b, pn)
		b = le.AppendUint32(b, crc32.Checksum(old, castagnoli))
		b = appendRuns(b, s.Mem.ReadPage(pn), old)
	}
	_, err := w.Write(b)
	return err
}

// appendRuns appends the run count and the maximal runs of bytes where cur
// differs from old (both one page long).
func appendRuns(b, cur, old []byte) []byte {
	le := binary.LittleEndian
	at := len(b)
	b = append(b, 0, 0)
	if bytes.Equal(cur, old) {
		return b
	}
	n := 0
	for off := 0; off < PageSize; {
		if cur[off] == old[off] {
			off++
			continue
		}
		end := off + 1
		for end < PageSize && cur[end] != old[end] {
			end++
		}
		b = le.AppendUint16(b, uint16(off))
		b = le.AppendUint16(b, uint16(end-off))
		b = append(b, cur[off:end]...)
		n++
		off = end
	}
	le.PutUint16(b[at:], uint16(n))
	return b
}

func boolByte(v bool) byte {
	if v {
		return 1
	}
	return 0
}

// snapDecoder reads little-endian fields from an encoded snapshot. After
// the first short read every field reads as zero and err is set.
type snapDecoder struct {
	b   []byte
	err error
}

func (d *snapDecoder) take(n int) []byte {
	if d.err != nil || len(d.b) < n {
		if d.err == nil {
			d.err = fmt.Errorf("machine: truncated snapshot: %w", io.ErrUnexpectedEOF)
		}
		return nil
	}
	out := d.b[:n:n]
	d.b = d.b[n:]
	return out
}

func (d *snapDecoder) u8() byte {
	if p := d.take(1); p != nil {
		return p[0]
	}
	return 0
}

func (d *snapDecoder) u16() uint16 {
	if p := d.take(2); p != nil {
		return binary.LittleEndian.Uint16(p)
	}
	return 0
}

func (d *snapDecoder) u32() uint32 {
	if p := d.take(4); p != nil {
		return binary.LittleEndian.Uint32(p)
	}
	return 0
}

func (d *snapDecoder) u64() uint64 {
	if p := d.take(8); p != nil {
		return binary.LittleEndian.Uint64(p)
	}
	return 0
}

// ReadSnapshot deserializes a snapshot read from r; see DecodeSnapshot.
func ReadSnapshot(r io.Reader, base *Memory) (*Snapshot, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return DecodeSnapshot(data, base)
}

// pageRecordMin is the smallest encoded page record: page number, CRC and
// run count with no runs.
const pageRecordMin = 4 + 4 + 2

// DecodeSnapshot deserializes an encoded snapshot. Pages are layered over
// the given base image, which must be the shared image used when writing: a
// touched page whose base page does not match the writer's CRC is an error.
// The snapshot shares no memory with data and owns its pages; it needs no
// Release. A caller decoding many snapshots against one image uses a
// Decoder instead.
func DecodeSnapshot(data []byte, base *Memory) (*Snapshot, error) {
	return NewDecoder(base).decode(data, false)
}

// Decoder decodes snapshots against one shared base image. It computes the
// CRC-32C of every base page once, and its snapshots take their pages from
// a process-wide pool that Release refills. The base image must not change
// while the Decoder is in use. A Decoder is safe for concurrent use.
type Decoder struct {
	base *Memory
	crcs map[uint32]uint32 // CRC-32C of every page the base holds
}

// NewDecoder builds a Decoder for the given base image (nil reads as the
// empty image).
func NewDecoder(base *Memory) *Decoder {
	if base == nil {
		base = NewMemory()
	}
	pns := base.AppendTouched(nil, nil)
	dec := &Decoder{base: base, crcs: make(map[uint32]uint32, len(pns))}
	for _, pn := range pns {
		dec.crcs[pn] = crc32.Checksum(basePage(base, pn), castagnoli)
	}
	return dec
}

// baseCRC is the CRC-32C of base page pn.
func (dec *Decoder) baseCRC(pn uint32) uint32 {
	if sum, ok := dec.crcs[pn]; ok {
		return sum
	}
	return zeroCRC
}

// Decode deserializes an encoded snapshot like DecodeSnapshot. The
// snapshot's pages are pooled: once the caller is done with it, Release
// hands them back for the next Decode.
func (dec *Decoder) Decode(data []byte) (*Snapshot, error) {
	return dec.decode(data, true)
}

// pagePool recycles the pages of released decoded snapshots.
var pagePool = sync.Pool{New: func() any { return new(page) }}

// Release ends the snapshot's life. Pages of a snapshot a Decoder produced
// go back to the pool, to be overwritten by a later Decode; any snapshot's
// Mem becomes nil, so a read after Release panics instead of seeing another
// snapshot's memory. Release on a released snapshot does nothing.
func (s *Snapshot) Release() {
	if m := s.Mem; m != nil && m.pooled {
		for pn, p := range m.pages {
			pagePool.Put(p)
			delete(m.pages, pn)
		}
		m.base = nil
	}
	s.Mem = nil
}

// decode is the one decoder body. Pooled snapshots take their pages from
// pagePool; the others own one fresh slab.
func (dec *Decoder) decode(data []byte, pooled bool) (*Snapshot, error) {
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
	// Refuse a count the remaining bytes cannot hold before allocating for
	// it; such input would fail as truncated further on anyway.
	if int(count)*pageRecordMin > len(d.b) {
		return nil, fmt.Errorf("machine: truncated snapshot: %d pages in %d bytes: %w",
			count, len(d.b), io.ErrUnexpectedEOF)
	}
	mem := &Memory{pages: make(map[uint32]*page, count), base: dec.base, pooled: pooled}
	s.Mem = mem
	var slab []page
	if !pooled {
		slab = make([]page, count)
	}
	fail := func(err error) (*Snapshot, error) {
		s.Release()
		return nil, err
	}
	var prev uint32
	for i := 0; i < int(count); i++ {
		pn, sum, runs := d.u32(), d.u32(), d.u16()
		if d.err != nil {
			return fail(d.err)
		}
		if pn >= NumPages {
			return fail(fmt.Errorf("machine: snapshot page %#x out of range", pn))
		}
		if i > 0 && pn <= prev {
			return fail(fmt.Errorf("machine: snapshot page %#x out of order", pn))
		}
		prev = pn
		if dec.baseCRC(pn) != sum {
			return fail(fmt.Errorf("machine: snapshot page %#x was written against a different base image", pn))
		}
		var p *page
		if pooled {
			p = pagePool.Get().(*page)
		} else {
			p = &slab[i]
		}
		copy(p[:], basePage(dec.base, pn))
		mem.pages[pn] = p
		for j := uint16(0); j < runs; j++ {
			off, n := int(d.u16()), int(d.u16())
			if off+n > PageSize {
				return fail(fmt.Errorf("machine: snapshot page %#x run [%d,+%d) overflows the page", pn, off, n))
			}
			copy(p[off:], d.take(n))
			if d.err != nil {
				return fail(d.err)
			}
		}
	}
	if len(d.b) != 0 {
		return fail(fmt.Errorf("machine: %d trailing bytes after snapshot", len(d.b)))
	}
	return s, nil
}
