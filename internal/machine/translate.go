package machine

import "pokeemu/internal/x86"

// Translate performs the concrete two-level page walk for one linear
// address: not-present and write-protection checks, CR4.PSE large pages,
// CR0.WP supervisor write protection, and accessed/dirty maintenance. It
// mirrors the IR walk emitted by x86/sem (cross-checked by tests) and is
// used for instruction fetch and by celer's and lento's data accesses.
//
// On fault it sets CR2 and returns the page-fault exception.
func (m *Machine) Translate(lin uint32, write bool) (uint32, *ExceptionInfo) {
	if m.CR0>>x86.CR0PG&1 == 0 {
		return lin, nil // paging disabled: linear is physical
	}
	fault := func(present bool) (uint32, *ExceptionInfo) {
		m.CR2 = lin
		var err uint32
		if present {
			err |= x86.PFErrP
		}
		if write {
			err |= x86.PFErrWR
		}
		return 0, &ExceptionInfo{Vector: x86.ExcPF, ErrCode: err, HasErr: true}
	}
	wp := m.CR0>>x86.CR0WP&1 == 1
	checkWrite := func(entry uint32) bool {
		return !write || !wp || entry&x86.PteRW != 0
	}
	setBit := func(addr, entry uint32, bit uint32) uint32 {
		if entry&bit == 0 {
			entry |= bit
			m.Mem.Write(addr, uint64(entry), 4)
		}
		return entry
	}

	pdeAddr := m.CR3&0xfffff000 | lin>>22<<2
	pde := uint32(m.Mem.Read(pdeAddr, 4))
	if pde&x86.PteP == 0 {
		return fault(false)
	}
	if m.CR4>>x86.CR4PSE&1 == 1 && pde&x86.PdePS != 0 {
		// 4-MiB page.
		if !checkWrite(pde) {
			return fault(true)
		}
		pde = setBit(pdeAddr, pde, x86.PteA)
		if write {
			setBit(pdeAddr, pde, x86.PteD)
		}
		return pde&0xffc00000 | lin&0x003fffff, nil
	}
	if !checkWrite(pde) {
		return fault(true)
	}
	pde = setBit(pdeAddr, pde, x86.PteA)
	pteAddr := pde&0xfffff000 | lin>>12&0x3ff<<2
	pte := uint32(m.Mem.Read(pteAddr, 4))
	if pte&x86.PteP == 0 {
		return fault(false)
	}
	if !checkWrite(pte) {
		return fault(true)
	}
	pte = setBit(pteAddr, pte, x86.PteA)
	if write {
		setBit(pteAddr, pte, x86.PteD)
	}
	return pte&0xfffff000 | lin&0xfff, nil
}

// FetchCode reads up to n instruction bytes at CS:EIP, applying the code
// segment limit per byte and page translation per page run. It returns the
// bytes fetched before the first fault (if any) and that fault. One page
// walk and one page lookup cover every byte up to the page boundary, with
// identical fault behavior to a per-byte walk: bytes are produced in order,
// and the first byte past the limit or on a faulting page stops the fetch
// with the fault.
func (m *Machine) FetchCode(n int) ([]byte, *ExceptionInfo) {
	cs := &m.Seg[x86.CS]
	out := make([]byte, 0, n)
	for i := 0; i < n; {
		off := m.EIP + uint32(i)
		if off > cs.Limit {
			return out, &ExceptionInfo{Vector: x86.ExcGP, ErrCode: 0, HasErr: true}
		}
		lin := cs.Base + off
		phys, exc := m.Translate(lin, false)
		if exc != nil {
			return out, exc
		}
		// Bytes coverable by this walk: to the page end, clipped by the
		// remaining request and the segment limit (64-bit math so a
		// Limit of 0xffffffff cannot overflow).
		run := int(0x1000 - lin&0xfff)
		if rem := n - i; run > rem {
			run = rem
		}
		if left := uint64(cs.Limit) - uint64(off) + 1; uint64(run) > left {
			run = int(left)
		}
		out = m.Mem.appendPageRun(out, phys, run)
		i += run
	}
	return out, nil
}
