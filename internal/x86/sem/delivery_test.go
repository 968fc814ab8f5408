package sem

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"pokeemu/internal/ir"
)

// resetDeliveryMemo empties the memo so a test starts from a known size.
func resetDeliveryMemo() {
	deliveryMemo.mu.Lock()
	deliveryMemo.progs = nil
	deliveryMemo.mu.Unlock()
}

func deliveryMemoLen() int {
	deliveryMemo.mu.Lock()
	defer deliveryMemo.mu.Unlock()
	return len(deliveryMemo.progs)
}

// deliveryCase is one delivery-memo key.
type deliveryCase struct {
	vec     uint8
	errCode uint32
	hasErr  bool
	cfg     Config
}

// deliveryCases covers vectors 0–31 plus a sample of 32–255, both hasErr
// values, zero / selector-style / #PF error codes, and both configurations.
// It has more keys than the memo holds, so walking it forces resets.
func deliveryCases() []deliveryCase {
	var vecs []uint8
	for v := 0; v < 32; v++ {
		vecs = append(vecs, uint8(v))
	}
	for v := 32; v < 256; v += 37 {
		vecs = append(vecs, uint8(v))
	}
	vecs = append(vecs, 0x80, 0xff)
	var out []deliveryCase
	for _, cfg := range []Config{BochsConfig, HardwareConfig} {
		for _, v := range vecs {
			out = append(out, deliveryCase{v, 0, false, cfg})
			// Selector-style (index|TI|EXT) and #PF (P/W/U bit) error codes.
			for _, ec := range []uint32{0, 0x1b, 0x2a, 0x0002, 0x0005, 0x0007} {
				out = append(out, deliveryCase{v, ec, true, cfg})
			}
		}
	}
	return out
}

func sameProgram(t *testing.T, what string, got, want *ir.Program) {
	t.Helper()
	if got.Name != want.Name || !reflect.DeepEqual(got.Stmts, want.Stmts) ||
		!reflect.DeepEqual(got.TempWidths, want.TempWidths) {
		t.Errorf("%s: memoized delivery body differs from a fresh compile", what)
	}
}

// TestDeliveryMemoMatchesFreshCompile: every memoized body is identical to
// an uncached compile, a repeat call returns the same pointer, and the memo
// never grows past its bound.
func TestDeliveryMemoMatchesFreshCompile(t *testing.T) {
	resetDeliveryMemo()
	cases := deliveryCases()
	if len(cases) <= deliveryMemoCap {
		t.Fatalf("only %d cases; need more than the %d-entry bound to exercise resets", len(cases), deliveryMemoCap)
	}
	for _, c := range cases {
		p := CompileDelivery(c.vec, c.errCode, c.hasErr, c.cfg)
		if n := deliveryMemoLen(); n > deliveryMemoCap {
			t.Fatalf("memo holds %d entries, bound is %d", n, deliveryMemoCap)
		}
		sameProgram(t, fmt.Sprintf("%+v", c), p, compileDelivery(c.vec, c.errCode, c.hasErr, c.cfg))
		if q := CompileDelivery(c.vec, c.errCode, c.hasErr, c.cfg); q != p {
			t.Errorf("%+v: repeat call returned a different program", c)
		}
	}
}

// TestDeliveryMemoIgnoresUnpushedErrCode: without an error code to push,
// the code value cannot change the body, so it does not split the key.
func TestDeliveryMemoIgnoresUnpushedErrCode(t *testing.T) {
	resetDeliveryMemo()
	p := CompileDelivery(3, 0, false, BochsConfig)
	if q := CompileDelivery(3, 0xdead, false, BochsConfig); q != p {
		t.Error("an unpushed error code split the memo key")
	}
	if q := CompileDelivery(3, 0, false, HardwareConfig); q == p {
		t.Error("configurations share a memo entry")
	}
	if q := CompileDelivery(3, 0, true, BochsConfig); q == p {
		t.Error("hasErr does not split the memo key")
	}
}

// TestDeliveryMemoConcurrent: concurrent callers (run it under -race)
// agree on one pointer per key, and that body matches a fresh compile.
func TestDeliveryMemoConcurrent(t *testing.T) {
	resetDeliveryMemo()
	var cases []deliveryCase
	for v := 0; v < 16; v++ {
		cases = append(cases, deliveryCase{uint8(v), uint32(v) * 8, v%2 == 0, BochsConfig})
		cases = append(cases, deliveryCase{uint8(v), 0, false, HardwareConfig})
	}
	const workers = 8
	got := make([][]*ir.Program, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			got[w] = make([]*ir.Program, len(cases))
			// Each worker walks the keys from a different start.
			for i := range cases {
				j := (i + w*5) % len(cases)
				c := cases[j]
				got[w][j] = CompileDelivery(c.vec, c.errCode, c.hasErr, c.cfg)
			}
		}(w)
	}
	wg.Wait()
	for j, c := range cases {
		for w := 1; w < workers; w++ {
			if got[w][j] != got[0][j] {
				t.Fatalf("%+v: workers 0 and %d hold different programs", c, w)
			}
		}
		sameProgram(t, "concurrent", got[0][j], compileDelivery(c.vec, c.errCode, c.hasErr, c.cfg))
	}
	if n := deliveryMemoLen(); n != len(cases) {
		t.Errorf("memo holds %d entries after %d distinct keys", n, len(cases))
	}
}
