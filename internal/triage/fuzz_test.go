package triage

import (
	"bytes"
	"testing"

	"pokeemu/internal/x86"
)

// FuzzTriageMinimize throws arbitrary programs at the minimizer and asserts
// its two invariants on whatever comes back: the result never grows past the
// canonicalized original, and a reproduced result's final program still
// produces exactly the original divergence signature under an independent
// oracle. Handlers are varied so different undefined-behavior filters are
// exercised; budgets are small to keep iterations fast.
func FuzzTriageMinimize(f *testing.F) {
	// Seeds: a known-divergent shape (celer's leave defect), a clean
	// program, and raw byte soup.
	leave := append(append(
		x86.AsmMovRegImm32(x86.EBP, 0x00300000), x86.AsmMovRegImm32(x86.ESP, 0x002ffff0)...),
		0xc9) // leave
	f.Add(leave, len(leave)-1, uint8(0))
	clean := append(x86.AsmMovRegImm32(x86.EAX, 0x2a), 0x01, 0xd8)
	f.Add(clean, 5, uint8(1))
	f.Add([]byte{0xc9, 0x9c, 0x60, 0xf4, 0xff, 0x00}, 2, uint8(2))

	handlers := []string{"leave", "push_r", "add_rmv_rv", "shl_rmv_imm8"}
	const maxSteps, budget = 128, 48

	f.Fuzz(func(t *testing.T, prog []byte, off int, hsel uint8) {
		if len(prog) == 0 || len(prog) > 64 {
			return
		}
		c := CaseInfo{
			TestID:   "fuzz#0",
			Handler:  handlers[int(hsel)%len(handlers)],
			Mnemonic: "fuzz",
			ImplA:    "hardware", ImplB: "celer",
			Prog:       append([]byte(nil), prog...),
			TestOffset: off, // Minimize clamps out-of-range offsets itself
		}
		m, err := Minimize(c, maxSteps, budget)
		if err != nil {
			t.Fatalf("minimize errored on %x: %v", prog, err)
		}
		if m.OracleRuns > budget {
			t.Fatalf("budget exceeded: %d > %d", m.OracleRuns, budget)
		}
		if m.FinalBytes > m.OrigBytes || len(m.Prog) != m.FinalBytes {
			t.Fatalf("case grew: %d -> %d bytes (prog %d)",
				m.OrigBytes, m.FinalBytes, len(m.Prog))
		}
		if m.FinalAtoms > m.OrigAtoms {
			t.Fatalf("atoms grew: %d -> %d", m.OrigAtoms, m.FinalAtoms)
		}
		if !bytes.HasSuffix(m.Prog, x86.AsmHlt()) {
			t.Fatalf("minimized program lost its hlt: %x", m.Prog)
		}
		if !m.Reproduced {
			return
		}
		if m.Signature == "" {
			t.Fatal("reproduced case has an empty signature")
		}
		// Independent check: a fresh oracle on the final program must see
		// exactly the original divergence — every accepted minimization step
		// preserved the signature.
		oracle, err := OracleFor(c, maxSteps)
		if err != nil {
			t.Fatal(err)
		}
		if got := oracle(m.Prog); got != m.Signature {
			t.Fatalf("signature not preserved:\noriginal %q\nfinal    %q\nprog %x",
				m.Signature, got, m.Prog)
		}
	})
}

// FuzzDecodeBaseline drives hostile PUT /v1/baseline bodies through the
// baseline decoder. Nothing may panic; an accepted baseline encodes,
// decodes and re-encodes byte-identically, and Len counts its distinct
// (impl, signature) pairs.
func FuzzDecodeBaseline(f *testing.F) {
	for _, seed := range []string{
		`{"version":1,"entries":[]}`,
		`{"version":1,"entries":null}`,
		`{"version":1,"entries":[{"impl":"celer","signature":"leave|esp","root_cause":"non-atomic","count":3}]}`,
		`{"version":1,"entries":[{"impl":"celer","signature":"a"},{"impl":"celer","signature":"a"}]}`,
		`{"version":1,"entries":[{"impl":"b","signature":"x"},{"impl":"a","signature":"y","count":-1}]}`,
		`{"version":2,"entries":[]}`,
		`{"Version":1,"ENTRIES":[{"Impl":"celer","Signature":"\u00ff"}]}`,
		`[]`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := DecodeBaseline(data)
		if err != nil {
			return
		}
		pairs := map[[2]string]bool{}
		for _, e := range b.Entries {
			pairs[[2]string{e.Impl, e.Signature}] = true
		}
		if b.Len() != len(pairs) {
			t.Fatalf("Len %d for %d distinct pairs", b.Len(), len(pairs))
		}
		enc, err := b.Encode()
		if err != nil {
			t.Fatalf("accepted baseline does not encode: %v", err)
		}
		b2, err := DecodeBaseline(enc)
		if err != nil {
			t.Fatalf("encoded baseline does not decode: %v\n%s", err, enc)
		}
		enc2, err := b2.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("re-encoding differs:\n%s\nvs\n%s", enc, enc2)
		}
	})
}
