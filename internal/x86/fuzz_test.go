package x86

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzDecode throws arbitrary byte strings at the instruction decoder and
// checks its structural invariants: it never panics, a successful decode
// consumes between 1 and MaxInstLen bytes (never more than it was given),
// Raw mirrors exactly the consumed bytes, the disassembler renders every
// accepted instruction, and decoding is prefix-stable (re-decoding just the
// consumed bytes yields the same instruction). It is also the DecodeInto
// oracle: decoding into an Inst left dirty by a prefix-, SIB-,
// displacement- and immediate-heavy instruction must give Decode's result
// field by field, so a field DecodeInto fails to reset shows up here.
func FuzzDecode(f *testing.F) {
	// lock cs: add dword [eax+ecx*4+0x12345678], 0x9abcdef0 under the
	// operand-size prefix; every optional field is set.
	dirtyCode := []byte{0xf3, 0x2e, 0x66, 0xf0, 0x81, 0x84, 0x88, 0x78, 0x56, 0x34, 0x12, 0xf0, 0xde}
	var dirty Inst
	if err := DecodeInto(dirtyCode, &dirty); err != nil {
		f.Fatalf("dirtying instruction does not decode: %v", err)
	}
	if !dirty.HasSIB || dirty.DispSize != 4 || dirty.ImmSize == 0 || dirty.SegOverride < 0 ||
		!dirty.Lock || !dirty.Rep || dirty.OpSize != 16 {
		f.Fatalf("dirtying instruction leaves fields clean: %+v", dirty)
	}

	f.Add([]byte{0x90})                                                 // nop
	f.Add([]byte{0xb8, 0x2a, 0x00, 0x00, 0x00})                         // mov eax, imm32
	f.Add([]byte{0x66, 0xb8, 0x2a, 0x00})                               // opsize prefix
	f.Add([]byte{0x0f, 0xb2, 0x04, 0x8d, 1, 2, 3, 4})                   // lss with SIB+disp
	f.Add([]byte{0xf0, 0x0f, 0xb1, 0x08})                               // lock cmpxchg
	f.Add([]byte{0x2e, 0x3e, 0x26, 0x64, 0x65, 0x36, 0x66, 0x67, 0x40}) // prefix soup
	f.Add([]byte{0xc1, 0xe0, 0x1f})                                     // shl eax, 31
	f.Add([]byte{0xcf})                                                 // iret
	f.Add(bytes.Repeat([]byte{0x66}, 20))                               // over-long prefix run
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, code []byte) {
		inst, err := Decode(code)
		into := dirty
		intoErr := DecodeInto(code, &into)
		if !reflect.DeepEqual(intoErr, err) {
			t.Fatalf("DecodeInto(% x) err = %v, Decode err = %v", code, intoErr, err)
		}
		if err == nil {
			if !reflect.DeepEqual(&into, inst) {
				t.Fatalf("DecodeInto(% x) over a dirty Inst:\n got %+v\nwant %+v", code, into, *inst)
			}
			if &into.Raw[0] != &code[0] || len(into.Raw) != into.Len {
				t.Fatalf("DecodeInto(% x): Raw does not alias the first %d input bytes", code, into.Len)
			}
		}
		if err != nil {
			if inst != nil {
				t.Fatalf("Decode(% x) returned both an instruction and %v", code, err)
			}
			return
		}
		if inst.Len < 1 || inst.Len > len(code) || inst.Len > MaxInstLen {
			t.Fatalf("Decode(% x): Len %d out of range (input %d bytes)", code, inst.Len, len(code))
		}
		if !bytes.Equal(inst.Raw, code[:inst.Len]) {
			t.Fatalf("Decode(% x): Raw % x does not mirror consumed bytes", code, inst.Raw)
		}
		if s := Disasm(inst); s == "" {
			t.Fatalf("Decode(% x): empty disassembly", code)
		}
		again, err := Decode(code[:inst.Len])
		if err != nil {
			t.Fatalf("re-decode of consumed bytes % x failed: %v", inst.Raw, err)
		}
		if again.Len != inst.Len || again.Spec != inst.Spec {
			t.Fatalf("re-decode of % x: Len %d→%d, spec %v→%v",
				inst.Raw, inst.Len, again.Len, inst.Spec, again.Spec)
		}
	})
}
