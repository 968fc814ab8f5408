package lento_test

import (
	"encoding/binary"
	"testing"

	"pokeemu/internal/expr"
	"pokeemu/internal/harness"
	"pokeemu/internal/solver"
	"pokeemu/internal/x86"
)

// fuzzOp is one ALU operation the fuzzer can aim at lento: an assembler for
// the reg-reg form (destination EAX, source ECX, at width w) and the
// matching expr term over w-bit operands.
type fuzzOp struct {
	name string
	// asm emits the instruction at width w (8, 16, or 32).
	asm func(w uint8) []byte
	// term builds the expected result; n is the low-5-bit shift count of
	// operand b (shift ops consume it instead of the full operand).
	term func(a, b *expr.Expr, n uint8) *expr.Expr
	// zfValid marks ops whose ZF is architecturally defined from the result
	// (shift-by-zero and widening multiplies are excluded).
	zfValid bool
}

// regRegASM assembles "op eax, ecx" for a classic ALU opcode whose 8-bit
// form is op8 (the v-width form is op8+1).
func regRegASM(op8 byte) func(uint8) []byte {
	return func(w uint8) []byte {
		switch w {
		case 8:
			return []byte{op8, 0xc8}
		case 16:
			return []byte{0x66, op8 + 1, 0xc8}
		default:
			return []byte{op8 + 1, 0xc8}
		}
	}
}

// grp3ASM assembles a group-3 unary op (modrm /reg) on EAX.
func grp3ASM(reg byte) func(uint8) []byte {
	modrm := 0xc0 | reg<<3
	return func(w uint8) []byte {
		switch w {
		case 8:
			return []byte{0xf6, modrm}
		case 16:
			return []byte{0x66, 0xf7, modrm}
		default:
			return []byte{0xf7, modrm}
		}
	}
}

// shiftASM assembles "op eax, imm8" from the C0/C1 shift group.
func shiftASM(reg byte, n uint8) func(uint8) []byte {
	modrm := 0xc0 | reg<<3
	return func(w uint8) []byte {
		switch w {
		case 8:
			return []byte{0xc0, modrm, n}
		case 16:
			return []byte{0x66, 0xc1, modrm, n}
		default:
			return []byte{0xc1, modrm, n}
		}
	}
}

// shiftTerm folds the architectural count masking (mod 32, independent of
// the lane width) into the expected term.
func shiftTerm(kind byte, n uint8) func(a, b *expr.Expr, _ uint8) *expr.Expr {
	return func(a, _ *expr.Expr, _ uint8) *expr.Expr {
		w := a.Width
		c := n & 31
		switch kind {
		case 0: // shl
			if c >= w {
				return expr.Const(w, 0)
			}
			return expr.Shl(a, expr.Const(w, uint64(c)))
		case 1: // shr
			if c >= w {
				return expr.Const(w, 0)
			}
			return expr.LShr(a, expr.Const(w, uint64(c)))
		default: // sar saturates to a sign fill
			if c >= w {
				c = w - 1
			}
			return expr.AShr(a, expr.Const(w, uint64(c)))
		}
	}
}

// fuzzOps is the operation table the first input byte indexes.
var fuzzOps = []fuzzOp{
	{"add", regRegASM(0x00), func(a, b *expr.Expr, _ uint8) *expr.Expr { return expr.Add(a, b) }, true},
	{"or", regRegASM(0x08), func(a, b *expr.Expr, _ uint8) *expr.Expr { return expr.Or(a, b) }, true},
	// Flags are cleared before the op, so adc/sbb degenerate to add/sub.
	{"adc", regRegASM(0x10), func(a, b *expr.Expr, _ uint8) *expr.Expr { return expr.Add(a, b) }, true},
	{"sbb", regRegASM(0x18), func(a, b *expr.Expr, _ uint8) *expr.Expr { return expr.Sub(a, b) }, true},
	{"and", regRegASM(0x20), func(a, b *expr.Expr, _ uint8) *expr.Expr { return expr.And(a, b) }, true},
	{"sub", regRegASM(0x28), func(a, b *expr.Expr, _ uint8) *expr.Expr { return expr.Sub(a, b) }, true},
	{"xor", regRegASM(0x30), func(a, b *expr.Expr, _ uint8) *expr.Expr { return expr.Xor(a, b) }, true},
	{"not", grp3ASM(2), func(a, _ *expr.Expr, _ uint8) *expr.Expr { return expr.Not(a) }, false},
	{"neg", grp3ASM(3), func(a, _ *expr.Expr, _ uint8) *expr.Expr { return expr.Neg(a) }, true},
}

// FuzzLentoVsEval is the semantics triangle for the direct-decode
// interpreter: assemble one ALU instruction from fuzzed operands, run it on
// lento under the harness, and require the result register to match (1) the
// pure evaluator expr.Eval on the corresponding term and (2) the solver's
// bit-blaster with the operands pinned — the same style of oracle
// FuzzSemanticsOracle aims at celer's lifted closures.
func FuzzLentoVsEval(f *testing.F) {
	f.Add([]byte{0, 0, 0x04, 0x03, 0x02, 0x01, 0xff, 0xff, 0xff, 0x7f})  // add, w=8
	f.Add([]byte{5, 1, 0x00, 0x00, 0x00, 0x80, 0x01, 0x00, 0x00, 0x00})  // sub, w=16
	f.Add([]byte{8, 2, 0xff, 0xff, 0xff, 0xff, 0x00, 0x00, 0x00, 0x00})  // neg, w=32
	f.Add([]byte{9, 2, 0x21, 0x43, 0x65, 0x87, 0x05, 0x00, 0x00, 0x00})  // shl 5, w=32
	f.Add([]byte{11, 0, 0x80, 0x00, 0x00, 0x00, 0x21, 0x00, 0x00, 0x00}) // sar 33, w=8
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 10 {
			return
		}
		opIdx := int(data[0]) % (len(fuzzOps) + 3) // +3 shift kinds
		w := []uint8{8, 16, 32}[int(data[1])%3]
		a := binary.LittleEndian.Uint32(data[2:6])
		b := binary.LittleEndian.Uint32(data[6:10])

		var op fuzzOp
		if opIdx < len(fuzzOps) {
			op = fuzzOps[opIdx]
		} else {
			kind := byte(opIdx - len(fuzzOps))
			n := uint8(b) // shift count comes from operand b's low byte
			op = fuzzOp{
				name: []string{"shl", "shr", "sar"}[kind],
				asm:  shiftASM([]byte{4, 5, 7}[kind], n),
				term: shiftTerm(kind, n),
			}
		}

		// Program: clear flags, load operands, run the op, halt.
		p := prog(
			x86.AsmPushImm32(0x2), x86.AsmPopf(),
			x86.AsmMovRegImm32(x86.EAX, a),
			x86.AsmMovRegImm32(x86.ECX, b),
			op.asm(w),
		)
		r := harness.RunBootBudget(harness.LentoFactory(), nil, nil, p, harness.Budget{MaxSteps: 32})
		if v := lastVector(r); v != -1 {
			t.Fatalf("%s w=%d a=%#x b=%#x: unexpected fault #%d", op.name, w, a, b, v)
		}

		mask := uint64(1)<<w - 1
		got := uint64(r.Snapshot.CPU.GPR[x86.EAX]) & mask

		av := expr.Const(w, uint64(a)&mask)
		bv := expr.Const(w, uint64(b)&mask)
		e := op.term(av, bv, uint8(b))
		want := expr.Eval(e, nil)
		if got != want {
			t.Fatalf("%s w=%d a=%#x b=%#x: lento %#x, expr.Eval %#x",
				op.name, w, a, b, got, want)
		}

		// ZF must agree with the result where it is defined.
		if op.zfValid {
			zf := r.Snapshot.CPU.EFLAGS>>x86.FlagZF&1 == 1
			if zf != (got == 0) {
				t.Fatalf("%s w=%d a=%#x b=%#x: result %#x but ZF=%v",
					op.name, w, a, b, got, zf)
			}
		}

		// Bit-blaster leg: over symbolic operands pinned to the fuzzed
		// values, "result differs from what lento computed" must be Unsat.
		sa, sb := expr.Var(w, "a"), expr.Var(w, "b")
		se := op.term(sa, sb, uint8(b))
		bl := solver.NewBV()
		lits := []solver.Lit{
			bl.LitFor(expr.Eq(sa, av)),
			bl.LitFor(expr.Eq(sb, bv)),
			bl.LitFor(expr.Ne(se, expr.Const(w, got))),
		}
		if st := bl.CheckLits(lits); st != solver.Unsat {
			t.Fatalf("%s w=%d a=%#x b=%#x: bit-blaster admits a different result (status %v)",
				op.name, w, a, b, st)
		}
	})
}
