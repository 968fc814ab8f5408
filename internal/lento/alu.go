package lento

import (
	"strings"

	"pokeemu/internal/x86"
)

// execALU interprets the arithmetic/logic families. It reports false when
// the handler name is outside its domain.
func (x *exec) execALU(name string) (*fault, bool) {
	base := strings.TrimSuffix(name, "_alias")
	us := strings.IndexByte(base, '_')
	op := base
	form := ""
	if us >= 0 {
		op, form = base[:us], base[us+1:]
	}
	switch op {
	case "add", "or", "adc", "sbb", "and", "sub", "xor", "cmp", "test":
		return x.binALU(op, form), true
	case "inc", "dec":
		return x.incDec(op == "inc", form), true
	case "not", "neg":
		return x.notNeg(op == "neg", form), true
	case "mul", "imul", "imul1":
		return x.mulOne(op != "mul", form), true
	case "imul2", "imul3":
		return x.imulMulti(op == "imul3"), true
	case "div", "idiv":
		return x.divide(op == "idiv", form), true
	case "rol", "ror", "rcl", "rcr", "shl", "shr", "sar":
		return x.shiftRotate(op, form), true
	case "aam":
		return x.aam(), true
	case "aad":
		return x.aad(), true
	case "cwde":
		return x.cwde(), true
	case "cdq":
		return x.cdq(), true
	case "lahf":
		return x.lahf(), true
	case "sahf":
		return x.sahf(), true
	case "clc", "stc", "cmc", "cld", "std", "cli", "sti":
		return x.flagOp(op), true
	case "xchg":
		return x.xchg(form), true
	case "xadd":
		return x.xadd(form), true
	case "cmpxchg":
		return x.cmpxchg(form), true
	case "bswap":
		return x.bswap(), true
	}
	return nil, false
}

func splitForm(form string) (dst, src string) {
	us := strings.IndexByte(form, '_')
	return form[:us], form[us+1:]
}

func (x *exec) binALU(op, form string) *fault {
	dstTok, srcTok := splitForm(form)
	readOnly := op == "cmp" || op == "test"
	dst, f := x.resolveForm(dstTok, !readOnly)
	if f != nil {
		return f
	}
	src, f := x.resolveForm(srcTok, false)
	if f != nil {
		return f
	}
	a := x.refRead(dst)
	bv := x.refRead(src)
	w := dst.width
	var r uint64
	switch op {
	case "add":
		r = (a + bv) & maskW(w)
		x.addFlags(a, bv, 0, r, w)
	case "adc":
		cin := x.flag(x86.FlagCF)
		r = (a + bv + cin) & maskW(w)
		x.addFlags(a, bv, cin, r, w)
	case "sub", "cmp":
		r = (a - bv) & maskW(w)
		x.subFlags(a, bv, 0, r, w)
	case "sbb":
		cin := x.flag(x86.FlagCF)
		r = (a - bv - cin) & maskW(w)
		x.subFlags(a, bv, cin, r, w)
	case "and", "test":
		r = a & bv
		x.logicFlags(r, w)
	case "or":
		r = a | bv
		x.logicFlags(r, w)
	case "xor":
		r = a ^ bv
		x.logicFlags(r, w)
	}
	if !readOnly {
		x.refWrite(dst, r)
	}
	x.done()
	return nil
}

func (x *exec) incDec(isInc bool, form string) *fault {
	var dst opRef
	if form == "r" {
		dst = opRef{reg: -1, fixed: int8(x.inst.Opcode & 7), width: x.osz}
	} else {
		var f *fault
		dst, f = x.resolveForm(form, true)
		if f != nil {
			return f
		}
	}
	a := x.refRead(dst)
	var r uint64
	if isInc {
		r = (a + 1) & maskW(dst.width)
	} else {
		r = (a - 1) & maskW(dst.width)
	}
	x.incDecFlags(a, r, dst.width, !isInc)
	x.refWrite(dst, r)
	x.done()
	return nil
}

func (x *exec) notNeg(isNeg bool, form string) *fault {
	dst, f := x.resolveForm(form, true)
	if f != nil {
		return f
	}
	a := x.refRead(dst)
	w := dst.width
	if isNeg {
		r := -a & maskW(w)
		x.subFlags(0, a, 0, r, w)
		x.refWrite(dst, r)
	} else {
		x.refWrite(dst, ^a&maskW(w)) // NOT affects no flags
	}
	x.done()
	return nil
}

// mulOne is the one-operand mul/imul: widening multiply into xDX:xAX (or AX).
func (x *exec) mulOne(signed bool, form string) *fault {
	src, f := x.resolveForm(form, false)
	if f != nil {
		return f
	}
	w := src.width
	w2 := 2 * w
	a := x.gprRead(0, w) // AL / AX / EAX
	m := x.refRead(src)
	var wide uint64
	if signed {
		wide = uint64(signExt(a, w)*signExt(m, w)) & maskW(w2)
	} else {
		wide = a * m & maskW(w2)
	}
	lo := wide & maskW(w)
	hi := wide >> w & maskW(w)
	if w == 8 {
		x.gprWrite(0, 16, wide&0xffff) // AX
	} else {
		x.gprWrite(0, w, lo)
		x.gprWrite(2, w, hi) // DX / EDX
	}
	var over bool
	if signed {
		over = wide != uint64(signExt(lo, w))&maskW(w2)
	} else {
		over = hi != 0
	}
	x.setFlagB(x86.FlagCF, over)
	x.setFlagB(x86.FlagOF, over)
	x.mulUndefFlags()
	x.done()
	return nil
}

// mulUndefFlags applies the Bochs policy for the flags mul leaves
// undefined: SF/ZF/PF/AF forced to zero.
func (x *exec) mulUndefFlags() {
	x.setFlag(x86.FlagSF, 0)
	x.setFlag(x86.FlagZF, 0)
	x.setFlag(x86.FlagPF, 0)
	x.setFlag(x86.FlagAF, 0)
}

// imulMulti is the two/three-operand signed multiply (truncating).
func (x *exec) imulMulti(threeOp bool) *fault {
	w := x.osz
	w2 := 2 * w
	src, f := x.resolveRM(w, false)
	if f != nil {
		return f
	}
	m := x.rmRead(src)
	var a uint64
	if threeOp {
		a = x.inst.Imm & maskW(w)
	} else {
		a = x.gprRead(x.inst.RegField(), w)
	}
	wide := uint64(signExt(a, w)*signExt(m, w)) & maskW(w2)
	r := wide & maskW(w)
	over := wide != uint64(signExt(r, w))&maskW(w2)
	x.gprWrite(x.inst.RegField(), w, r)
	x.setFlagB(x86.FlagCF, over)
	x.setFlagB(x86.FlagOF, over)
	x.mulUndefFlags()
	x.done()
	return nil
}

// divide implements div/idiv with the #DE checks (divide by zero and
// quotient overflow). The divide-error fault leaves all state untouched
// and does not advance EIP.
func (x *exec) divide(signed bool, form string) *fault {
	src, f := x.resolveForm(form, false)
	if f != nil {
		return f
	}
	w := src.width
	w2 := 2 * w
	d := x.refRead(src)
	de := &fault{vec: x86.ExcDE}
	if d == 0 {
		return de
	}

	// Dividend: AX for byte ops, xDX:xAX otherwise.
	var dividend uint64
	if w == 8 {
		dividend = x.gprRead(0, 16)
	} else {
		dividend = x.gprRead(2, w)<<w | x.gprRead(0, w)
	}
	var q, r uint64
	if signed {
		// Signed division via magnitudes, rounding toward zero.
		dw := uint64(signExt(d, w)) & maskW(w2)
		negA := dividend>>(w2-1)&1 == 1
		negB := dw>>(w2-1)&1 == 1
		absA := dividend
		if negA {
			absA = -dividend & maskW(w2)
		}
		absB := dw
		if negB {
			absB = -dw & maskW(w2)
		}
		qm := absA / absB
		rm := absA % absB
		q = qm
		if negA != negB {
			q = -qm & maskW(w2)
		}
		r = rm
		if negA {
			r = -rm & maskW(w2)
		}
		// Overflow: quotient must fit in w bits signed.
		if uint64(signExt(q&maskW(w), w))&maskW(w2) != q {
			return de
		}
	} else {
		q = dividend / d
		r = dividend % d
		if q > maskW(w) {
			return de
		}
	}
	if w == 8 {
		x.gprWrite(0, 16, r&0xff<<8|q&0xff) // AH:AL
	} else {
		x.gprWrite(0, w, q&maskW(w))
		x.gprWrite(2, w, r&maskW(w))
	}
	// Bochs leaves the (architecturally undefined) flags unchanged.
	x.done()
	return nil
}

// shiftRotate implements the grp2 shift and rotate family. Forms are
// "<rm8|rmv>_<imm8|1|cl>". The destination is write-translated before the
// count check, so a faulting memory operand raises even for count 0.
func (x *exec) shiftRotate(op, form string) *fault {
	dstTok, amtTok := splitForm(form)
	dst, f := x.resolveForm(dstTok, true)
	if f != nil {
		return f
	}
	w := dst.width
	var count uint8
	switch amtTok {
	case "imm8":
		count = uint8(x.inst.Imm) & 0x1f
	case "1":
		count = 1
	case "cl":
		count = uint8(x.gprRead(1, 8)) & 0x1f
	}
	a := x.refRead(dst)

	// A zero (masked) count changes nothing, including flags.
	if count == 0 {
		x.done()
		return nil
	}

	isOne := count == 1
	// ShiftMultiOF is the Bochs policy: OF is the 1-bit formula for
	// count 1 and zero otherwise; rotates compute OF for every count.
	shiftOF := func(formula uint64) uint64 {
		if isOne {
			return formula
		}
		return 0
	}

	switch op {
	case "shl":
		wide := shlW(a, count, w+1)
		r := wide & maskW(w)
		cf := wide >> w & 1
		x.setFlag(x86.FlagCF, cf)
		x.setFlag(x86.FlagOF, shiftOF(r>>(w-1)&1^cf))
		x.szp(r, w)
		x.refWrite(dst, r)
	case "shr":
		r := shrW(a, count, w)
		x.setFlag(x86.FlagCF, shrW(a, count-1, w)&1)
		x.setFlag(x86.FlagOF, shiftOF(a>>(w-1)&1))
		x.szp(r, w)
		x.refWrite(dst, r)
	case "sar":
		r := sarW(a, count, w)
		x.setFlag(x86.FlagCF, sarW(a, count-1, w)&1)
		x.setFlag(x86.FlagOF, shiftOF(0))
		x.szp(r, w)
		x.refWrite(dst, r)
	case "rol", "ror":
		n := uint8(uint32(count) % uint32(w))
		wn := w - n
		var r uint64
		if op == "rol" {
			r = shlW(a, n, w) | shrW(a, wn, w)
		} else {
			r = shrW(a, n, w) | shlW(a, wn, w)
		}
		var cf uint64
		if op == "rol" {
			cf = r & 1
		} else {
			cf = r >> (w - 1) & 1
		}
		x.setFlag(x86.FlagCF, cf)
		if op == "rol" {
			x.setFlag(x86.FlagOF, r>>(w-1)&1^cf)
		} else {
			x.setFlag(x86.FlagOF, r>>(w-1)&1^r>>(w-2)&1)
		}
		x.refWrite(dst, r)
	case "rcl", "rcr":
		// (w+1)-bit rotate through CF.
		xv := x.flag(x86.FlagCF)<<w | a
		n := uint8(uint32(count) % uint32(w+1))
		wn := w + 1 - n
		var rx uint64
		if op == "rcl" {
			rx = shlW(xv, n, w+1) | shrW(xv, wn, w+1)
		} else {
			rx = shrW(xv, n, w+1) | shlW(xv, wn, w+1)
		}
		if n == 0 {
			rx = xv
		}
		r := rx & maskW(w)
		ncf := rx >> w & 1
		x.setFlag(x86.FlagCF, ncf)
		if op == "rcl" {
			x.setFlag(x86.FlagOF, r>>(w-1)&1^ncf)
		} else {
			x.setFlag(x86.FlagOF, r>>(w-1)&1^r>>(w-2)&1)
		}
		x.refWrite(dst, r)
	}
	x.done()
	return nil
}

func (x *exec) aam() *fault {
	imm := uint8(x.inst.Imm)
	if imm == 0 {
		return &fault{vec: x86.ExcDE}
	}
	al := uint8(x.gprRead(0, 8))
	q := al / imm
	r := al % imm
	x.gprWrite(0, 16, uint64(q)<<8|uint64(r)) // AH=q, AL=r
	x.szp(uint64(r), 8)
	x.aamUndef()
	x.done()
	return nil
}

func (x *exec) aad() *fault {
	imm := uint8(x.inst.Imm)
	ax := x.gprRead(0, 16)
	al := uint8(ax)
	ah := uint8(ax >> 8)
	r := al + ah*imm             // 8-bit lane, wraps
	x.gprWrite(0, 16, uint64(r)) // AH=0
	x.szp(uint64(r), 8)
	x.aamUndef()
	x.done()
	return nil
}

// aamUndef applies the Bochs policy for aam/aad's undefined flags.
func (x *exec) aamUndef() {
	x.setFlag(x86.FlagCF, 0)
	x.setFlag(x86.FlagOF, 0)
	x.setFlag(x86.FlagAF, 0)
}

func (x *exec) cwde() *fault {
	if x.osz == 32 {
		x.gprWrite(0, 32, uint64(signExt(x.gprRead(0, 16), 16))&maskW(32))
	} else { // cbw
		x.gprWrite(0, 16, uint64(signExt(x.gprRead(0, 8), 8))&maskW(16))
	}
	x.done()
	return nil
}

func (x *exec) cdq() *fault {
	w := x.osz
	var fill uint64
	if x.gprRead(0, w)>>(w-1)&1 == 1 {
		fill = maskW(w)
	}
	x.gprWrite(2, w, fill)
	x.done()
	return nil
}

func (x *exec) lahf() *fault {
	v := x.flag(x86.FlagCF) |
		2 | // fixed bit 1
		x.flag(x86.FlagPF)<<2 |
		x.flag(x86.FlagAF)<<4 |
		x.flag(x86.FlagZF)<<6 |
		x.flag(x86.FlagSF)<<7
	x.gprWrite(4, 8, v) // AH
	x.done()
	return nil
}

func (x *exec) sahf() *fault {
	ah := x.gprRead(4, 8)
	x.setFlag(x86.FlagCF, ah&1)
	x.setFlag(x86.FlagPF, ah>>2&1)
	x.setFlag(x86.FlagAF, ah>>4&1)
	x.setFlag(x86.FlagZF, ah>>6&1)
	x.setFlag(x86.FlagSF, ah>>7&1)
	x.done()
	return nil
}

func (x *exec) flagOp(op string) *fault {
	switch op {
	case "clc":
		x.setFlag(x86.FlagCF, 0)
	case "stc":
		x.setFlag(x86.FlagCF, 1)
	case "cmc":
		x.setFlag(x86.FlagCF, x.flag(x86.FlagCF)^1)
	case "cld":
		x.setFlag(x86.FlagDF, 0)
	case "std":
		x.setFlag(x86.FlagDF, 1)
	case "cli":
		x.setFlag(x86.FlagIF, 0)
	case "sti":
		x.setFlag(x86.FlagIF, 1)
	}
	x.done()
	return nil
}

func (x *exec) xchg(form string) *fault {
	if form == "eax_r" {
		w := x.osz
		r := x.inst.Opcode & 7
		a := x.gprRead(0, w)
		bv := x.gprRead(r, w)
		x.gprWrite(0, w, bv)
		x.gprWrite(r, w, a)
		x.done()
		return nil
	}
	dstTok, _ := splitForm(form)
	dst, f := x.resolveForm(dstTok, true)
	if f != nil {
		return f
	}
	src := opRef{reg: int8(x.inst.RegField()), fixed: -1, width: dst.width}
	a := x.refRead(dst)
	bv := x.refRead(src)
	x.refWrite(dst, bv)
	x.refWrite(src, a)
	x.done()
	return nil
}

func (x *exec) xadd(form string) *fault {
	dstTok, _ := splitForm(form)
	dst, f := x.resolveForm(dstTok, true)
	if f != nil {
		return f
	}
	src := opRef{reg: int8(x.inst.RegField()), fixed: -1, width: dst.width}
	a := x.refRead(dst)
	bv := x.refRead(src)
	sum := (a + bv) & maskW(dst.width)
	x.addFlags(a, bv, 0, sum, dst.width)
	x.refWrite(src, a) // source register sees the old value first
	x.refWrite(dst, sum)
	x.done()
	return nil
}

// cmpxchg: compare the accumulator with dst; on match store src, otherwise
// reload the accumulator. The destination is written in either case, so
// write permission is verified before any register update.
func (x *exec) cmpxchg(form string) *fault {
	dstTok, _ := splitForm(form)
	dst, f := x.resolveForm(dstTok, true) // write-translated up front
	if f != nil {
		return f
	}
	w := dst.width
	acc := x.gprRead(0, w)
	old := x.refRead(dst)
	src := x.gprRead(x.inst.RegField(), w)
	x.subFlags(acc, old, 0, (acc-old)&maskW(w), w)
	if acc == old {
		x.refWrite(dst, src)
	} else {
		x.refWrite(dst, old)
		x.gprWrite(0, w, old) // accumulator reloaded only on mismatch
	}
	x.done()
	return nil
}

func (x *exec) bswap() *fault {
	r := x.inst.Opcode & 7
	a := uint32(x.gprRead(r, 32))
	x.gprWrite(r, 32, uint64(a>>24|a>>8&0xff00|a<<8&0xff0000|a<<24))
	x.done()
	return nil
}
