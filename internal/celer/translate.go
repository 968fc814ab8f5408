package celer

import (
	"strings"

	"pokeemu/internal/x86"
)

// translate builds the executable for one decoded instruction, lowered
// exactly once at translation time: all name parsing and form dispatch
// happens here, and the returned closure touches no strings.
func translate(inst *x86.Inst) opFunc {
	// LOCK prefix legality matches the architecture.
	if inst.Lock && (!inst.Spec.LockOK || inst.IsRegForm() || !inst.HasModRM) {
		return func(e *Emulator) *fault { return &fault{vec: x86.ExcUD} }
	}
	return lower(inst)
}

// lower dispatches one decoded instruction to its lowering constructor.
// Dispatch cost (string splits, form token parsing, condition-code lookup)
// is paid once per translation-cache miss, never per executed instruction.
func lower(inst *x86.Inst) opFunc {
	name := inst.Spec.Name
	osz := uint8(inst.OpSize)

	// Family parsing like the reference semantics.
	op := name
	form := ""
	if us := strings.IndexByte(name, '_'); us >= 0 {
		op, form = name[:us], name[us+1:]
	}

	switch op {
	case "add", "or", "adc", "sbb", "and", "sub", "xor", "cmp", "test":
		return lowerBinALU(inst, op, form, osz)
	case "inc", "dec":
		return lowerIncDec(inst, op == "inc", form, osz)
	case "not", "neg":
		return lowerNotNeg(inst, op == "neg", form, osz)
	case "mul", "imul", "imul1":
		return lowerMulOne(inst, op != "mul", form, osz)
	case "imul2", "imul3":
		return lowerImulMulti(inst, op == "imul3", osz)
	case "div", "idiv":
		return lowerDivide(inst, op == "idiv", form, osz)
	case "rol", "ror", "rcl", "rcr", "shl", "shr", "sar":
		return lowerShiftRotate(inst, op, form, osz)
	case "movs", "cmps", "stos", "lods", "scas":
		return lowerStringOp(inst, op, form, osz)
	}

	switch name {
	case "nop":
		return func(e *Emulator) *fault { return e.finish(inst) }
	case "ud2":
		return func(e *Emulator) *fault { return &fault{vec: x86.ExcUD} }
	case "hlt":
		return func(e *Emulator) *fault {
			e.finish(inst)
			return &fault{vec: vecHalt}
		}
	case "mov_rm8_r8", "mov_rmv_rv", "mov_r8_rm8", "mov_rv_rmv",
		"mov_rm8_imm8", "mov_rmv_immv":
		return lowerMovGeneric(inst, strings.TrimPrefix(name, "mov_"), osz)
	case "mov_r8_imm8":
		r, v := inst.Opcode&7, uint32(inst.Imm)
		return func(e *Emulator) *fault {
			e.gprWrite(r, 8, v)
			return e.finish(inst)
		}
	case "mov_r_immv":
		r, v := inst.Opcode&7, uint32(inst.Imm)
		return func(e *Emulator) *fault {
			e.gprWrite(r, osz, v)
			return e.finish(inst)
		}
	case "mov_al_moffs", "mov_eax_moffs", "mov_moffs_al", "mov_moffs_eax":
		return lowerMovMoffs(inst, name, osz)
	case "lea":
		return func(e *Emulator) *fault {
			_, off := e.effAddr(inst)
			e.gprWrite(inst.RegField(), osz, off)
			return e.finish(inst)
		}
	case "movzx_rv_rm8", "movzx_rv_rm16", "movsx_rv_rm8", "movsx_rv_rm16":
		return lowerMovExtend(inst, name, osz)
	case "xlat":
		seg := x86.DS
		if inst.SegOverride >= 0 {
			seg = x86.SegReg(inst.SegOverride)
		}
		return func(e *Emulator) *fault {
			v, f := e.memRead(seg, e.m.GPR[x86.EBX]+e.gprRead(0, 8), 1)
			if f != nil {
				return f
			}
			e.gprWrite(0, 8, v)
			return e.finish(inst)
		}
	case "xchg_eax_r":
		r := inst.Opcode & 7
		return func(e *Emulator) *fault {
			a, b := e.gprRead(0, osz), e.gprRead(r, osz)
			e.gprWrite(0, osz, b)
			e.gprWrite(r, osz, a)
			return e.finish(inst)
		}
	case "xchg_rm8_r8", "xchg_rmv_rv":
		w := osz
		if name == "xchg_rm8_r8" {
			w = 8
		}
		return func(e *Emulator) *fault {
			dst, f := e.resolveRM(inst, w, true)
			if f != nil {
				return f
			}
			a, _ := e.readPlace(dst)
			b := e.gprRead(inst.RegField(), w)
			e.writePlace(dst, b)
			e.gprWrite(inst.RegField(), w, a)
			return e.finish(inst)
		}
	case "xadd_rm8_r8", "xadd_rmv_rv":
		w := osz
		if name == "xadd_rm8_r8" {
			w = 8
		}
		return func(e *Emulator) *fault {
			dst, f := e.resolveRM(inst, w, true)
			if f != nil {
				return f
			}
			a, _ := e.readPlace(dst)
			b := e.gprRead(inst.RegField(), w)
			sum := (a + b) & mask(w)
			e.addFlags(a, b, 0, sum, w)
			e.gprWrite(inst.RegField(), w, a)
			e.writePlace(dst, sum)
			return e.finish(inst)
		}
	case "cmpxchg_rm8_r8", "cmpxchg_rmv_rv":
		return lowerCmpxchg(inst, name == "cmpxchg_rm8_r8", osz)
	case "bswap":
		r := inst.Opcode & 7
		return func(e *Emulator) *fault {
			v := e.m.GPR[r]
			e.m.GPR[r] = v<<24 | v>>24 | v<<8&0xff0000 | v>>8&0xff00
			return e.finish(inst)
		}
	case "cwde":
		if osz == 32 {
			return func(e *Emulator) *fault {
				e.gprWrite(0, 32, uint32(int32(int16(e.gprRead(0, 16)))))
				return e.finish(inst)
			}
		}
		return func(e *Emulator) *fault {
			e.gprWrite(0, 16, uint32(int16(int8(e.gprRead(0, 8)))))
			return e.finish(inst)
		}
	case "cdq":
		return func(e *Emulator) *fault {
			a := e.gprRead(0, osz)
			if a>>(osz-1)&1 == 1 {
				e.gprWrite(2, osz, mask(osz))
			} else {
				e.gprWrite(2, osz, 0)
			}
			return e.finish(inst)
		}
	case "lahf":
		return func(e *Emulator) *fault {
			v := e.flag(x86.FlagCF) | 2 | e.flag(x86.FlagPF)<<2 |
				e.flag(x86.FlagAF)<<4 | e.flag(x86.FlagZF)<<6 | e.flag(x86.FlagSF)<<7
			e.gprWrite(4, 8, v)
			return e.finish(inst)
		}
	case "sahf":
		return func(e *Emulator) *fault {
			ah := e.gprRead(4, 8)
			e.setFlagBit(x86.FlagCF, ah)
			e.setFlagBit(x86.FlagPF, ah>>2)
			e.setFlagBit(x86.FlagAF, ah>>4)
			e.setFlagBit(x86.FlagZF, ah>>6)
			e.setFlagBit(x86.FlagSF, ah>>7)
			return e.finish(inst)
		}
	case "clc":
		return lowerSetFlag(inst, x86.FlagCF, 0)
	case "stc":
		return lowerSetFlag(inst, x86.FlagCF, 1)
	case "cmc":
		return func(e *Emulator) *fault {
			e.setFlagBit(x86.FlagCF, e.flag(x86.FlagCF)^1)
			return e.finish(inst)
		}
	case "cld":
		return lowerSetFlag(inst, x86.FlagDF, 0)
	case "std":
		return lowerSetFlag(inst, x86.FlagDF, 1)
	case "cli":
		return lowerSetFlag(inst, x86.FlagIF, 0)
	case "sti":
		return lowerSetFlag(inst, x86.FlagIF, 1)
	case "aam":
		imm := uint32(inst.Imm) & 0xff
		if imm == 0 {
			return func(e *Emulator) *fault { return &fault{vec: x86.ExcDE} }
		}
		return func(e *Emulator) *fault {
			al := e.gprRead(0, 8)
			e.gprWrite(4, 8, al/imm)
			e.gprWrite(0, 8, al%imm)
			e.setSZP(al%imm, 8)
			e.setFlagBit(x86.FlagCF, 0)
			e.setFlagBit(x86.FlagOF, 0)
			e.setFlagBit(x86.FlagAF, 0)
			return e.finish(inst)
		}
	case "aad":
		imm := uint32(inst.Imm) & 0xff
		return func(e *Emulator) *fault {
			r := (e.gprRead(0, 8) + e.gprRead(4, 8)*imm) & 0xff
			e.gprWrite(0, 16, r)
			e.setSZP(r, 8)
			e.setFlagBit(x86.FlagCF, 0)
			e.setFlagBit(x86.FlagOF, 0)
			e.setFlagBit(x86.FlagAF, 0)
			return e.finish(inst)
		}
	}

	if fn, handled := lowerStackFlow(inst, name, osz); handled {
		return fn
	}
	if fn, handled := lowerSystem(inst, name, osz); handled {
		return fn
	}
	if fn, handled := lowerBits(inst, name, osz); handled {
		return fn
	}
	panic("celer: no implementation for handler " + name)
}

func lowerSetFlag(inst *x86.Inst, bit uint8, v uint32) opFunc {
	return func(e *Emulator) *fault {
		e.setFlagBit(bit, v)
		return e.finish(inst)
	}
}
