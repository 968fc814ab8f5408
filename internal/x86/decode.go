package x86

// MaxInstLen is the architectural instruction length limit.
const MaxInstLen = 15

// ByteRole classifies how the decoder treats the byte at position
// len(prefix) of an instruction that starts with the given bytes. The
// symbolic instruction-set exploration (internal/core) uses this to branch
// only where the decoder's own control flow branches: table dispatches are
// full 256-way enumerations, the SIB byte contributes a single two-way
// displacement predicate, and immediate/displacement bytes are never
// branched on.
type ByteRole int

// Byte roles.
const (
	RoleDispatch ByteRole = iota // prefix, opcode, second opcode, or ModRM
	RoleSIB                      // SIB byte: one two-way branch
	RoleOther                    // immediate or displacement: no branching
)

// NextByteRole reports the role of the next byte after the given prefix of
// an instruction encoding.
func NextByteRole(prefix []byte) ByteRole {
	i := 0
	// Skip legacy prefixes.
	for i < len(prefix) {
		if Tab1[prefix[i]].Kind != tabPrefix {
			break
		}
		i++
	}
	if i >= len(prefix) {
		return RoleDispatch // next byte is the opcode
	}
	op := prefix[i]
	i++
	entry := Tab1[op]
	if entry.Kind == tabEscape {
		if i >= len(prefix) {
			return RoleDispatch // next byte is the second opcode
		}
		entry = Tab2[prefix[i]]
		i++
	}
	var spec *OpSpec
	var modrm byte
	haveModRM := false
	switch entry.Kind {
	case tabInsn:
		spec = entry.Spec
	case tabGroup:
		if i >= len(prefix) {
			return RoleDispatch // next byte is the ModRM (selects the handler)
		}
		modrm = prefix[i]
		haveModRM = true
		spec = entry.Group[modrm>>3&7]
		i++
	default:
		return RoleOther // invalid opcode: nothing further is inspected
	}
	if spec == nil {
		return RoleOther
	}
	if spec.HasModRM() && !haveModRM {
		if i >= len(prefix) {
			return RoleDispatch // next byte is the ModRM
		}
		modrm = prefix[i]
		haveModRM = true
		i++
	}
	if haveModRM && modrm>>6 != 3 && modrm&7 == 4 && i >= len(prefix) {
		return RoleSIB
	}
	return RoleOther
}

// Decode parses one instruction from code. It implements the decode logic
// whose branch structure the instruction-set exploration walks symbolically:
// prefix loop → opcode (1 or 2 bytes) → group sub-opcode → ModRM/SIB/
// displacement → immediates. The returned Inst owns a private copy of the
// consumed bytes.
func Decode(code []byte) (*Inst, error) {
	inst := new(Inst)
	if err := DecodeInto(code, inst); err != nil {
		return nil, err
	}
	inst.Raw = append([]byte(nil), inst.Raw...)
	return inst, nil
}

// DecodeInto is Decode into a caller-owned Inst, for loops that decode many
// instructions without keeping them. It resets every field of *inst first,
// so nothing of a previous decode survives. On success inst.Raw aliases
// code[:inst.Len]: it is valid only while the caller leaves code unchanged.
// On error *inst holds no meaningful instruction.
func DecodeInto(code []byte, inst *Inst) error {
	*inst = Inst{OpSize: 32, SegOverride: -1}
	d := decoder{code: code, inst: inst}
	if err := d.run(); err != nil {
		return err
	}
	inst.Raw = code[:d.pos:d.pos]
	inst.Len = d.pos
	return nil
}

type decoder struct {
	code []byte
	pos  int
	inst *Inst
}

func (d *decoder) byte() (byte, error) {
	if d.pos >= len(d.code) {
		return 0, &DecodeError{Kind: ErrTruncated, Pos: d.pos}
	}
	if d.pos >= MaxInstLen {
		return 0, &DecodeError{Kind: ErrTooLong, Pos: d.pos}
	}
	b := d.code[d.pos]
	d.pos++
	return b, nil
}

func (d *decoder) u16() (uint32, error) {
	lo, err := d.byte()
	if err != nil {
		return 0, err
	}
	hi, err := d.byte()
	if err != nil {
		return 0, err
	}
	return uint32(lo) | uint32(hi)<<8, nil
}

func (d *decoder) u32() (uint32, error) {
	lo, err := d.u16()
	if err != nil {
		return 0, err
	}
	hi, err := d.u16()
	if err != nil {
		return 0, err
	}
	return lo | hi<<16, nil
}

// run decodes into d.inst, which the caller has reset.
func (d *decoder) run() error {
	inst := d.inst

	// Prefix loop. Each prefix byte may appear; repeats are tolerated as on
	// hardware (the last segment override wins).
	var entry tabEntry
	var op byte
	for {
		b, err := d.byte()
		if err != nil {
			return err
		}
		e := Tab1[b]
		if e.Kind == tabPrefix {
			switch e.Prefix {
			case pfxOpSize:
				inst.OpSize = 16
			case pfxLock:
				inst.Lock = true
			case pfxRep:
				inst.Rep, inst.RepNE = true, false
			case pfxRepNE:
				inst.RepNE, inst.Rep = true, false
			case pfxSegES:
				inst.SegOverride = int(ES)
			case pfxSegCS:
				inst.SegOverride = int(CS)
			case pfxSegSS:
				inst.SegOverride = int(SS)
			case pfxSegDS:
				inst.SegOverride = int(DS)
			case pfxSegFS:
				inst.SegOverride = int(FS)
			case pfxSegGS:
				inst.SegOverride = int(GS)
			}
			continue
		}
		entry, op = e, b
		break
	}

	// Two-byte escape.
	if entry.Kind == tabEscape {
		b, err := d.byte()
		if err != nil {
			return err
		}
		entry, op = Tab2[b], b
		inst.TwoByte = true
	}
	inst.Opcode = op

	switch entry.Kind {
	case tabInsn:
		inst.Spec = entry.Spec
	case tabGroup:
		// The group sub-opcode lives in the ModRM reg field; peek it now,
		// the ModRM byte itself is consumed below.
		if d.pos >= len(d.code) {
			return &DecodeError{Kind: ErrTruncated, Pos: d.pos}
		}
		reg := d.code[d.pos] >> 3 & 7
		spec := entry.Group[reg]
		if spec == nil {
			return &DecodeError{Kind: ErrUndefined, Pos: d.pos}
		}
		inst.Spec = spec
	default:
		return &DecodeError{Kind: ErrUndefined, Pos: d.pos - 1}
	}

	if inst.Spec.HasModRM() {
		if err := d.modRM(inst); err != nil {
			return err
		}
		// Memory-only forms (#UD when mod = 11).
		for _, k := range inst.Spec.Operands {
			if k == OpdM && inst.Mod() == 3 {
				return &DecodeError{Kind: ErrUndefined, Pos: d.pos}
			}
		}
	}

	// Immediates and displacement-like trailing fields.
	for _, k := range inst.Spec.Operands {
		switch k {
		case OpdImm8, OpdRel8:
			b, err := d.byte()
			if err != nil {
				return err
			}
			if inst.ImmSize == 0 {
				inst.Imm, inst.ImmSize = uint64(b), 1
			} else {
				inst.Imm2 = uint32(b)
			}
		case OpdImm8s:
			b, err := d.byte()
			if err != nil {
				return err
			}
			v := uint64(int64(int8(b))) & maskFor(inst.OpSize)
			inst.Imm, inst.ImmSize = v, 1
		case OpdImm16:
			v, err := d.u16()
			if err != nil {
				return err
			}
			if inst.ImmSize == 0 {
				inst.Imm, inst.ImmSize = uint64(v), 2
			} else {
				inst.Imm2 = v
			}
		case OpdImmv, OpdRelv:
			var v uint32
			var err error
			if inst.OpSize == 16 {
				v, err = d.u16()
				inst.ImmSize = 2
			} else {
				v, err = d.u32()
				inst.ImmSize = 4
			}
			if err != nil {
				return err
			}
			if k == OpdRelv && inst.OpSize == 16 {
				v = uint32(int32(int16(v))) // rel16 sign-extends
			}
			inst.Imm = uint64(v)
		case OpdMoffs8, OpdMoffsv:
			v, err := d.u32()
			if err != nil {
				return err
			}
			inst.Disp, inst.DispSize = v, 4
		}
	}
	return nil
}

func maskFor(opSize int) uint64 {
	if opSize == 16 {
		return 0xffff
	}
	return 0xffffffff
}

func (d *decoder) modRM(inst *Inst) error {
	m, err := d.byte()
	if err != nil {
		return err
	}
	inst.HasModRM = true
	inst.ModRM = m
	mod, rm := m>>6, m&7

	// Control-register moves ignore mod and always use the register form.
	for _, k := range inst.Spec.Operands {
		if k == OpdCRn {
			inst.ModRM |= 0xc0
			return nil
		}
	}

	if mod == 3 {
		return nil
	}
	if rm == 4 { // SIB byte
		sib, err := d.byte()
		if err != nil {
			return err
		}
		inst.HasSIB = true
		inst.SIB = sib
		if mod == 0 && sib&7 == 5 {
			disp, err := d.u32()
			if err != nil {
				return err
			}
			inst.Disp, inst.DispSize = disp, 4
		}
	}
	switch {
	case mod == 0 && rm == 5:
		disp, err := d.u32()
		if err != nil {
			return err
		}
		inst.Disp, inst.DispSize = disp, 4
	case mod == 1:
		b, err := d.byte()
		if err != nil {
			return err
		}
		inst.Disp, inst.DispSize = uint32(int32(int8(b))), 1
	case mod == 2:
		disp, err := d.u32()
		if err != nil {
			return err
		}
		inst.Disp, inst.DispSize = disp, 4
	}
	return nil
}
