package asm

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"spt/internal/isa"
)

// maxDataBytes caps the data image one source may declare: 4 MiB, 8x the
// largest built-in workload's data. Past it, or past the top of the address
// space, a data directive is an error, so a count such as
// ".zero 0x7fffffffffffffff" cannot panic or allocate without bound.
const maxDataBytes = 1 << 22

// Assemble parses µRISC assembly text into a program. The syntax matches
// the disassembler's output plus labels and directives:
//
//	; line comment (also #)
//	.data 0x1000          ; set data cursor
//	.byte 1, 2, 0xff      ; emit bytes at the cursor
//	.quad 0xdeadbeef, 7   ; emit 64-bit little-endian words
//	.zero 64              ; emit zero bytes
//	.entry main           ; set the entry label
//	main:
//	  movi r1, 10
//	loop:
//	  addi r1, r1, -1
//	  bne r1, r0, loop    ; branch targets: label or numeric offset
//	  ld r2, 8(r1)        ; loads/stores use offset(base)
//	  st r2, 0(r1)
//	  jal r1, func        ; jal target: label or numeric offset
//	  jalr r0, 0(r1)
//	  halt
func Assemble(name, src string) (*isa.Program, error) {
	b := NewBuilder(name)
	var (
		dataCursor uint64
		dataOpen   bool
		dataStart  uint64
		dataBytes  []byte
		dataTotal  uint64 // bytes emitted into every section so far
	)
	// reserve admits n more data bytes at the cursor, or says why not.
	reserve := func(n uint64) error {
		if n > maxDataBytes-dataTotal {
			return fmt.Errorf("data image exceeds %d bytes", maxDataBytes)
		}
		if n > math.MaxUint64-dataCursor {
			return fmt.Errorf("data cursor %#x runs past the end of memory", dataCursor)
		}
		dataTotal += n
		dataCursor += n
		return nil
	}
	flushData := func() {
		if dataOpen && len(dataBytes) > 0 {
			b.Data(dataStart, dataBytes)
		}
		dataBytes = nil
		dataOpen = false
	}

	for lineNo, raw := range strings.Split(src, "\n") {
		line := raw
		if i := strings.IndexAny(line, ";#"); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		fail := func(format string, args ...any) error {
			return fmt.Errorf("asm: line %d: %s", lineNo+1, fmt.Sprintf(format, args...))
		}

		// Directives.
		if strings.HasPrefix(line, ".") {
			fields := splitOperands(line)
			switch fields[0] {
			case ".data":
				if len(fields) != 2 {
					return nil, fail(".data needs an address")
				}
				addr, err := parseImm(fields[1])
				if err != nil {
					return nil, fail("bad address: %v", err)
				}
				flushData()
				dataCursor = uint64(addr)
				dataStart = dataCursor
				dataOpen = true
			case ".byte", ".quad":
				if !dataOpen {
					return nil, fail("%s outside a .data section", fields[0])
				}
				for _, f := range fields[1:] {
					v, err := parseImm(f)
					if err != nil {
						return nil, fail("bad value %q: %v", f, err)
					}
					if fields[0] == ".byte" {
						if err := reserve(1); err != nil {
							return nil, fail("%v", err)
						}
						dataBytes = append(dataBytes, byte(v))
					} else {
						if err := reserve(8); err != nil {
							return nil, fail("%v", err)
						}
						for j := 0; j < 8; j++ {
							dataBytes = append(dataBytes, byte(uint64(v)>>(8*j)))
						}
					}
				}
			case ".zero":
				if !dataOpen {
					return nil, fail(".zero outside a .data section")
				}
				if len(fields) != 2 {
					return nil, fail(".zero needs a count")
				}
				n, err := parseImm(fields[1])
				if err != nil || n < 0 {
					return nil, fail("bad count %q", fields[1])
				}
				if err := reserve(uint64(n)); err != nil {
					return nil, fail("%v", err)
				}
				dataBytes = append(dataBytes, make([]byte, n)...)
			case ".entry":
				if len(fields) != 2 {
					return nil, fail(".entry needs a label")
				}
				b.Entry(fields[1])
			case ".text":
				flushData()
			default:
				return nil, fail("unknown directive %q", fields[0])
			}
			continue
		}

		// Labels (possibly followed by an instruction on the same line).
		for {
			i := strings.Index(line, ":")
			if i < 0 {
				break
			}
			label := strings.TrimSpace(line[:i])
			if !isIdent(label) {
				return nil, fail("bad label %q", label)
			}
			if _, dup := b.labels[label]; dup {
				return nil, fail("duplicate label %q", label)
			}
			b.Label(label)
			line = strings.TrimSpace(line[i+1:])
		}
		if line == "" {
			continue
		}

		if err := assembleInstruction(b, line); err != nil {
			return nil, fail("%v", err)
		}
	}
	flushData()
	return b.Build()
}

// MustAssemble is Assemble that panics on error.
func MustAssemble(name, src string) *isa.Program {
	p, err := Assemble(name, src)
	if err != nil {
		panic(err)
	}
	return p
}

func assembleInstruction(b *Builder, line string) error {
	sp := strings.IndexAny(line, " \t")
	mnemonic := line
	rest := ""
	if sp >= 0 {
		mnemonic = line[:sp]
		rest = strings.TrimSpace(line[sp+1:])
	}
	op, ok := isa.OpByName(strings.ToLower(mnemonic))
	if !ok {
		return fmt.Errorf("unknown mnemonic %q", mnemonic)
	}
	args := splitOperandsList(rest)
	proto := isa.Instruction{Op: op}

	switch {
	case op == isa.NOP || op == isa.HALT:
		if len(args) != 0 {
			return fmt.Errorf("%v takes no operands", op)
		}
		b.emit(proto)
	case op == isa.MOVI:
		rd, err := parseReg(args, 0)
		if err != nil {
			return err
		}
		imm, err := parseImmArg(args, 1)
		if err != nil {
			return err
		}
		b.Movi(rd, imm)
	case op == isa.MOV:
		rd, err := parseReg(args, 0)
		if err != nil {
			return err
		}
		rs, err := parseReg(args, 1)
		if err != nil {
			return err
		}
		b.Mov(rd, rs)
	case op >= isa.ADDI && op <= isa.SLTI:
		rd, err := parseReg(args, 0)
		if err != nil {
			return err
		}
		rs, err := parseReg(args, 1)
		if err != nil {
			return err
		}
		imm, err := parseImmArg(args, 2)
		if err != nil {
			return err
		}
		b.OpI(op, rd, rs, imm)
	case proto.IsLoad():
		rd, err := parseReg(args, 0)
		if err != nil {
			return err
		}
		imm, base, err := parseMemOperand(args, 1)
		if err != nil {
			return err
		}
		b.emit(isa.Instruction{Op: op, Rd: rd, Rs1: base, Imm: imm})
	case proto.IsStore():
		rv, err := parseReg(args, 0)
		if err != nil {
			return err
		}
		imm, base, err := parseMemOperand(args, 1)
		if err != nil {
			return err
		}
		b.emit(isa.Instruction{Op: op, Rs1: base, Rs2: rv, Imm: imm})
	case proto.IsCondBranch():
		rs1, err := parseReg(args, 0)
		if err != nil {
			return err
		}
		rs2, err := parseReg(args, 1)
		if err != nil {
			return err
		}
		if len(args) != 3 {
			return fmt.Errorf("%v needs a target", op)
		}
		if isIdent(args[2]) {
			b.Branch(op, rs1, rs2, args[2])
		} else {
			imm, err := parseImm(args[2])
			if err != nil {
				return err
			}
			b.emit(isa.Instruction{Op: op, Rs1: rs1, Rs2: rs2, Imm: imm})
		}
	case op == isa.JAL:
		rd, err := parseReg(args, 0)
		if err != nil {
			return err
		}
		if len(args) != 2 {
			return fmt.Errorf("jal needs a target")
		}
		if isIdent(args[1]) {
			b.emitBranch(isa.Instruction{Op: isa.JAL, Rd: rd}, args[1])
		} else {
			imm, err := parseImm(args[1])
			if err != nil {
				return err
			}
			b.emit(isa.Instruction{Op: isa.JAL, Rd: rd, Imm: imm})
		}
	case op == isa.JALR:
		rd, err := parseReg(args, 0)
		if err != nil {
			return err
		}
		imm, base, err := parseMemOperand(args, 1)
		if err != nil {
			return err
		}
		b.emit(isa.Instruction{Op: isa.JALR, Rd: rd, Rs1: base, Imm: imm})
	default:
		// Remaining register-register ALU ops.
		rd, err := parseReg(args, 0)
		if err != nil {
			return err
		}
		rs1, err := parseReg(args, 1)
		if err != nil {
			return err
		}
		rs2, err := parseReg(args, 2)
		if err != nil {
			return err
		}
		b.Op3(op, rd, rs1, rs2)
	}
	return nil
}

func splitOperands(line string) []string {
	fields := strings.FieldsFunc(line, func(r rune) bool { return r == ' ' || r == '\t' || r == ',' })
	out := fields[:0]
	for _, f := range fields {
		if f != "" {
			out = append(out, f)
		}
	}
	return out
}

func splitOperandsList(rest string) []string {
	if rest == "" {
		return nil
	}
	parts := strings.Split(rest, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}

func parseReg(args []string, i int) (isa.Reg, error) {
	if i >= len(args) {
		return 0, fmt.Errorf("missing register operand %d", i)
	}
	s := strings.ToLower(args[i])
	switch s {
	case "zero":
		return isa.Zero, nil
	case "ra":
		return isa.RA, nil
	case "sp":
		return isa.SP, nil
	case "gp":
		return isa.GP, nil
	case "tp":
		return isa.TP, nil
	}
	if !strings.HasPrefix(s, "r") {
		return 0, fmt.Errorf("bad register %q", args[i])
	}
	n, err := strconv.Atoi(s[1:])
	if err != nil || n < 0 || n >= isa.NumRegs {
		return 0, fmt.Errorf("bad register %q", args[i])
	}
	return isa.Reg(n), nil
}

func parseImmArg(args []string, i int) (int64, error) {
	if i >= len(args) {
		return 0, fmt.Errorf("missing immediate operand %d", i)
	}
	return parseImm(args[i])
}

func parseImm(s string) (int64, error) {
	v, err := strconv.ParseInt(s, 0, 64)
	if err != nil {
		// Large unsigned hex constants.
		u, uerr := strconv.ParseUint(s, 0, 64)
		if uerr != nil {
			return 0, err
		}
		return int64(u), nil
	}
	return v, nil
}

// parseMemOperand parses "imm(base)" or "(base)".
func parseMemOperand(args []string, i int) (int64, isa.Reg, error) {
	if i >= len(args) {
		return 0, 0, fmt.Errorf("missing memory operand %d", i)
	}
	s := args[i]
	open := strings.Index(s, "(")
	if open < 0 || !strings.HasSuffix(s, ")") {
		return 0, 0, fmt.Errorf("bad memory operand %q (want imm(base))", s)
	}
	var imm int64
	var err error
	if open > 0 {
		imm, err = parseImm(s[:open])
		if err != nil {
			return 0, 0, fmt.Errorf("bad offset in %q: %v", s, err)
		}
	}
	base, err := parseReg([]string{s[open+1 : len(s)-1]}, 0)
	if err != nil {
		return 0, 0, err
	}
	return imm, base, nil
}

func isIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == '.':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	// Bare register names are not labels.
	if _, err := parseReg([]string{s}, 0); err == nil {
		return false
	}
	return true
}

// Disassemble renders a program as assembler text that Assemble accepts.
func Disassemble(p *isa.Program) string {
	var sb strings.Builder
	if len(p.Data) > 0 {
		for _, seg := range p.Data {
			fmt.Fprintf(&sb, ".data 0x%x\n", seg.Addr)
			for i := 0; i < len(seg.Bytes); i += 16 {
				end := i + 16
				if end > len(seg.Bytes) {
					end = len(seg.Bytes)
				}
				sb.WriteString(".byte ")
				for j := i; j < end; j++ {
					if j > i {
						sb.WriteString(", ")
					}
					fmt.Fprintf(&sb, "%d", seg.Bytes[j])
				}
				sb.WriteString("\n")
			}
		}
		sb.WriteString(".text\n")
	}
	for pc, ins := range p.Code {
		fmt.Fprintf(&sb, "%s ; pc=%d\n", ins.String(), pc)
	}
	return sb.String()
}
