// Package workloads provides the µRISC programs the evaluation runs: 16
// SPEC-CPU2017-like synthetic kernels, three constant-time crypto/sorting
// kernels, and a random-program generator used by the property tests.
// See doc.go for the kernel inventory.
package workloads

import (
	"fmt"
	"math/rand"

	"spt/internal/asm"
	"spt/internal/isa"
)

// RandomProgram generates a terminating µRISC program exercising ALU ops,
// loads/stores (with frequent address aliasing to provoke store-to-load
// forwarding and memory-dependence violations), bounded loops, forward
// branches, and calls. The generated programs are used to property-test
// that the out-of-order core matches the functional emulator, and as
// filler by the leakage fuzzer. The program is a pure function of
// (seed, size) — the name "random-<seed>" makes any run reproducible.
func RandomProgram(seed int64, size int) *isa.Program {
	return genProgram(fmt.Sprintf("random-%d", seed), rand.New(rand.NewSource(seed)), size)
}

// BytesProgram generates a terminating program of the same shape as
// RandomProgram, but reads every choice from data, so a coverage-guided
// fuzzer that mutates data steers the program directly. The program's
// length grows with len(data); choices past the end of data read as zero,
// and the initial data image comes from a fixed generator so it does not
// use up the input.
func BytesProgram(data []byte) *isa.Program {
	in := &byteChoices{data: data, image: rand.New(rand.NewSource(1))}
	return genProgram("bytes", in, 1+min(len(data)/2, 64))
}

// choices is the randomness genProgram draws on: a seeded *rand.Rand for
// RandomProgram, the input bytes for BytesProgram.
type choices interface {
	Intn(n int) int
	Int63n(n int64) int64
	Uint64() uint64
}

// byteChoices reads choices from a byte string: each draw from [0, n)
// consumes just enough bytes to cover n.
type byteChoices struct {
	data  []byte
	image *rand.Rand // Uint64: the data image, independent of data
}

func (b *byteChoices) next(n uint64) uint64 {
	var v uint64
	for span := n - 1; span > 0; span >>= 8 {
		v <<= 8
		if len(b.data) > 0 {
			v |= uint64(b.data[0])
			b.data = b.data[1:]
		}
	}
	return v % n
}

func (b *byteChoices) Intn(n int) int       { return int(b.next(uint64(n))) }
func (b *byteChoices) Int63n(n int64) int64 { return int64(b.next(uint64(n))) }
func (b *byteChoices) Uint64() uint64       { return b.image.Uint64() }

func genProgram(name string, rng choices, size int) *isa.Program {
	b := asm.NewBuilder(name)

	const dataBase = 0x10000
	const dataSize = 1 << 12 // small region: heavy aliasing

	// Seed the data region with random quads.
	quads := make([]uint64, dataSize/8)
	for i := range quads {
		quads[i] = rng.Uint64()
	}
	b.DataQuads(dataBase, quads)

	// r20 = data base; r5..r15 are scratch data registers.
	b.Movi(20, dataBase)
	for r := isa.Reg(5); r <= 15; r++ {
		b.Movi(r, rng.Int63n(1<<32))
	}

	labelN := 0
	newLabel := func() string {
		labelN++
		return fmt.Sprintf("L%d", labelN)
	}
	scratch := func() isa.Reg { return isa.Reg(5 + rng.Intn(11)) }

	// A leaf function the program can call: r16 = f(r16).
	b.Jump("main")
	b.Label("leaf")
	b.OpI(isa.XORI, 16, 16, 0x5A)
	b.OpI(isa.ADDI, 16, 16, 3)
	b.Ret()
	b.Label("main")

	aluOps := []isa.Op{
		isa.ADD, isa.SUB, isa.AND, isa.OR, isa.XOR, isa.SHL, isa.SHR, isa.SRA,
		isa.MUL, isa.SLT, isa.SLTU, isa.MIN, isa.MAX, isa.MINU, isa.MAXU,
		isa.ADDW, isa.SUBW, isa.ROLW, isa.RORW, isa.DIV, isa.REM,
	}
	immOps := []isa.Op{isa.ADDI, isa.ANDI, isa.ORI, isa.XORI, isa.SHLI, isa.SHRI, isa.SRAI, isa.SLTI}

	var emit func(depth, n int)
	emit = func(depth, n int) {
		for i := 0; i < n; i++ {
			switch k := rng.Intn(20); {
			case k < 7: // register ALU
				b.Op3(aluOps[rng.Intn(len(aluOps))], scratch(), scratch(), scratch())
			case k < 10: // immediate ALU
				b.OpI(immOps[rng.Intn(len(immOps))], scratch(), scratch(), rng.Int63n(64))
			case k < 12: // load
				off := int64(rng.Intn(dataSize/8)) * 8
				b.Ld(scratch(), 20, off)
			case k < 14: // store
				off := int64(rng.Intn(dataSize/8)) * 8
				b.St(scratch(), 20, off)
			case k < 15: // data-dependent (aliasing) access
				r := scratch()
				b.OpI(isa.ANDI, r, r, int64(dataSize/8-1))
				b.Shli(r, r, 3)
				b.Add(r, r, 20)
				if rng.Intn(2) == 0 {
					b.Ld(scratch(), r, 0)
				} else {
					b.St(scratch(), r, 0)
				}
			case k < 16: // narrow access
				off := int64(rng.Intn(dataSize - 8))
				if rng.Intn(2) == 0 {
					b.Ldb(scratch(), 20, off)
				} else {
					b.Stb(scratch(), 20, off)
				}
			case k < 17 && depth < 2: // bounded loop
				cnt := isa.Reg(21 + depth) // dedicated counters avoid clobber
				iters := int64(1 + rng.Intn(6))
				top := newLabel()
				b.Movi(cnt, iters)
				b.Label(top)
				emit(depth+1, 1+rng.Intn(4))
				b.OpI(isa.ADDI, cnt, cnt, -1)
				b.Bne(cnt, isa.Zero, top)
			case k < 19: // forward branch over a short block
				skip := newLabel()
				ops := []isa.Op{isa.BEQ, isa.BNE, isa.BLT, isa.BGE, isa.BLTU, isa.BGEU}
				b.Branch(ops[rng.Intn(len(ops))], scratch(), scratch(), skip)
				emit(depth, 1+rng.Intn(3))
				b.Label(skip)
			default: // call the leaf function
				b.Mov(16, scratch())
				b.Call("leaf")
				b.Mov(scratch(), 16)
			}
		}
	}
	emit(0, size)
	b.Halt()
	return b.MustBuild()
}
