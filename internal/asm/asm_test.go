package asm

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"spt/internal/emu"
	"spt/internal/isa"
)

func TestBuilderSumLoop(t *testing.T) {
	p := NewBuilder("sum").
		Movi(1, 100).
		Movi(2, 0).
		Label("loop").
		Add(2, 2, 1).
		Addi(1, 1, -1).
		Bne(1, isa.Zero, "loop").
		Halt().
		MustBuild()
	e := emu.New(p)
	if _, err := e.Run(10000); err != nil {
		t.Fatal(err)
	}
	if got := e.State.Regs[2]; got != 5050 {
		t.Fatalf("sum = %d, want 5050", got)
	}
}

func TestBuilderForwardReference(t *testing.T) {
	p := NewBuilder("fwd").
		Movi(1, 1).
		Jump("end").
		Movi(1, 2). // skipped
		Label("end").
		Halt().
		MustBuild()
	e := emu.New(p)
	if _, err := e.Run(100); err != nil {
		t.Fatal(err)
	}
	if e.State.Regs[1] != 1 {
		t.Fatalf("forward jump not taken: r1=%d", e.State.Regs[1])
	}
}

func TestBuilderUndefinedLabel(t *testing.T) {
	_, err := NewBuilder("bad").Jump("nowhere").Halt().Build()
	if err == nil {
		t.Fatal("undefined label accepted")
	}
}

func TestBuilderDuplicateLabelPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate label did not panic")
		}
	}()
	NewBuilder("dup").Label("x").Label("x")
}

func TestBuilderEntry(t *testing.T) {
	p := NewBuilder("entry").
		Movi(1, 111).
		Halt().
		Label("main").
		Movi(1, 222).
		Halt().
		Entry("main").
		MustBuild()
	e := emu.New(p)
	if _, err := e.Run(100); err != nil {
		t.Fatal(err)
	}
	if e.State.Regs[1] != 222 {
		t.Fatalf("entry not honored: r1=%d", e.State.Regs[1])
	}
}

func TestBuilderCallRet(t *testing.T) {
	p := NewBuilder("call").
		Movi(10, 6).
		Call("double").
		Halt().
		Label("double").
		Add(10, 10, 10).
		Ret().
		MustBuild()
	e := emu.New(p)
	if _, err := e.Run(100); err != nil {
		t.Fatal(err)
	}
	if e.State.Regs[10] != 12 {
		t.Fatalf("call/ret: r10=%d, want 12", e.State.Regs[10])
	}
}

func TestBuilderDataQuads(t *testing.T) {
	p := NewBuilder("data").
		DataQuads(0x1000, []uint64{0xAABBCCDD, 42}).
		Movi(1, 0x1000).
		Ld(2, 1, 0).
		Ld(3, 1, 8).
		Halt().
		MustBuild()
	e := emu.New(p)
	if _, err := e.Run(100); err != nil {
		t.Fatal(err)
	}
	if e.State.Regs[2] != 0xAABBCCDD || e.State.Regs[3] != 42 {
		t.Fatalf("data quads: r2=%#x r3=%d", e.State.Regs[2], e.State.Regs[3])
	}
}

const fibSrc = `
; iterative fibonacci: r10 = fib(r10)
.entry main
.data 0x2000
.quad 10
.text
main:
  movi r5, 0x2000
  ld r10, 0(r5)       ; n
  movi r1, 0          ; a
  movi r2, 1          ; b
loop:
  beq r10, r0, done
  add r3, r1, r2
  mov r1, r2
  mov r2, r3
  addi r10, r10, -1
  jal r0, loop
done:
  mov r10, r1
  halt
`

func TestAssembleFibonacci(t *testing.T) {
	p, err := Assemble("fib", fibSrc)
	if err != nil {
		t.Fatal(err)
	}
	e := emu.New(p)
	if _, err := e.Run(10000); err != nil {
		t.Fatal(err)
	}
	if got := e.State.Regs[10]; got != 55 {
		t.Fatalf("fib(10) = %d, want 55", got)
	}
}

func TestAssembleMemOperands(t *testing.T) {
	p := MustAssemble("mem", `
  movi r1, 0x3000
  movi r2, 77
  st r2, 16(r1)
  ld r3, 16(r1)
  stw r2, (r1)
  ldw r4, (r1)
  stb r2, 3(r1)
  ldb r5, 3(r1)
  halt
`)
	e := emu.New(p)
	if _, err := e.Run(100); err != nil {
		t.Fatal(err)
	}
	if e.State.Regs[3] != 77 || e.State.Regs[5] != 77 {
		t.Fatalf("mem ops: r3=%d r5=%d", e.State.Regs[3], e.State.Regs[5])
	}
}

func TestAssembleRegisterAliases(t *testing.T) {
	p := MustAssemble("alias", `
  movi sp, 0x8000
  movi ra, 5
  add gp, sp, ra
  mov tp, gp
  halt
`)
	e := emu.New(p)
	if _, err := e.Run(100); err != nil {
		t.Fatal(err)
	}
	if e.State.Regs[isa.GP] != 0x8005 || e.State.Regs[isa.TP] != 0x8005 {
		t.Fatalf("aliases: gp=%#x tp=%#x", e.State.Regs[isa.GP], e.State.Regs[isa.TP])
	}
}

func TestAssembleErrors(t *testing.T) {
	cases := []string{
		"bogus r1, r2", // unknown mnemonic
		"movi r99, 1",  // bad register
		"ld r1, r2",    // bad memory operand
		"beq r1, r2",   // missing target
		".byte 1",      // .byte outside .data
		".data",        // missing address
		"addi r1, r2",  // missing immediate
		"movi r1, zzz", // bad immediate
		"jalr r0, r1",  // jalr needs imm(base)
		"r:r:",         // duplicate label (used to panic)
	}
	for _, src := range cases {
		if _, err := Assemble("bad", src); err == nil {
			t.Errorf("accepted invalid source %q", src)
		}
	}
}

// TestAssembleDataCap pins the data-image cap: a huge .zero count used to
// panic (growslice: len out of range) or allocate gigabytes before failing,
// and a cursor near the top of memory used to wrap around.
func TestAssembleDataCap(t *testing.T) {
	cases := []string{
		".data 0x0\n.zero 0x7fffffffffffffff\nhalt",
		".data 0x0\n.zero 0x7fffffff\nhalt",
		".data 0x0\n.zero 0x200000\n.data 0x2000000\n.zero 0x200000\n.byte 1\nhalt",
		".data 0xfffffffffffffffc\n.quad 1\nhalt",
	}
	var ms runtime.MemStats
	for _, src := range cases {
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		_, err := Assemble("big", src)
		runtime.ReadMemStats(&ms)
		if err == nil {
			t.Errorf("accepted %q", src)
			continue
		}
		if !strings.HasPrefix(err.Error(), "asm: line ") {
			t.Errorf("%q: error %q does not name the line", src, err)
		}
		if n := ms.TotalAlloc - before; n > 4*maxDataBytes {
			t.Errorf("%q: allocated %d bytes before failing", src, n)
		}
	}
	// The cap itself is reachable: exactly maxDataBytes of data assembles.
	src := fmt.Sprintf(".data 0x0\n.zero %d\nhalt", maxDataBytes)
	if p, err := Assemble("full", src); err != nil || len(p.Data[0].Bytes) != maxDataBytes {
		t.Fatalf("a data image of exactly %d bytes: err %v", maxDataBytes, err)
	}
}

func TestAssembleNumericBranchOffset(t *testing.T) {
	p := MustAssemble("num", `
  movi r1, 1
  beq r0, r0, 2
  movi r1, 99
  halt
`)
	e := emu.New(p)
	if _, err := e.Run(100); err != nil {
		t.Fatal(err)
	}
	if e.State.Regs[1] != 1 {
		t.Fatalf("numeric branch offset: r1=%d", e.State.Regs[1])
	}
}

// TestDisassembleRoundTrip checks that Assemble(Disassemble(p)) produces a
// program with identical code and equivalent data for random programs.
func TestDisassembleRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		b := NewBuilder("rt")
		n := 5 + rng.Intn(30)
		for i := 0; i < n; i++ {
			switch rng.Intn(6) {
			case 0:
				b.Movi(isa.Reg(1+rng.Intn(30)), rng.Int63n(1<<30))
			case 1:
				b.Op3(isa.ADD+isa.Op(rng.Intn(8)), isa.Reg(1+rng.Intn(30)), isa.Reg(rng.Intn(31)), isa.Reg(rng.Intn(31)))
			case 2:
				b.Ld(isa.Reg(1+rng.Intn(30)), isa.Reg(rng.Intn(31)), rng.Int63n(256))
			case 3:
				b.St(isa.Reg(rng.Intn(31)), isa.Reg(rng.Intn(31)), rng.Int63n(256))
			case 4:
				b.OpI(isa.ADDI, isa.Reg(1+rng.Intn(30)), isa.Reg(rng.Intn(31)), rng.Int63n(1000)-500)
			case 5:
				b.emit(isa.Instruction{Op: isa.BEQ, Rs1: isa.Reg(rng.Intn(31)), Rs2: isa.Reg(rng.Intn(31)), Imm: int64(-i)})
			}
		}
		b.Halt()
		if rng.Intn(2) == 0 {
			b.DataQuads(0x1000, []uint64{rng.Uint64(), rng.Uint64()})
		}
		p := b.MustBuild()
		p2, err := Assemble("rt2", Disassemble(p))
		if err != nil {
			t.Fatalf("reassemble failed: %v\n%s", err, Disassemble(p))
		}
		if len(p2.Code) != len(p.Code) {
			t.Fatalf("code length changed: %d -> %d", len(p.Code), len(p2.Code))
		}
		for i := range p.Code {
			if p.Code[i] != p2.Code[i] {
				t.Fatalf("instruction %d changed: %v -> %v", i, p.Code[i], p2.Code[i])
			}
		}
	}
}
