package vm

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"testing"

	"vxa/internal/vm/tier2"
	"vxa/internal/x86"
)

// These are the differential tests for the micro-op translation engine:
// every instruction shape the lowering pass specializes (and several it
// routes through the generic escape) is executed on both engines — the
// uop engine with lazy flags, and the reference exec interpreter with
// eager flags — from identical randomized register/flag/memory states,
// and the full architectural outcome (registers, all five flags
// materialized bit-for-bit, memory) must agree. The randomized operand
// tables cover the AH/CH/DH/BH partial-register paths and the
// carry-consuming ADC/SBB/INC/DEC cases explicitly.

const (
	diffCode = PageSize            // where the instruction under test is placed
	diffData = PageSize + PageSize // scratch data page for memory operands
)

// diffVM builds a VM with a writable two-page region covering the code
// and data areas used by the differential tests.
func diffVM(t *testing.T) *VM {
	t.Helper()
	v, err := New(Config{MemSize: 4 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if err := v.MapSegment(PageSize, make([]byte, 2*PageSize), 2*PageSize, false); err != nil {
		t.Fatal(err)
	}
	return v
}

// seedState randomizes one architectural state and mirrors it onto both
// VMs: registers, eager flags, and the data page.
func seedState(t *testing.T, rng *rand.Rand, v1, v2 *VM) {
	t.Helper()
	for r := 0; r < 8; r++ {
		val := rng.Uint32()
		if x86.Reg(r) == x86.ESP {
			val = v1.MemSize() - 16 // keep the stack usable
		}
		v1.regs[r] = val
		v2.regs[r] = val
	}
	cf, zf, sf, of, pf := rng.Intn(2) == 0, rng.Intn(2) == 0, rng.Intn(2) == 0, rng.Intn(2) == 0, rng.Intn(2) == 0
	v1.cf, v1.zf, v1.sf, v1.of, v1.pf = cf, zf, sf, of, pf
	v2.cf, v2.zf, v2.sf, v2.of, v2.pf = cf, zf, sf, of, pf
	v1.fl.Op = 0 // FlagNone: the seeded bools are authoritative
	v2.fl.Op = 0
	data := make([]byte, 64)
	rng.Read(data)
	copy(v1.mem[diffData:], data)
	copy(v2.mem[diffData:], data)
}

// diffRun executes inst on both engines: v1 through lowering and the uop
// executor (followed by a UD2 so the block terminates), v2 on the
// reference interpreter. It returns the non-UD2 error from each engine.
func diffRun(t *testing.T, v1, v2 *VM, inst x86.Inst) (err1, err2 error) {
	t.Helper()
	enc, err := x86.Encode(inst)
	if err != nil {
		t.Fatalf("encode %v: %v", inst, err)
	}
	code := append(append([]byte{}, enc...), 0x0F, 0x0B) // inst; ud2
	copy(v1.mem[diffCode:], code)
	copy(v2.mem[diffCode:], code)

	// The uop engine: translate the tiny block fresh (the code bytes
	// change between trials, so never reuse the cache) and run it.
	v1.blocks = make(map[uint32]*bref)
	v1.eip = diffCode
	br, err := v1.lookupBlock(diffCode)
	if err != nil {
		t.Fatalf("lookupBlock %v: %v", inst, err)
	}
	err1 = v1.execUops(br)
	if tr, ok := err1.(*Trap); ok && tr.Kind == TrapIllegal && tr.EIP == diffCode+uint32(len(enc)) {
		err1 = nil // the terminating UD2, as planned
	}
	v1.materializeFlags()

	// The reference engine.
	decoded, err := x86.Decode(code)
	if err != nil {
		t.Fatalf("decode %v: %v", inst, err)
	}
	err2 = v2.exec(&decoded, diffCode)
	return err1, err2
}

// diffCompare asserts both engines produced the same architectural state.
func diffCompare(t *testing.T, v1, v2 *VM, inst x86.Inst, trial int) {
	t.Helper()
	for r := 0; r < 8; r++ {
		if v1.regs[r] != v2.regs[r] {
			t.Fatalf("trial %d %v: %s = %#x (uop) vs %#x (ref)",
				trial, inst, x86.Reg(r), v1.regs[r], v2.regs[r])
		}
	}
	if v1.cf != v2.cf || v1.zf != v2.zf || v1.sf != v2.sf || v1.of != v2.of || v1.pf != v2.pf {
		t.Fatalf("trial %d %v: flags cf=%v zf=%v sf=%v of=%v pf=%v (uop) vs cf=%v zf=%v sf=%v of=%v pf=%v (ref)",
			trial, inst, v1.cf, v1.zf, v1.sf, v1.of, v1.pf, v2.cf, v2.zf, v2.sf, v2.of, v2.pf)
	}
	if !bytes.Equal(v1.mem[diffData:diffData+64], v2.mem[diffData:diffData+64]) {
		t.Fatalf("trial %d %v: data page diverged", trial, inst)
	}
}

// diffTrials runs n randomized trials of the instructions gen produces.
func diffTrials(t *testing.T, seed int64, n int, gen func(rng *rand.Rand) x86.Inst) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	v1 := diffVM(t)
	v2 := diffVM(t)
	for trial := 0; trial < n; trial++ {
		seedState(t, rng, v1, v2)
		inst := gen(rng)
		err1, err2 := diffRun(t, v1, v2, inst)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("trial %d %v: uop err=%v, ref err=%v", trial, inst, err1, err2)
		}
		diffCompare(t, v1, v2, inst, trial)
	}
}

// memArg returns a memory operand of the given width inside the data
// page, addressed through a register so the EA path is exercised.
func memArg(rng *rand.Rand, v1, v2 *VM, size uint8) x86.Arg {
	off := int32(rng.Intn(48))
	v1.regs[x86.ESI] = diffData
	v2.regs[x86.ESI] = diffData
	return x86.MSIB(x86.ESI, x86.NoReg, 1, off, size)
}

var diffALUOps = []x86.Op{
	x86.ADD, x86.ADC, x86.SUB, x86.SBB, x86.AND, x86.OR, x86.XOR, x86.CMP, x86.TEST,
}

func TestDiffALU32(t *testing.T) {
	diffTrials(t, 1, 4000, func(rng *rand.Rand) x86.Inst {
		op := diffALUOps[rng.Intn(len(diffALUOps))]
		dst := x86.R(x86.Reg(rng.Intn(4))) // keep off ESP/ESI
		switch rng.Intn(3) {
		case 0:
			return x86.Inst{Op: op, Dst: dst, Src: x86.R(x86.Reg(rng.Intn(4)))}
		case 1:
			return x86.Inst{Op: op, Dst: dst, Src: x86.I(int32(rng.Uint32()))}
		default:
			// Interesting boundary immediates.
			picks := []int32{0, 1, -1, 0x7FFFFFFF, -0x80000000, 0x80}
			return x86.Inst{Op: op, Dst: dst, Src: x86.I(picks[rng.Intn(len(picks))])}
		}
	})
}

// TestDiffALU8 covers the byte forms, including the AH/CH/DH/BH
// partial-register slots on both operands.
func TestDiffALU8(t *testing.T) {
	diffTrials(t, 2, 4000, func(rng *rand.Rand) x86.Inst {
		op := diffALUOps[rng.Intn(len(diffALUOps))]
		dst := x86.R8(x86.Reg(rng.Intn(8))) // AL..BL and AH..BH
		if rng.Intn(2) == 0 {
			return x86.Inst{Op: op, Dst: dst, Src: x86.R8(x86.Reg(rng.Intn(8)))}
		}
		return x86.Inst{Op: op, Dst: dst, Src: x86.I8(int8(rng.Intn(256)))}
	})
}

func TestDiffALUMem(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	v1 := diffVM(t)
	v2 := diffVM(t)
	for trial := 0; trial < 3000; trial++ {
		seedState(t, rng, v1, v2)
		op := diffALUOps[rng.Intn(len(diffALUOps))]
		size := uint8(4)
		if rng.Intn(2) == 0 {
			size = 1
		}
		m := memArg(rng, v1, v2, size)
		var inst x86.Inst
		form := rng.Intn(3)
		if op == x86.TEST && form == 0 {
			form = 1 // TEST has no reg←mem encoding
		}
		switch form {
		case 0: // reg op= mem
			if size == 4 {
				inst = x86.Inst{Op: op, Dst: x86.R(x86.Reg(rng.Intn(4))), Src: m}
			} else {
				inst = x86.Inst{Op: op, Dst: x86.R8(x86.Reg(rng.Intn(8))), Src: m}
			}
		case 1: // mem op= reg
			if size == 4 {
				inst = x86.Inst{Op: op, Dst: m, Src: x86.R(x86.Reg(rng.Intn(4)))}
			} else {
				inst = x86.Inst{Op: op, Dst: m, Src: x86.R8(x86.Reg(rng.Intn(8)))}
			}
		default: // mem op= imm
			if size == 4 {
				inst = x86.Inst{Op: op, Dst: m, Src: x86.I(int32(rng.Uint32()))}
			} else {
				inst = x86.Inst{Op: op, Dst: m, Src: x86.Arg{Kind: x86.KindImm, Imm: int32(rng.Intn(256)), Size: 1}}
			}
		}
		err1, err2 := diffRun(t, v1, v2, inst)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("trial %d %v: uop err=%v, ref err=%v", trial, inst, err1, err2)
		}
		diffCompare(t, v1, v2, inst, trial)
	}
}

// TestDiffShifts covers SHL/SHR/SAR by immediate (including zero counts,
// which must leave every flag untouched) and by CL, plus the rotates
// that ride the generic escape.
func TestDiffShifts(t *testing.T) {
	ops := []x86.Op{x86.SHL, x86.SHR, x86.SAR, x86.ROL, x86.ROR}
	diffTrials(t, 4, 5000, func(rng *rand.Rand) x86.Inst {
		op := ops[rng.Intn(len(ops))]
		dst := x86.R(x86.Reg(rng.Intn(4)))
		if rng.Intn(2) == 0 {
			count := int32(rng.Intn(40)) & 31 // the decoder masks to 5 bits
			return x86.Inst{Op: op, Dst: dst, Src: x86.Arg{Kind: x86.KindImm, Imm: count, Size: 1}}
		}
		// Shift by CL; ECX was randomized by seedState, so counts of 0,
		// small, 31 and >=32 (mod behaviour) all occur.
		return x86.Inst{Op: op, Dst: dst, Src: x86.R8(x86.ECX)}
	})
}

// TestDiffUnary covers NEG/NOT/INC/DEC across register, byte-register
// and memory destinations (the latter two take the generic escape).
func TestDiffUnary(t *testing.T) {
	ops := []x86.Op{x86.NEG, x86.NOT, x86.INC, x86.DEC}
	rng := rand.New(rand.NewSource(5))
	v1 := diffVM(t)
	v2 := diffVM(t)
	for trial := 0; trial < 3000; trial++ {
		seedState(t, rng, v1, v2)
		op := ops[rng.Intn(len(ops))]
		var inst x86.Inst
		switch rng.Intn(3) {
		case 0:
			inst = x86.Inst{Op: op, Dst: x86.R(x86.Reg(rng.Intn(4)))}
		case 1:
			inst = x86.Inst{Op: op, Dst: x86.R8(x86.Reg(rng.Intn(8)))}
		default:
			inst = x86.Inst{Op: op, Dst: memArg(rng, v1, v2, 4)}
		}
		err1, err2 := diffRun(t, v1, v2, inst)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("trial %d %v: uop err=%v, ref err=%v", trial, inst, err1, err2)
		}
		diffCompare(t, v1, v2, inst, trial)
	}
}

// TestDiffMulWide covers the IMUL forms and the widening MUL/IMUL.
func TestDiffMulWide(t *testing.T) {
	diffTrials(t, 6, 3000, func(rng *rand.Rand) x86.Inst {
		switch rng.Intn(4) {
		case 0:
			return x86.Inst{Op: x86.IMUL, Dst: x86.R(x86.Reg(rng.Intn(4))), Src: x86.R(x86.Reg(rng.Intn(4)))}
		case 1:
			return x86.Inst{Op: x86.IMUL, Dst: x86.R(x86.Reg(rng.Intn(4))),
				Src: x86.R(x86.Reg(rng.Intn(4))), Aux: x86.I(int32(rng.Uint32()))}
		case 2:
			return x86.Inst{Op: x86.MUL1, Dst: x86.R(x86.Reg(rng.Intn(4)))}
		default:
			return x86.Inst{Op: x86.IMUL1, Dst: x86.R(x86.Reg(rng.Intn(4)))}
		}
	})
}

// TestDiffMovExtSetcc covers the move/widening/setcc handlers, whose
// results depend on the partial-register slots and lazily evaluated
// conditions.
func TestDiffMovExtSetcc(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	v1 := diffVM(t)
	v2 := diffVM(t)
	for trial := 0; trial < 4000; trial++ {
		seedState(t, rng, v1, v2)
		var inst x86.Inst
		switch rng.Intn(8) {
		case 0:
			inst = x86.Inst{Op: x86.MOV, Dst: x86.R8(x86.Reg(rng.Intn(8))), Src: x86.R8(x86.Reg(rng.Intn(8)))}
		case 1:
			inst = x86.Inst{Op: x86.MOV, Dst: x86.R8(x86.Reg(rng.Intn(8))), Src: memArg(rng, v1, v2, 1)}
		case 2:
			inst = x86.Inst{Op: x86.MOV, Dst: memArg(rng, v1, v2, 1), Src: x86.R8(x86.Reg(rng.Intn(8)))}
		case 3:
			inst = x86.Inst{Op: x86.MOVZX, Dst: x86.R(x86.Reg(rng.Intn(4))), Src: x86.R8(x86.Reg(rng.Intn(8)))}
		case 4:
			inst = x86.Inst{Op: x86.MOVSX, Dst: x86.R(x86.Reg(rng.Intn(4))), Src: x86.R8(x86.Reg(rng.Intn(8)))}
		case 5:
			inst = x86.Inst{Op: x86.MOVZX, Dst: x86.R(x86.Reg(rng.Intn(4))), Src: memArg(rng, v1, v2, 2)}
		case 6:
			inst = x86.Inst{Op: x86.MOVSX, Dst: x86.R(x86.Reg(rng.Intn(4))), Src: memArg(rng, v1, v2, 2)}
		default:
			inst = x86.Inst{Op: x86.SETCC, CC: x86.CC(rng.Intn(16)), Dst: x86.R8(x86.Reg(rng.Intn(8)))}
		}
		err1, err2 := diffRun(t, v1, v2, inst)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("trial %d %v: uop err=%v, ref err=%v", trial, inst, err1, err2)
		}
		diffCompare(t, v1, v2, inst, trial)
	}
}

// TestDiffCondAfterLazyOp pins the lazy condition evaluator: after a
// random flag-writing instruction runs on the uop engine (leaving a lazy
// record) and on the reference engine (eager flags), every one of the 16
// condition codes must evaluate identically — without materializing the
// record.
func TestDiffCondAfterLazyOp(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	v1 := diffVM(t)
	v2 := diffVM(t)
	flagOps := []x86.Op{x86.ADD, x86.ADC, x86.SUB, x86.SBB, x86.AND, x86.XOR,
		x86.CMP, x86.TEST, x86.SHL, x86.SHR, x86.SAR, x86.INC, x86.DEC, x86.NEG}
	for trial := 0; trial < 3000; trial++ {
		seedState(t, rng, v1, v2)
		op := flagOps[rng.Intn(len(flagOps))]
		var inst x86.Inst
		switch op {
		case x86.INC, x86.DEC, x86.NEG:
			inst = x86.Inst{Op: op, Dst: x86.R(x86.Reg(rng.Intn(4)))}
		case x86.SHL, x86.SHR, x86.SAR:
			inst = x86.Inst{Op: op, Dst: x86.R(x86.Reg(rng.Intn(4))),
				Src: x86.Arg{Kind: x86.KindImm, Imm: int32(rng.Intn(32)), Size: 1}}
		default:
			if rng.Intn(2) == 0 {
				inst = x86.Inst{Op: op, Dst: x86.R8(x86.Reg(rng.Intn(8))), Src: x86.R8(x86.Reg(rng.Intn(8)))}
			} else {
				inst = x86.Inst{Op: op, Dst: x86.R(x86.Reg(rng.Intn(4))), Src: x86.R(x86.Reg(rng.Intn(4)))}
			}
		}
		enc, err := x86.Encode(inst)
		if err != nil {
			t.Fatalf("encode %v: %v", inst, err)
		}
		code := append(append([]byte{}, enc...), 0x0F, 0x0B)
		copy(v1.mem[diffCode:], code)
		copy(v2.mem[diffCode:], code)
		v1.blocks = make(map[uint32]*bref)
		br, err := v1.lookupBlock(diffCode)
		if err != nil {
			t.Fatal(err)
		}
		_ = v1.execUops(br) // ends at the ud2; the lazy record survives
		decoded, err := x86.Decode(code)
		if err != nil {
			t.Fatal(err)
		}
		if err := v2.exec(&decoded, diffCode); err != nil {
			t.Fatal(err)
		}
		for cc := x86.CC(0); cc < 16; cc++ {
			if got, want := v1.ucond(cc), v2.cond(cc); got != want {
				t.Fatalf("trial %d %v: cond %v = %v (lazy) vs %v (eager)", trial, inst, cc, got, want)
			}
		}
	}
}

// TestDiffFusedPairTraps pins the trap behavior of the fused data-
// movement pairs: when the second constituent instruction faults, the
// first must be architecturally committed, the trap must report the
// second instruction's EIP, and the fuel charge must match the
// reference engine's charge-before-execute discipline exactly.
func TestDiffFusedPairTraps(t *testing.T) {
	const fuel = 100
	type pairCase struct {
		name  string
		insts []x86.Inst
		setup func(v *VM)
	}
	badStack := func(v *VM) { v.regs[x86.ESP] = 0x10 } // below the first page
	cases := []pairCase{
		{"push-load", []x86.Inst{
			{Op: x86.PUSH, Dst: x86.R(x86.EAX)},
			{Op: x86.MOV, Dst: x86.R(x86.EDX), Src: x86.MSIB(x86.ECX, x86.NoReg, 1, 0, 4)},
		}, func(v *VM) { v.regs[x86.ECX] = 0x10 }},
		{"mov-load", []x86.Inst{
			{Op: x86.MOV, Dst: x86.R(x86.EBX), Src: x86.R(x86.EAX)},
			{Op: x86.MOV, Dst: x86.R(x86.EDX), Src: x86.MSIB(x86.ECX, x86.NoReg, 1, 0, 4)},
		}, func(v *VM) { v.regs[x86.ECX] = 0x10 }},
		{"load-push", []x86.Inst{
			{Op: x86.MOV, Dst: x86.R(x86.EDX), Src: x86.MSIB(x86.ESI, x86.NoReg, 1, 0, 4)},
			{Op: x86.PUSH, Dst: x86.R(x86.EDX)},
		}, badStack},
		{"mov-pop", []x86.Inst{
			{Op: x86.MOV, Dst: x86.R(x86.ECX), Src: x86.R(x86.EAX)},
			{Op: x86.POP, Dst: x86.R(x86.EDX)},
		}, badStack},
		{"mov-pop-alu", []x86.Inst{
			{Op: x86.MOV, Dst: x86.R(x86.ECX), Src: x86.R(x86.EAX)},
			{Op: x86.POP, Dst: x86.R(x86.EAX)},
			{Op: x86.ADD, Dst: x86.R(x86.EAX), Src: x86.R(x86.ECX)},
		}, badStack},
		{"pop-store", []x86.Inst{
			{Op: x86.POP, Dst: x86.R(x86.EDX)},
			{Op: x86.MOV, Dst: x86.MSIB(x86.ECX, x86.NoReg, 1, 0, 4), Src: x86.R(x86.EAX)},
		}, func(v *VM) { v.regs[x86.ECX] = 0x10 }},
		{"movi-push", []x86.Inst{
			{Op: x86.MOV, Dst: x86.R(x86.EAX), Src: x86.I(42)},
			{Op: x86.PUSH, Dst: x86.R(x86.EBX)},
		}, badStack},
		{"pop-ret", []x86.Inst{
			{Op: x86.POP, Dst: x86.R(x86.EDX)},
			{Op: x86.RET},
		}, func(v *VM) { v.regs[x86.ESP] = v.MemSize() - 4 }}, // pop ok, ret beyond the top
		{"push-call", []x86.Inst{
			{Op: x86.PUSH, Dst: x86.R(x86.EAX)},
			{Op: x86.CALL, Rel: 16},
		}, func(v *VM) { v.regs[x86.ESP] = v.stackBase + 4 }}, // arg push ok, return push in the guard gap
	}

	rng := rand.New(rand.NewSource(9))
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			v1 := diffVM(t)
			v2 := diffVM(t)
			seedState(t, rng, v1, v2)
			v1.regs[x86.ESI], v2.regs[x86.ESI] = diffData, diffData
			tc.setup(v1)
			tc.setup(v2)
			v1.fuel, v2.fuel = fuel, fuel

			var code []byte
			for _, inst := range tc.insts {
				enc, err := x86.Encode(inst)
				if err != nil {
					t.Fatal(err)
				}
				code = append(code, enc...)
			}
			code = append(code, 0x0F, 0x0B) // ud2
			copy(v1.mem[diffCode:], code)
			copy(v2.mem[diffCode:], code)

			v1.blocks = make(map[uint32]*bref)
			v1.eip = diffCode
			br, err := v1.lookupBlock(diffCode)
			if err != nil {
				t.Fatal(err)
			}
			err1 := v1.execUops(br)
			v1.materializeFlags()

			v2.eip = diffCode
			refSteps, err2 := refRun(v2, 100)

			tr1, ok1 := err1.(*Trap)
			tr2, ok2 := err2.(*Trap)
			if !ok1 || !ok2 {
				t.Fatalf("no trap: uop %v, ref %v", err1, err2)
			}
			if tr1.Kind != tr2.Kind || tr1.EIP != tr2.EIP || tr1.Addr != tr2.Addr {
				t.Fatalf("trap diverged: uop %v, ref %v", tr1, tr2)
			}
			for r := 0; r < 8; r++ {
				if v1.regs[r] != v2.regs[r] {
					t.Fatalf("%s = %#x (uop) vs %#x (ref)", x86.Reg(r), v1.regs[r], v2.regs[r])
				}
			}
			// Reference discipline: every started instruction (the
			// faulting one included) costs one fuel.
			if want := int64(fuel - refSteps - 1); v1.fuel != want {
				t.Fatalf("fuel = %d, want %d (ref started %d+1 instructions)", v1.fuel, want, refSteps)
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Long-horizon differential soak: whole random programs, not single
// instructions. Each program is a web of basic blocks — conditional
// branches, direct jumps, table-driven indirect jumps, call/return pairs,
// partial-register writes, memory traffic — that runs for >10k guest
// instructions on both engines. Every block opens with a checkpoint
// prologue that the *guest itself* executes: it stores the scratch
// register file and the five SETcc-materialized arithmetic flags into a
// trace region and advances the trace pointer. Comparing the two
// engines' trace regions byte-for-byte therefore compares the full
// observable state at every basic-block boundary, including the lazy
// flag records the uop engine must materialize exactly where the eager
// reference engine already has them.

// Soak program geometry. Registers are role-split: EAX/ECX/EDX are
// random scratch, EBX pins the jump table, ESI is terminator/memory
// scratch, EDI walks the trace, EBP counts down to termination.
const (
	soakSlot      = 192                            // bytes reserved per block
	soakBlocks    = 16                             // block count (power of two: indirect index mask)
	soakFuncs     = 3                              // trailing blocks reachable only via CALL, ending in RET
	soakCode      = PageSize                       // block i sits at soakCode + i*soakSlot
	soakExit      = soakCode + soakBlocks*soakSlot // exit block: a single UD2
	soakTable     = PageSize + 0x2000              // jump table: soakBlocks dwords
	soakData      = soakTable + 0x100              // scratch page for memory operands
	soakTrace     = PageSize + 0x3000              // checkpoint trace region
	soakCkptBytes = 24                             // bytes one checkpoint writes
	soakCountdown = 1200                           // block executions before the guest exits
	soakSpan      = 0x10000                        // mapped guest region: code+table+data+trace
)

// soakEmit appends one encoded instruction at the current address.
type soakEmit struct {
	t   *testing.T
	mem []byte // the whole program image, offset soakCode
	cur uint32
}

func (e *soakEmit) emit(inst x86.Inst) {
	enc, err := x86.Encode(inst)
	if err != nil {
		e.t.Fatalf("soak encode %v: %v", inst, err)
	}
	copy(e.mem[e.cur-soakCode:], enc)
	e.cur += uint32(len(enc))
}

// branch emits a CALL/JMP/JCC with the rel32 displacement resolved
// against the fixed instruction lengths (5, 5 and 6 bytes).
func (e *soakEmit) branch(op x86.Op, cc x86.CC, target uint32) {
	ilen := uint32(5)
	if op == x86.JCC {
		ilen = 6
	}
	e.emit(x86.Inst{Op: op, CC: cc, Rel: int32(target - (e.cur + ilen))})
}

// soakCheckpoint emits the block prologue: dump EAX/ECX/EDX/EBP and the
// five flags (via SETcc, exercising the lazy materializer) to the trace
// cursor, advance it, and count down toward the exit.
func (e *soakEmit) soakCheckpoint() {
	regs := []x86.Reg{x86.EAX, x86.ECX, x86.EDX, x86.EBP}
	for i, r := range regs {
		e.emit(x86.Inst{Op: x86.MOV, Dst: x86.MSIB(x86.EDI, x86.NoReg, 1, int32(4*i), 4), Src: x86.R(r)})
	}
	ccs := []x86.CC{x86.CCB, x86.CCE, x86.CCS, x86.CCO, x86.CCP}
	for i, cc := range ccs {
		e.emit(x86.Inst{Op: x86.SETCC, CC: cc, Dst: x86.MSIB(x86.EDI, x86.NoReg, 1, int32(16+i), 1)})
	}
	e.emit(x86.Inst{Op: x86.ADD, Dst: x86.R(x86.EDI), Src: x86.I(soakCkptBytes)})
	e.emit(x86.Inst{Op: x86.DEC, Dst: x86.R(x86.EBP)})
	e.branch(x86.JCC, x86.CCE, soakExit)
}

// soakScratch32 picks a scratch 32-bit register.
func soakScratch32(rng *rand.Rand) x86.Arg {
	return x86.R([]x86.Reg{x86.EAX, x86.ECX, x86.EDX}[rng.Intn(3)])
}

// soakScratch8 picks a scratch byte register, including the high slots.
func soakScratch8(rng *rand.Rand) x86.Arg {
	// AL, CL, DL, AH, CH, DH (EBX is pinned, so BL/BH are off limits).
	return x86.R8([]x86.Reg{0, 1, 2, 4, 5, 6}[rng.Intn(6)])
}

// soakBody emits 2-6 random computation instructions. Memory operands
// go through ESI, re-pointed at the scratch page first.
func (e *soakEmit) soakBody(rng *rand.Rand) {
	aluOps := []x86.Op{x86.ADD, x86.ADC, x86.SUB, x86.SBB, x86.AND, x86.OR, x86.XOR, x86.CMP, x86.TEST}
	for n := 2 + rng.Intn(5); n > 0; n-- {
		switch rng.Intn(12) {
		case 0:
			e.emit(x86.Inst{Op: aluOps[rng.Intn(len(aluOps))], Dst: soakScratch32(rng), Src: soakScratch32(rng)})
		case 1:
			e.emit(x86.Inst{Op: aluOps[rng.Intn(len(aluOps))], Dst: soakScratch32(rng), Src: x86.I(int32(rng.Uint32()))})
		case 2: // partial-register traffic
			if rng.Intn(2) == 0 {
				e.emit(x86.Inst{Op: aluOps[rng.Intn(len(aluOps))], Dst: soakScratch8(rng), Src: soakScratch8(rng)})
			} else {
				e.emit(x86.Inst{Op: x86.MOV, Dst: soakScratch8(rng), Src: x86.I8(int8(rng.Intn(256)))})
			}
		case 3:
			ops := []x86.Op{x86.SHL, x86.SHR, x86.SAR, x86.ROL, x86.ROR}
			if rng.Intn(2) == 0 {
				e.emit(x86.Inst{Op: ops[rng.Intn(len(ops))], Dst: soakScratch32(rng),
					Src: x86.Arg{Kind: x86.KindImm, Imm: int32(rng.Intn(32)), Size: 1}})
			} else {
				e.emit(x86.Inst{Op: ops[rng.Intn(len(ops))], Dst: soakScratch32(rng), Src: x86.R8(x86.ECX)})
			}
		case 4:
			ops := []x86.Op{x86.INC, x86.DEC, x86.NEG, x86.NOT}
			e.emit(x86.Inst{Op: ops[rng.Intn(len(ops))], Dst: soakScratch32(rng)})
		case 5:
			op := x86.MOVZX
			if rng.Intn(2) == 0 {
				op = x86.MOVSX
			}
			e.emit(x86.Inst{Op: op, Dst: soakScratch32(rng), Src: soakScratch8(rng)})
		case 6:
			e.emit(x86.Inst{Op: x86.IMUL, Dst: soakScratch32(rng), Src: soakScratch32(rng)})
		case 7: // widening multiply / sign extend pair
			if rng.Intn(2) == 0 {
				e.emit(x86.Inst{Op: x86.MUL1, Dst: soakScratch32(rng)})
			} else {
				e.emit(x86.Inst{Op: x86.CDQ})
			}
		case 8: // memory round trip through the scratch page
			off := int32(rng.Intn(32))
			e.emit(x86.Inst{Op: x86.MOV, Dst: x86.R(x86.ESI), Src: x86.I(int32(soakData))})
			if rng.Intn(2) == 0 {
				e.emit(x86.Inst{Op: x86.MOV, Dst: x86.MSIB(x86.ESI, x86.NoReg, 1, off, 4), Src: soakScratch32(rng)})
			} else {
				// TEST has no reg<-mem encoding; the others all do.
				memOps := []x86.Op{x86.ADD, x86.ADC, x86.SUB, x86.SBB, x86.AND, x86.OR, x86.XOR, x86.CMP}
				e.emit(x86.Inst{Op: memOps[rng.Intn(len(memOps))], Dst: soakScratch32(rng),
					Src: x86.MSIB(x86.ESI, x86.NoReg, 1, off, 4)})
			}
		case 9: // balanced stack round trip: the movement-pair fusions
			// (push/load, mov-imm/push, mov;pop and the mov;pop;op
			// binary-operation tail — exactly the compiler's idiom).
			e.emit(x86.Inst{Op: x86.PUSH, Dst: soakScratch32(rng)})
			switch rng.Intn(5) {
			case 0: // mov ; pop ; op — the MovPopAlu shape
				e.emit(x86.Inst{Op: x86.MOV, Dst: x86.R(x86.ECX), Src: soakScratch32(rng)})
				e.emit(x86.Inst{Op: x86.POP, Dst: x86.R(x86.EAX)})
				ops := []x86.Op{x86.ADD, x86.SUB, x86.AND, x86.OR, x86.XOR}
				e.emit(x86.Inst{Op: ops[rng.Intn(len(ops))], Dst: x86.R(x86.EAX), Src: x86.R(x86.ECX)})
			case 4: // register-aliased tail: mov rB,rA ; pop rB ; op rB,rB —
				// the pop overwrites the moved value, so any fusion that
				// forwards the pre-pop register here miscomputes
				r := soakScratch32(rng)
				e.emit(x86.Inst{Op: x86.MOV, Dst: r, Src: soakScratch32(rng)})
				e.emit(x86.Inst{Op: x86.POP, Dst: r})
				ops := []x86.Op{x86.ADD, x86.SUB, x86.AND, x86.OR, x86.XOR}
				e.emit(x86.Inst{Op: ops[rng.Intn(len(ops))], Dst: r, Src: r})
			case 1: // push ; mov imm ; pop
				e.emit(x86.Inst{Op: x86.MOV, Dst: soakScratch32(rng), Src: x86.I(int32(rng.Uint32()))})
				e.emit(x86.Inst{Op: x86.POP, Dst: soakScratch32(rng)})
			case 2: // push ; load ; pop ; store
				e.emit(x86.Inst{Op: x86.MOV, Dst: x86.R(x86.ESI), Src: x86.I(int32(soakData))})
				e.emit(x86.Inst{Op: x86.MOV, Dst: x86.R(x86.EDX), Src: x86.MSIB(x86.ESI, x86.NoReg, 1, int32(rng.Intn(32)), 4)})
				e.emit(x86.Inst{Op: x86.POP, Dst: x86.R(x86.EAX)})
				e.emit(x86.Inst{Op: x86.MOV, Dst: x86.MSIB(x86.ESI, x86.NoReg, 1, int32(rng.Intn(32)), 4), Src: soakScratch32(rng)})
			default: // plain push ; pop pair
				e.emit(x86.Inst{Op: x86.POP, Dst: soakScratch32(rng)})
			}
		case 10: // load ; push (the LoadPush shape)
			e.emit(x86.Inst{Op: x86.MOV, Dst: x86.R(x86.ESI), Src: x86.I(int32(soakData))})
			e.emit(x86.Inst{Op: x86.MOV, Dst: x86.R(x86.EAX), Src: x86.MSIB(x86.ESI, x86.NoReg, 1, int32(rng.Intn(32)), 4)})
			e.emit(x86.Inst{Op: x86.PUSH, Dst: x86.R(x86.EAX)})
			e.emit(x86.Inst{Op: x86.POP, Dst: soakScratch32(rng)})
		case 11: // cmp/test ; setcc ; movzx — the boolean idiom
			if rng.Intn(2) == 0 {
				e.emit(x86.Inst{Op: x86.CMP, Dst: x86.R(x86.EAX), Src: x86.R(x86.ECX)})
			} else {
				e.emit(x86.Inst{Op: x86.TEST, Dst: x86.R(x86.EAX), Src: x86.R(x86.EAX)})
			}
			e.emit(x86.Inst{Op: x86.SETCC, CC: x86.CC(rng.Intn(16)), Dst: x86.R8(x86.EAX)})
			e.emit(x86.Inst{Op: x86.MOVZX, Dst: x86.R(x86.EAX), Src: x86.R8(x86.EAX)})
		default:
			e.emit(x86.Inst{Op: x86.MOV, Dst: soakScratch32(rng), Src: x86.I(int32(rng.Uint32()))})
		}
	}
}

// soakBlockAddr returns block i's entry address.
func soakBlockAddr(i int) uint32 { return soakCode + uint32(i)*soakSlot }

// soakNormal picks a random non-func block (funcs are only entered via
// CALL; jumping into one would RET through an unbalanced stack).
func soakNormal(rng *rand.Rand) int { return rng.Intn(soakBlocks - soakFuncs) }

// soakBuildProgram assembles one randomized program into mem (a slice
// covering the guest image starting at soakCode) and returns it.
func soakBuildProgram(t *testing.T, rng *rand.Rand, mem []byte) {
	for i := 0; i < soakBlocks; i++ {
		e := &soakEmit{t: t, mem: mem, cur: soakBlockAddr(i)}
		e.soakCheckpoint()
		e.soakBody(rng)
		isFunc := i >= soakBlocks-soakFuncs
		if isFunc {
			e.emit(x86.Inst{Op: x86.RET})
		} else {
			switch rng.Intn(5) {
			case 0: // direct jump
				e.branch(x86.JMP, 0, soakBlockAddr(soakNormal(rng)))
			case 1: // conditional branch with a jump on the fall side
				e.branch(x86.JCC, x86.CC(rng.Intn(16)), soakBlockAddr(soakNormal(rng)))
				e.branch(x86.JMP, 0, soakBlockAddr(soakNormal(rng)))
			case 4: // compare/branch chain: the cmp+jcc fusion and, once
				// hot, the superblock's fused compare guards
				if rng.Intn(2) == 0 {
					e.emit(x86.Inst{Op: x86.CMP, Dst: soakScratch32(rng), Src: soakScratch32(rng)})
				} else {
					e.emit(x86.Inst{Op: x86.TEST, Dst: x86.R(x86.EAX), Src: x86.R(x86.EAX)})
				}
				e.branch(x86.JCC, x86.CC(rng.Intn(16)), soakBlockAddr(soakNormal(rng)))
				e.branch(x86.JMP, 0, soakBlockAddr(soakNormal(rng)))
			case 2: // table-driven indirect jump, index data-dependent
				e.emit(x86.Inst{Op: x86.MOV, Dst: x86.R(x86.ESI), Src: soakScratch32(rng)})
				e.emit(x86.Inst{Op: x86.AND, Dst: x86.R(x86.ESI), Src: x86.I(soakBlocks - 1)})
				e.emit(x86.Inst{Op: x86.MOV, Dst: x86.R(x86.ESI), Src: x86.MSIB(x86.EBX, x86.ESI, 4, 0, 4)})
				e.emit(x86.Inst{Op: x86.JMPM, Dst: x86.R(x86.ESI)})
			default: // call a func block, then jump on
				e.branch(x86.CALL, 0, soakBlockAddr(soakBlocks-soakFuncs+rng.Intn(soakFuncs)))
				e.branch(x86.JMP, 0, soakBlockAddr(soakNormal(rng)))
			}
		}
		if e.cur > soakBlockAddr(i)+soakSlot {
			t.Fatalf("soak block %d overflows its %d-byte slot (%d bytes)", i, soakSlot, e.cur-soakBlockAddr(i))
		}
	}
	// The exit block: one UD2, trapping both engines at a known EIP.
	e := &soakEmit{t: t, mem: mem, cur: soakExit}
	e.emit(x86.Inst{Op: x86.UD2})

	// The jump table: every index resolves to a normal block.
	for i := 0; i < soakBlocks; i++ {
		addr := soakBlockAddr(soakNormal(rng))
		off := soakTable - soakCode + uint32(4*i)
		mem[off] = byte(addr)
		mem[off+1] = byte(addr >> 8)
		mem[off+2] = byte(addr >> 16)
		mem[off+3] = byte(addr >> 24)
	}
}

// soakVM builds a VM with the program image mapped read-write.
func soakVM(t *testing.T, image []byte) *VM {
	t.Helper()
	v, err := New(Config{MemSize: 4 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if err := v.MapSegment(soakCode, image, soakSpan, false); err != nil {
		t.Fatal(err)
	}
	return v
}

// soakSeedRegs puts both VMs in the same randomized start state with
// the role registers pinned.
func soakSeedRegs(rng *rand.Rand, vms ...*VM) {
	vals := [8]uint32{}
	for r := range vals {
		vals[r] = rng.Uint32()
	}
	vals[x86.EBX] = soakTable
	vals[x86.EDI] = soakTrace
	vals[x86.EBP] = soakCountdown
	cf, zf, sf, of, pf := rng.Intn(2) == 0, rng.Intn(2) == 0, rng.Intn(2) == 0, rng.Intn(2) == 0, rng.Intn(2) == 0
	for _, v := range vms {
		copy(v.regs[:8], vals[:])
		v.regs[x86.ESP] = v.MemSize() - 16
		v.cf, v.zf, v.sf, v.of, v.pf = cf, zf, sf, of, pf
		v.fl.Op = 0
	}
}

// refRun drives the reference interpreter instruction-by-instruction
// until the program traps (the soak exit) or maxSteps elapse.
func refRun(v *VM, maxSteps int) (int, error) {
	for steps := 0; steps < maxSteps; steps++ {
		cur := v.eip
		if !v.readable(cur, 1) {
			return steps, &Trap{Kind: TrapMemory, EIP: cur, Addr: cur, Msg: "instruction fetch"}
		}
		win := uint32(15)
		for win > 1 && !v.readable(cur, win) {
			win--
		}
		inst, err := x86.Decode(v.mem[cur : cur+win])
		if err != nil {
			return steps, &Trap{Kind: TrapIllegal, EIP: cur, Msg: err.Error()}
		}
		if err := v.exec(&inst, cur); err != nil {
			return steps, err
		}
	}
	return maxSteps, fmt.Errorf("no termination after %d steps", maxSteps)
}

// soakRunUop builds a soak VM for image with cfg, runs it from block 0
// to the exit trap, and returns the VM and its trap.
func soakRunUop(t *testing.T, image []byte, cfg Config, seed func(*VM)) (*VM, *Trap) {
	t.Helper()
	v, err := New(Config{
		MemSize: 4 << 20, Fuel: cfg.Fuel,
		NoBlockCache: cfg.NoBlockCache, NoFlagElision: cfg.NoFlagElision,
		NoFusion: cfg.NoFusion, NoSuperblocks: cfg.NoSuperblocks,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := v.MapSegment(soakCode, image, soakSpan, false); err != nil {
		t.Fatal(err)
	}
	seed(v)
	v.eip = soakBlockAddr(0)
	br, err := v.lookupBlock(v.eip)
	if err != nil {
		t.Fatal(err)
	}
	err1 := v.execUops(br)
	v.materializeFlags()
	tr, ok := err1.(*Trap)
	if !ok {
		t.Fatalf("soak run did not trap: %v", err1)
	}
	return v, tr
}

// TestOptAblation runs identical soak programs under every optimizer
// configuration — full pipeline, each pass disabled, everything
// disabled — and requires the complete architectural outcome (trap
// site, registers, flags, the whole guest image including the per-
// block checkpoint trace) to be identical. The optimizer may only buy
// speed, never observable behavior. A second round repeats the
// comparison under a tight fuel budget, pinning the fuel-trap EIP and
// accounting through fused micro-ops and superblock promotion.
func TestOptAblation(t *testing.T) {
	configs := []Config{
		{},
		{NoFlagElision: true},
		{NoFusion: true},
		{NoSuperblocks: true},
		{NoFlagElision: true, NoFusion: true, NoSuperblocks: true},
	}
	for _, seed := range []int64{11, 22} {
		rng := rand.New(rand.NewSource(seed))
		image := make([]byte, soakSpan)
		soakBuildProgram(t, rng, image)
		var regSeed [8]uint32
		for r := range regSeed {
			regSeed[r] = rng.Uint32()
		}
		seedVM := func(v *VM) {
			copy(v.regs[:8], regSeed[:])
			v.regs[x86.EBX] = soakTable
			v.regs[x86.EDI] = soakTrace
			v.regs[x86.EBP] = soakCountdown
			v.regs[x86.ESP] = v.MemSize() - 16
			v.fl.Op = 0
		}

		for _, fuel := range []int64{0 /* unlimited */, 20011} {
			base, baseTrap := soakRunUop(t, image, Config{Fuel: fuel}, seedVM)
			for ci := 1; ci < len(configs); ci++ {
				cfg := configs[ci]
				cfg.Fuel = fuel
				v, tr := soakRunUop(t, image, cfg, seedVM)
				if tr.Kind != baseTrap.Kind || tr.EIP != baseTrap.EIP {
					t.Fatalf("seed %d fuel %d config %d: trap %v, want %v", seed, fuel, ci, tr, baseTrap)
				}
				for r := 0; r < 8; r++ {
					if v.regs[r] != base.regs[r] {
						t.Fatalf("seed %d fuel %d config %d: %s = %#x, want %#x",
							seed, fuel, ci, x86.Reg(r), v.regs[r], base.regs[r])
					}
				}
				if v.cf != base.cf || v.zf != base.zf || v.sf != base.sf || v.of != base.of || v.pf != base.pf {
					t.Fatalf("seed %d fuel %d config %d: flags diverged", seed, fuel, ci)
				}
				if !bytes.Equal(v.mem[soakCode:soakCode+soakSpan], base.mem[soakCode:soakCode+soakSpan]) {
					t.Fatalf("seed %d fuel %d config %d: guest image diverged", seed, fuel, ci)
				}
				if v.Stats().Steps != base.Stats().Steps {
					t.Fatalf("seed %d fuel %d config %d: steps %d, want %d",
						seed, fuel, ci, v.Stats().Steps, base.Stats().Steps)
				}
			}
		}
	}
}

// TestSuperblockSnapshotReset pins the superblock/snapshot interplay:
// superblocks are per-VM profile state, so a Reset must drop them (the
// bref wrappers are replaced) while the shared base-block cache
// survives — and the rewound VM must re-profile, re-form and produce
// the identical outcome.
func TestSuperblockSnapshotReset(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	image := make([]byte, soakSpan)
	soakBuildProgram(t, rng, image)
	v := soakVM(t, image)
	snap := v.Snapshot() // pristine, pre-run

	soakSeedRegs(rand.New(rand.NewSource(34)), v)
	v.eip = soakBlockAddr(0)
	br, err := v.lookupBlock(v.eip)
	if err != nil {
		t.Fatal(err)
	}
	_ = v.execUops(br)
	formed := v.Stats().SuperblocksFormed
	if formed == 0 {
		t.Fatal("soak run formed no superblocks; the hot threshold is not being reached")
	}
	trace1 := append([]byte(nil), v.mem[soakTrace:soakTrace+soakCountdown*soakCkptBytes]...)

	// Reset rewinds to the pristine image and drops every bref — and
	// with them the formed superblocks. The re-run must re-form them
	// (stats accumulate across resets) and reproduce the trace exactly.
	if err := v.Reset(snap); err != nil {
		t.Fatal(err)
	}
	soakSeedRegs(rand.New(rand.NewSource(34)), v)
	v.eip = soakBlockAddr(0)
	br, err = v.lookupBlock(v.eip)
	if err != nil {
		t.Fatal(err)
	}
	_ = v.execUops(br)
	if again := v.Stats().SuperblocksFormed; again <= formed {
		t.Fatalf("no superblocks re-formed after Reset: %d then %d", formed, again)
	}
	trace2 := v.mem[soakTrace : soakTrace+soakCountdown*soakCkptBytes]
	if !bytes.Equal(trace1, trace2) {
		t.Fatal("checkpoint trace diverged across Reset")
	}
}

// TestDiffSoakMultiBlock is the long-horizon differential soak. Each
// seed builds a fresh random program and runs it to completion on the
// uop engine (blocks, chaining, inline caches, lazy flags) and on the
// reference interpreter (instruction at a time, eager flags). The trap
// site, the final architectural state, the memory image — including
// the per-block-boundary checkpoint trace — must agree exactly, over
// 10k+ steps per seed.
func TestDiffSoakMultiBlock(t *testing.T) { runDiffSoakMultiBlock(t, false) }

// TestDiffSoakTier2Forced reruns the multi-block soak with the tier-2
// engine forced to both extremes: every superblock promoted to the
// native JIT on first entry, and the tier disabled outright. The soak's
// exactness assertions — trap EIP, steps==fuel accounting, registers,
// flags, memory image — must hold identically in both,
// which is the wall that keeps compiled traces architecturally
// indistinguishable from the dispatch loop. The hot-shared leg runs the
// uop engine on a VM materialized from a snapshot after a sibling VM
// ran the same program and had its superblocks and traces absorbed, so
// the VM under test starts on traces it did not compile.
func TestDiffSoakTier2Forced(t *testing.T) {
	legs := []struct {
		name   string
		env    map[string]string
		shared bool
	}{
		{"hot-native", map[string]string{"VXA_TIER2_HOT": "1"}, false},
		{"hot-shared", map[string]string{"VXA_TIER2_HOT": "1"}, true},
		{"off", map[string]string{"VXA_NO_TIER2": "1"}, false},
	}
	for _, leg := range legs {
		leg := leg
		t.Run(leg.name, func(t *testing.T) {
			skipHotWithoutJIT(t, leg.env)
			for k, v := range leg.env {
				t.Setenv(k, v)
			}
			runDiffSoakMultiBlock(t, leg.shared)
		})
	}
}

// skipHotWithoutJIT skips a forced-hot leg on platforms without the
// native tier-2 emitter: there Compile always returns nil, so the leg's
// "compiled traces actually ran" assertion would fail by construction.
func skipHotWithoutJIT(t *testing.T, env map[string]string) {
	t.Helper()
	if env["VXA_TIER2_HOT"] == "1" && !tier2.Available {
		t.Skip("no native tier-2 emitter on this platform")
	}
}

// soakSharedVM returns a VM for the soak program materialized from a
// snapshot whose code window is read-only, after a sibling VM seeded
// like ref ran the program to its exit trap and was absorbed — so the
// returned VM starts on the sibling's superblocks and shared traces. Its
// registers and flags are copied from ref, which must not have run yet.
func soakSharedVM(t *testing.T, image []byte, ref *VM) *VM {
	t.Helper()
	v, err := New(Config{MemSize: 4 << 20})
	if err != nil {
		t.Fatal(err)
	}
	ro := uint32(soakTable - soakCode) // code only; table, data and trace stay writable
	if err := v.MapSegment(soakCode, image[:ro], ro, true); err != nil {
		t.Fatal(err)
	}
	if err := v.MapSegment(soakTable, image[ro:], soakSpan-ro, false); err != nil {
		t.Fatal(err)
	}
	snap := v.Snapshot()
	seed := func(v *VM) {
		v.regs, v.eip = ref.regs, soakBlockAddr(0)
		v.cf, v.zf, v.sf, v.of, v.pf = ref.cf, ref.zf, ref.sf, ref.of, ref.pf
	}
	sib := snap.NewVM()
	seed(sib)
	br, err := sib.lookupBlock(sib.eip)
	if err != nil {
		t.Fatal(err)
	}
	if tr, ok := sib.execUops(br).(*Trap); !ok || tr.EIP != soakExit {
		t.Fatalf("sibling did not reach the exit trap: %v", tr)
	}
	snap.AbsorbBlocks(sib)
	if n := sib.Stats().Tier2Compiled; n > 0 && snap.TraceCount() == 0 {
		t.Fatalf("sibling compiled %d traces but published none", n)
	}
	v = snap.NewVM()
	seed(v)
	return v
}

func runDiffSoakMultiBlock(t *testing.T, shared bool) {
	seeds := []int64{101, 202, 303, 404, 505, 606}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			image := make([]byte, soakSpan)
			soakBuildProgram(t, rng, image)
			v1 := soakVM(t, image) // uop engine
			v2 := soakVM(t, image) // reference engine
			soakSeedRegs(rng, v1, v2)
			if shared {
				v1 = soakSharedVM(t, image, v2)
			}
			fuel0 := v1.fuel

			v1.eip, v2.eip = soakBlockAddr(0), soakBlockAddr(0)
			br, err := v1.lookupBlock(v1.eip)
			if err != nil {
				t.Fatal(err)
			}
			err1 := v1.execUops(br)
			v1.materializeFlags()
			refSteps, err2 := refRun(v2, 1<<20)

			tr1, ok1 := err1.(*Trap)
			tr2, ok2 := err2.(*Trap)
			if !ok1 || !ok2 {
				t.Fatalf("termination differs: uop err=%v, ref err=%v", err1, err2)
			}
			if tr1.Kind != tr2.Kind || tr1.EIP != tr2.EIP {
				t.Fatalf("trap diverged: uop %v, ref %v", tr1, tr2)
			}
			if tr1.EIP != soakExit {
				t.Fatalf("program trapped at %#x, not the exit block %#x: %v", tr1.EIP, soakExit, tr1)
			}
			if steps := v1.Stats().Steps; steps < 10000 {
				t.Fatalf("soak too short: %d uop-engine steps (ref: %d), want >= 10000", steps, refSteps)
			}
			// Fuel/steps accounting must stay exact through fusion (one
			// micro-op charging several instructions), superblock guard
			// exits (tail refunds) and trap refunds. The uop engine
			// charges the trapping UD2 itself; refRun's count excludes
			// it, hence the +1.
			if steps := v1.Stats().Steps; steps != uint64(refSteps)+1 {
				t.Errorf("steps accounting diverged: %d (uop) vs %d+1 (ref)", steps, refSteps)
			}
			if used := fuel0 - v1.fuel; used != int64(refSteps)+1 {
				t.Errorf("fuel accounting diverged: %d charged (uop) vs %d+1 (ref)", used, refSteps)
			}
			if shared && v1.snap.TraceCount() > 0 && v1.Stats().Tier2Reused == 0 {
				t.Errorf("VM under test ran no shared trace (%d compiled itself)", v1.Stats().Tier2Compiled)
			}
			// When the forced-hot wall is running, the comparison above
			// must actually have covered compiled traces — a soak that
			// silently stayed on tier-1 would prove nothing. The one
			// legitimate escape: a seed whose every superblock holds a
			// micro-op unsupported by design (a KindGeneric/KindString
			// interpreter escape), which tier 2 never compiles.
			if os.Getenv("VXA_TIER2_HOT") == "1" && !envNoTier2() &&
				v1.Stats().Tier2Executed == 0 {
				for _, br := range v1.blocks {
					if br.sb == nil {
						continue
					}
					if i, k := tier2.Unsupported(br.sb.b.uops); i < 0 {
						t.Errorf("tier-2 forced hot but no compiled trace ran (%d compiled), "+
							"yet superblock %#x has no unsupported micro-op",
							v1.Stats().Tier2Compiled, br.sb.b.uops[0].EIP)
					} else {
						t.Logf("superblock %#x stays on tier-1 by design: uop %d is %v",
							br.sb.b.uops[0].EIP, i, k)
					}
				}
			}

			for r := 0; r < 8; r++ {
				if v1.regs[r] != v2.regs[r] {
					t.Errorf("%s = %#x (uop) vs %#x (ref)", x86.Reg(r), v1.regs[r], v2.regs[r])
				}
			}
			if v1.cf != v2.cf || v1.zf != v2.zf || v1.sf != v2.sf || v1.of != v2.of || v1.pf != v2.pf {
				t.Errorf("final flags diverged: cf=%v zf=%v sf=%v of=%v pf=%v (uop) vs cf=%v zf=%v sf=%v of=%v pf=%v (ref)",
					v1.cf, v1.zf, v1.sf, v1.of, v1.pf, v2.cf, v2.zf, v2.sf, v2.of, v2.pf)
			}
			// The checkpoint trace is the per-block-boundary comparison:
			// find the first diverging checkpoint for a usable failure.
			traceEnd := v1.regs[x86.EDI]
			if v2.regs[x86.EDI] == traceEnd {
				for ck := uint32(soakTrace); ck < traceEnd; ck += soakCkptBytes {
					if !bytes.Equal(v1.mem[ck:ck+soakCkptBytes], v2.mem[ck:ck+soakCkptBytes]) {
						t.Errorf("checkpoint %d diverged: uop %x, ref %x",
							(ck-soakTrace)/soakCkptBytes, v1.mem[ck:ck+soakCkptBytes], v2.mem[ck:ck+soakCkptBytes])
						break
					}
				}
			}
			if !bytes.Equal(v1.mem[soakCode:soakCode+soakSpan], v2.mem[soakCode:soakCode+soakSpan]) {
				t.Error("guest memory image diverged")
			}
			if t.Failed() {
				t.FailNow()
			}
		})
	}
}
