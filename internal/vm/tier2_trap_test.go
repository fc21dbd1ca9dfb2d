package vm

// Tier-2 guard-exit trap exactness: a compiled loop trace whose interior
// guard fires mid-trace on the final iteration, with the guard's exit
// path leading straight into a faulting instruction. The trap the guest
// observes — kind, EIP, faulting address — and the architectural state
// around it — registers, the five flags, fuel — must be identical to
// the reference engine's, which pins down the per-trace fuel charge and
// the tail refund a guard exit performs.

import (
	"encoding/binary"
	"math/rand"
	"os"
	"testing"

	"vxa/internal/x86"
)

// t2asm is a tiny forward assembler over a guest address range; branch
// displacements are patched after the target address is known.
type t2asm struct {
	t    *testing.T
	base uint32
	code []byte
}

func (a *t2asm) cur() uint32 { return a.base + uint32(len(a.code)) }

func (a *t2asm) emit(inst x86.Inst) {
	enc, err := x86.Encode(inst)
	if err != nil {
		a.t.Fatalf("encode %v: %v", inst, err)
	}
	a.code = append(a.code, enc...)
}

// patchRel32 rewrites the rel32 that ends the instruction finishing at
// end so it reaches target.
func (a *t2asm) patchRel32(end, target uint32) {
	binary.LittleEndian.PutUint32(a.code[end-a.base-4:], target-end)
}

func TestDiffTier2GuardExitTrap(t *testing.T) {
	legs := []struct {
		name string
		env  map[string]string
	}{
		{"hot-native", map[string]string{"VXA_TIER2_HOT": "1"}},
		{"off", map[string]string{"VXA_NO_TIER2": "1"}},
	}
	for _, leg := range legs {
		leg := leg
		t.Run(leg.name, func(t *testing.T) {
			skipHotWithoutJIT(t, leg.env)
			for k, v := range leg.env {
				t.Setenv(k, v)
			}
			runTier2GuardExitTrap(t)
		})
	}
}

func runTier2GuardExitTrap(t *testing.T) {
	const (
		fuel  = 4096
		loops = 200 // iterations before the guard finally fires
	)

	// A:    add eax, 1
	//       cmp ecx, 0
	//       je  EXIT          ; fall-dominant: becomes the trace guard
	// B:    sub ecx, 1
	//       jmp A             ; loop back edge closes the trace
	// EXIT: mov [edx], eax    ; edx points below the first page: faults
	//       ud2
	asm := &t2asm{t: t, base: diffCode}
	aAddr := asm.cur()
	asm.emit(x86.Inst{Op: x86.ADD, Dst: x86.R(x86.EAX), Src: x86.I(1)})
	asm.emit(x86.Inst{Op: x86.CMP, Dst: x86.R(x86.ECX), Src: x86.I(0)})
	asm.emit(x86.Inst{Op: x86.JCC, CC: x86.CCE, Rel: 0})
	jeEnd := asm.cur()
	asm.emit(x86.Inst{Op: x86.SUB, Dst: x86.R(x86.ECX), Src: x86.I(1)})
	asm.emit(x86.Inst{Op: x86.JMP, Rel: 0})
	exitAddr := asm.cur()
	asm.patchRel32(asm.cur(), aAddr) // jmp A
	asm.patchRel32(jeEnd, exitAddr)  // je EXIT
	asm.emit(x86.Inst{Op: x86.MOV, Dst: x86.MSIB(x86.EDX, x86.NoReg, 1, 0, 4), Src: x86.R(x86.EAX)})
	asm.emit(x86.Inst{Op: x86.UD2})

	rng := rand.New(rand.NewSource(7))
	v1 := diffVM(t) // uop engine (tier-2 per the leg's env)
	v2 := diffVM(t) // reference engine
	seedState(t, rng, v1, v2)
	v1.regs[x86.ECX], v2.regs[x86.ECX] = loops, loops
	v1.regs[x86.EDX], v2.regs[x86.EDX] = 0x10, 0x10
	v1.fuel, v2.fuel = fuel, fuel
	copy(v1.mem[diffCode:], asm.code)
	copy(v2.mem[diffCode:], asm.code)

	v1.eip = diffCode
	br, err := v1.lookupBlock(diffCode)
	if err != nil {
		t.Fatal(err)
	}
	err1 := v1.execUops(br)
	v1.materializeFlags()

	v2.eip = diffCode
	refSteps, err2 := refRun(v2, fuel)

	tr1, ok1 := err1.(*Trap)
	tr2, ok2 := err2.(*Trap)
	if !ok1 || !ok2 {
		t.Fatalf("no trap: uop %v, ref %v", err1, err2)
	}
	if tr1.Kind != tr2.Kind || tr1.EIP != tr2.EIP || tr1.Addr != tr2.Addr {
		t.Fatalf("trap diverged: uop %v, ref %v", tr1, tr2)
	}
	if tr1.EIP != exitAddr {
		t.Fatalf("trap EIP = %#x, want the guard exit path %#x", tr1.EIP, exitAddr)
	}
	for r := 0; r < 8; r++ {
		if v1.regs[r] != v2.regs[r] {
			t.Fatalf("%s = %#x (uop) vs %#x (ref)", x86.Reg(r), v1.regs[r], v2.regs[r])
		}
	}
	f1 := [5]bool{v1.cf, v1.zf, v1.sf, v1.of, v1.pf}
	f2 := [5]bool{v2.cf, v2.zf, v2.sf, v2.of, v2.pf}
	if f1 != f2 {
		t.Fatalf("flags CF/ZF/SF/OF/PF = %v (uop) vs %v (ref)", f1, f2)
	}
	// Fuel exactness across the guard exit: the trace charges its full
	// cost per iteration and the exit refunds the skipped tail, so the
	// engines must agree that every started instruction cost exactly one.
	if want := int64(fuel - refSteps - 1); v1.fuel != want {
		t.Fatalf("fuel = %d, want %d (ref started %d+1 instructions)", v1.fuel, want, refSteps)
	}

	if os.Getenv("VXA_TIER2_HOT") == "1" && !envNoTier2() {
		st := v1.Stats()
		if st.Tier2Executed == 0 {
			t.Fatalf("tier-2 forced hot but no compiled trace ran (%d compiled)", st.Tier2Compiled)
		}
		if br.sb == nil || br.sb.t2 == nil {
			t.Fatalf("loop head has no compiled superblock trace")
		}
	} else if st := v1.Stats(); st.Tier2Executed != 0 {
		t.Fatalf("tier-2 disabled but %d compiled iterations ran", st.Tier2Executed)
	}
}
