//go:build amd64 && linux

package tier2

import (
	"unsafe"

	"vxa/internal/vm/uop"
	"vxa/internal/x86"
)

// Static lazy-flag tracking for the native emitter.
//
// The tier-1 engine (uexec.go) materializes EFLAGS bits on demand by
// inspecting Fl.Op at run time. The emitter instead tracks the flag
// representation at COMPILE time: emission walks the trace linearly, so
// at any micro-op the last unconditional flag writer earlier in the
// trace is known statically, and the materialization sequence for
// exactly that FlagOp can be emitted inline. The trace entry state is
// pinned by contract instead of tracked: a trace whose consumers read
// flags before any in-trace writer sets Trace.NeedFlags, and the glue
// materializes the VM's flags before every entry, so the entry state
// is statically FlagNone; the loop back edge then re-materializes
// (matAll) whenever the body leaves a record behind, keeping the
// invariant on every iteration. Only a conditional writer (ShiftRCL
// skips its record when the masked count is zero) leaves the state
// unknown (flUnknown) and makes later consumers bail back to tier-1.
//
// Every sequence below mirrors a formula in uop/flags.go or a VM flag
// accessor in uexec.go; none relies on host flag bits that x86 leaves undefined
// (shift OF, for one, is computed from the record, not replayed).

const (
	flUnknown = -1 // no statically-known writer: consumers bail
	flEntry   = -2 // trace entry: FlagNone, guaranteed by the NeedFlags glue
)

var (
	offFlKeep   = offFl + 1 // Fl.KeptCF; layout asserted in native_amd64.go
	offFlagsMat = int32(unsafe.Offsetof(zm.FlagsMaterialized))
)

// curFl resolves the tracked state for a consumer. Reading the entry
// state leans on the glue contract — runTier2 materializes the VM's
// flags before entering a NeedFlags trace, so the first iteration
// arrives with Fl.Op == FlagNone — and marks the trace as needing it.
func (e *nemit) curFl() uop.FlagOp {
	if e.flOp == flEntry {
		e.usedEntry = true
		return uop.FlagNone
	}
	return uop.FlagOp(e.flOp)
}

// matAll converts the current record to the eager representation —
// the five bools from the record, then Op = FlagNone — mirroring
// VM.materializeFlags (including its materialization counts: the
// extractors add 5, or 3 for the FlagSZP partial record). Emitted on
// the loop back edge of a trace that consumed its entry state, so
// every iteration sees the same FlagNone entry the glue guaranteed
// the first one. Does not advance e.flOp: a second looping edge of
// the same trace must still see the real end state.
func (e *nemit) matAll() {
	a := &e.a
	if uop.FlagOp(e.flOp) != uop.FlagSZP { // SZP keeps CF/OF eager already
		e.cfValue(hAX)
		a.storeM8(offCF, hAX)
		e.ofValue(hAX)
		a.storeM8(offOF, hAX)
	}
	e.zfValue(hAX)
	a.storeM8(offZF, hAX)
	e.sfValue(hAX)
	a.storeM8(offSF, hAX)
	e.pfValue(hAX)
	a.storeM8(offPF, hAX)
	a.storeMI8(offFlOp, byte(uop.FlagNone))
}

// cfValue leaves the guest CF as 0 or 1 in dst, mirroring
// VM.fCF for the statically-known record e.flOp (which must not
// be flUnknown). Clobbers CX, DX and the host flags; dst must be
// neither of those.
func (e *nemit) cfValue(dst int) {
	a := &e.a
	switch op := e.curFl(); op {
	case uop.FlagNone, uop.FlagSZP:
		a.loadM8(dst, offCF) // eager bool is authoritative
		return
	case uop.FlagAddKeep, uop.FlagSubKeep:
		a.loadM8(dst, offFlKeep)
	case uop.FlagLogic, uop.FlagLogic8:
		a.movRI(dst, 0)
	case uop.FlagAdd:
		a.loadM(hCX, offFlA)
		a.aluRM(aluAddRM, hCX, offFlB)
		a.movRI(dst, 0)
		a.setcc(byte(x86.CCB), dst) // carry out of A+B
	case uop.FlagAdc:
		a.loadM(hCX, offFlCin)
		a.shiftRI(shrExt, hCX, 1) // host CF := Cin (Cin is 0 or 1)
		a.loadM(hDX, offFlA)
		a.aluRM(aluAdcRM, hDX, offFlB)
		a.movRI(dst, 0)
		a.setcc(byte(x86.CCB), dst)
	case uop.FlagSub, uop.FlagSub8:
		a.loadM(hCX, offFlA)
		a.aluRM(aluCmpRM, hCX, offFlB)
		a.movRI(dst, 0)
		a.setcc(byte(x86.CCB), dst) // A < B
	case uop.FlagSbb:
		// A < B+Cin over 33 bits: if B+Cin wraps 32 bits the borrow
		// is certain, otherwise compare against the 32-bit sum.
		a.loadM(hDX, offFlB)
		a.aluRM(aluAddRM, hDX, offFlCin)
		a.movRI(dst, 0)
		a.setcc(byte(x86.CCB), dst)
		a.loadM(hCX, offFlA)
		a.aluRR(aluCmpMR, hCX, hDX)
		a.movRI(hCX, 0)
		a.setcc(byte(x86.CCB), hCX)
		a.aluRR(aluOrMR, dst, hCX)
	case uop.FlagShl:
		// Bit (32-B) of A; the record guarantees B in 1..31.
		a.loadM(hCX, offFlB)
		a.movRI(hDX, 32)
		a.aluRR(aluSubMR, hDX, hCX)
		a.movRR(hCX, hDX)
		a.loadM(dst, offFlA)
		a.shiftCL(shrExt, dst)
		a.aluRI(aluAndExt, dst, 1)
	case uop.FlagShr, uop.FlagSar:
		// Bit (B-1) of A, through the matching shift for SAR.
		ext := shrExt
		if op == uop.FlagSar {
			ext = sarExt
		}
		a.loadM(hCX, offFlB)
		a.aluRI(aluSubExt, hCX, 1)
		a.loadM(dst, offFlA)
		a.shiftCL(ext, dst)
		a.aluRI(aluAndExt, dst, 1)
	case uop.FlagAdd8:
		a.loadM(dst, offFlA)
		a.aluRM(aluAddRM, dst, offFlB)
		a.shiftRI(shrExt, dst, 8) // bit 8 of an 8-bit sum
	case uop.FlagAdc8:
		a.loadM(dst, offFlA)
		a.aluRM(aluAddRM, dst, offFlB)
		a.aluRM(aluAddRM, dst, offFlCin)
		a.shiftRI(shrExt, dst, 8)
	case uop.FlagSbb8:
		// B+Cin <= 0x100: no 32-bit wrap possible, one compare does.
		a.loadM(hDX, offFlB)
		a.aluRM(aluAddRM, hDX, offFlCin)
		a.loadM(hCX, offFlA)
		a.aluRR(aluCmpMR, hCX, hDX)
		a.movRI(dst, 0)
		a.setcc(byte(x86.CCB), dst)
	}
	a.incM64(offFlagsMat)
}

// zfValue leaves the guest ZF as 0 or 1 in dst. Same clobbers as
// cfValue.
func (e *nemit) zfValue(dst int) {
	a := &e.a
	if e.curFl() == uop.FlagNone {
		a.loadM8(dst, offZF)
		return
	}
	a.loadM(hCX, offFlRes) // writers store Res pre-masked
	a.movRI(dst, 0)
	a.testRR(hCX, hCX)
	a.setcc(byte(x86.CCE), dst)
	a.incM64(offFlagsMat)
}

// sfValue leaves the guest SF as 0 or 1 in dst: the result's top bit
// at the record's width.
func (e *nemit) sfValue(dst int) {
	a := &e.a
	op := e.curFl()
	if op == uop.FlagNone {
		a.loadM8(dst, offSF)
		return
	}
	a.loadM(dst, offFlRes)
	if op >= uop.FlagAdd8 {
		a.shiftRI(shrExt, dst, 7) // Res pre-masked to 8 bits
	} else {
		a.shiftRI(shrExt, dst, 31)
	}
	a.incM64(offFlagsMat)
}

// pfValue leaves the guest PF as 0 or 1 in dst. Host PF after any
// width of TEST reflects only the low result byte — exactly the
// record formula.
func (e *nemit) pfValue(dst int) {
	a := &e.a
	if e.curFl() == uop.FlagNone {
		a.loadM8(dst, offPF)
		return
	}
	a.loadM(hCX, offFlRes)
	a.movRI(dst, 0)
	a.testRR(hCX, hCX)
	a.setcc(byte(x86.CCP), dst)
	a.incM64(offFlagsMat)
}

// ofValue leaves the guest OF as 0 or 1 in dst. The shift forms use
// the record formulas rather than a hardware replay: host OF after a
// multi-bit shift is undefined, the guest's is not.
func (e *nemit) ofValue(dst int) {
	a := &e.a
	op := e.curFl()
	switch op {
	case uop.FlagNone, uop.FlagSZP:
		a.loadM8(dst, offOF)
		return
	case uop.FlagLogic, uop.FlagLogic8, uop.FlagSar:
		a.movRI(dst, 0)
	case uop.FlagShr:
		a.loadM(dst, offFlA)
		a.shiftRI(shrExt, dst, 31)
	case uop.FlagShl:
		// OF = sign(Res) != CF; cfValue counts the materialization.
		e.cfValue(dst)
		a.loadM(hCX, offFlRes)
		a.shiftRI(shrExt, hCX, 31)
		a.aluRR(aluXorMR, dst, hCX)
		return
	default:
		// Add/sub families: signed overflow from operands and result.
		sign := uint32(0x80000000)
		if op >= uop.FlagAdd8 {
			sign = 0x80
		}
		a.loadM(dst, offFlA)
		a.loadM(hCX, offFlB)
		a.aluRR(aluXorMR, hCX, dst) // A^B
		switch op {
		case uop.FlagAdd, uop.FlagAdc, uop.FlagAddKeep, uop.FlagAdd8, uop.FlagAdc8:
			a.negNot(2, hCX) // add overflows where the signs agreed
		}
		a.loadM(hDX, offFlRes)
		a.aluRR(aluXorMR, hDX, dst) // A^Res
		a.aluRR(aluAndMR, hCX, hDX)
		a.testRI(hCX, sign)
		a.movRI(dst, 0)
		a.setcc(byte(x86.CCNE), dst)
	}
	a.incM64(offFlagsMat)
}

// flagsCond leaves the condition cc as 0 or 1 in dst, mirroring
// VM.ucond against the statically-known flag state. sc is a
// second scratch register that must survive the per-flag sequences
// (R8 or R9). Returns false when the flag state is unknown here and
// the trace must stay on tier-1.
func (e *nemit) flagsCond(cc byte, dst, sc int) bool {
	if e.flOp == flUnknown {
		return false
	}
	a := &e.a
	switch cc &^ 1 { // the odd codes negate their even partner
	case byte(x86.CCO):
		e.ofValue(dst)
	case byte(x86.CCB):
		e.cfValue(dst)
	case byte(x86.CCE):
		e.zfValue(dst)
	case byte(x86.CCBE): // CF || ZF
		e.cfValue(dst)
		a.movRR(sc, dst)
		e.zfValue(dst)
		a.aluRR(aluOrMR, dst, sc)
	case byte(x86.CCS):
		e.sfValue(dst)
	case byte(x86.CCP):
		e.pfValue(dst)
	case byte(x86.CCL): // SF != OF
		e.ofValue(dst)
		a.movRR(sc, dst)
		e.sfValue(dst)
		a.aluRR(aluXorMR, dst, sc)
	default: // CCLE: ZF || SF != OF
		e.ofValue(dst)
		a.movRR(sc, dst)
		e.sfValue(dst)
		a.aluRR(aluXorMR, dst, sc)
		a.movRR(sc, dst)
		e.zfValue(dst)
		a.aluRR(aluOrMR, dst, sc)
	}
	if cc&1 != 0 {
		a.aluRI(aluXorExt, dst, 1)
	}
	return true
}
