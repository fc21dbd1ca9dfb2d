package tier2

import "vxa/internal/vm/uop"

// Compile emits one optimized superblock trace as native machine code
// for m's sandbox geometry: register operands become fixed
// displacements into the Machine's register file, immediates and
// effective-address shapes become instruction constants, and every
// exit site gets a static Exit descriptor. Returns
// nil when the trace cannot be compiled — a reference-interpreter
// escape (KindString/KindGeneric), a malformed trace, a micro-op the
// emitter does not handle, no executable memory, or a platform without
// an emitter (Available is false); the superblock then simply keeps
// executing on the tier-1 dispatch loop.
//
// The sandbox geometry (m.MemLen, m.ROLimit, m.StackBase) is baked in
// at compile time; m.Mem's base and all guest state are read from the
// Machine passed to each Run. The trace therefore serves any Machine
// with the same geometry — every VM materialized from one snapshot.
func Compile(us []uop.Uop, entry uint32, m *Machine) *Trace {
	if i, _ := Unsupported(us); i >= 0 {
		return nil
	}
	t := &Trace{
		Entry: entry,
		Cost:  uop.Cost(us),
		NUops: len(us),
	}
	if !nativeCompile(us, entry, m, t) {
		return nil
	}
	return t
}

// Unsupported returns the index and kind of the first micro-op that
// prevents tier-2 compilation, or (-1, 0) when the trace is compilable:
// the reference-interpreter escapes, and any control terminator that is
// not the final micro-op (which a well-formed superblock never
// produces).
func Unsupported(us []uop.Uop) (int, uop.Kind) {
	for i := range us {
		k := us[i].Kind
		switch k {
		case uop.KindString, uop.KindGeneric:
			return i, k
		}
		if terminatorKind(k) && i != len(us)-1 {
			return i, k
		}
	}
	if len(us) == 0 || !terminatorKind(us[len(us)-1].Kind) {
		return len(us) - 1, 0
	}
	return -1, 0
}

// terminatorKind reports the control-transfer kinds that must end a
// trace (guards and return guards are interior and not included).
func terminatorKind(k uop.Kind) bool {
	switch k {
	case uop.KindJmp, uop.KindJcc,
		uop.KindCmpJccRR, uop.KindCmpJccRI, uop.KindTestJccRR, uop.KindTestJccRI,
		uop.KindCall, uop.KindCallR, uop.KindCallM,
		uop.KindRet, uop.KindPopRet, uop.KindPushCall,
		uop.KindJmpR, uop.KindJmpM,
		uop.KindInt, uop.KindHlt, uop.KindUd2:
		return true
	}
	return false
}
