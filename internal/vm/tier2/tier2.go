// Package tier2 is the VM's second execution tier: it compiles an
// already-formed, already-optimized superblock trace (internal/vm's
// superblock.go) into native amd64 machine code. The code bakes in only
// the sandbox geometry and reaches all guest state through the Machine
// passed on each entry, so one compiled trace is immutable and may be
// run by every VM with that geometry — the host VM shares it across all
// VMs materialized from one decoder snapshot.
//
// Where the tier-1 engine re-dispatches a giant switch per micro-op —
// re-loading operand fields and bounds-checking register indices every
// step — a tier-2 trace resolves every operand at compile time:
// register operands become fixed displacements into the Machine's
// register file, immediates and effective-address shapes become
// instruction constants, and the lazy-flag record's materialization is
// specialized to the flag writer statically known at each consumer.
// Control flow inside a trace is straight-line by construction; guards
// either fall through (the profiled hot path) or return a nonzero exit
// status indexing a static Exit descriptor.
//
// The tier is semantically invisible. The emitted code replicates the
// tier-1 handlers in uexec.go exactly: lazy-flag records, the guard
// flag-recording rules (base guards record on both paths, NF guards
// only on exit), spare-field trap EIPs and started-instruction counts
// for fused pairs, and the per-trace fuel charge with tail refunds
// applied by the caller on early exits. Traps and guard exits demote
// cleanly to the tier-1 uop path, and machine code is never serialized:
// the host VM rebuilds traces from persisted superblocks. Platforms
// without the emitter (Available is false) compile nothing and run
// tier 1.
package tier2

import "vxa/internal/vm/uop"

// pageSize mirrors vm.PageSize (the package cannot import vm without a
// cycle); the emitted sandbox bounds checks must stay in lockstep with
// vm's rdOK/wrOK.
const pageSize = 0x1000

// Machine is the guest-state view a compiled trace executes against.
// Each VM owns one and copies its architectural state in before Run and
// back out after; a trace holds no pointer to any Machine, so VMs with
// the same sandbox geometry run the same trace. The geometry fields are
// set once per VM (the guest memory slice never reallocates) except
// Brk, which moves with setperm and is re-synced per entry.
type Machine struct {
	// Regs mirrors vm.VM.regs: eight architectural registers plus the
	// always-zero uop.RegZero slot that absent base/index registers
	// index. Emitted code addresses it by fixed offset from the Machine
	// pointer passed on each entry.
	Regs [9]uint32

	// Lazy-flag state, synced with the VM's representation: the bools
	// are authoritative only while Fl.Op == uop.FlagNone.
	Fl                 uop.Flags
	CF, ZF, SF, OF, PF bool

	// Sandbox geometry. MemLen/ROLimit/StackBase are baked into the
	// emitted bounds checks at compile time and Mem's base is loaded
	// once per entry; Brk is read per access (setperm can grow it
	// between trace executions).
	Mem                        []byte
	MemLen, ROLimit, StackBase uint32
	Brk                        uint32

	// Fuel is charged Trace.Cost per iteration by Run; the caller
	// refunds unexecuted tails on guard/trap exits exactly as tier-1.
	Fuel int64

	// Cancellation/watchdog countdown, shared with the VM's
	// cancelQuantum credit: Run decrements it per iteration when
	// PollArmed and stops looping internally once it expires, so the
	// owning VM polls on the same cadence as the interpreter.
	Credit    int64
	PollArmed bool

	// Iters counts trace iterations started during the current Run
	// (loop-back traces iterate internally); the caller converts it to
	// Steps/UopsExecuted/fuel accounting.
	Iters uint64

	// FlagsMaterialized counts the EFLAGS bits the emitted code
	// computes from lazy records during the current Run, mirroring the
	// tier-1 stat.
	FlagsMaterialized uint64

	// Exit payload: the faulting address / the divide-vs-overflow and
	// hlt-vs-ud2 selector / the dynamic transfer target, valid per the
	// returned Exit's Kind.
	TrapAddr   uint32
	TrapAux    uint32
	ExitTarget uint32
}

// ExitKind classifies how a trace run ended.
type ExitKind uint8

// Exit kinds. End/JccTaken/JccFall/Ind are normal control transfers out
// of the trace; Guard/RetGuard leave mid-trace with the tail unexecuted
// (the caller refunds it); Int hands the syscall gate back to the VM;
// the *Fault/Divide/Illegal kinds are traps.
const (
	ExitEnd ExitKind = iota
	ExitJccTaken
	ExitJccFall
	ExitInd
	ExitGuard
	ExitRetGuard
	ExitInt
	ExitReadFault
	ExitWriteFault
	ExitDivide
	ExitIllegal

	// ExitJccLazy is a plain (unfused) Jcc terminator leaving a native
	// trace: the condition reads lazily-recorded flags, whose
	// materialization lives in the VM, so the trace exits with the flag
	// record synced and lets the caller evaluate the condition and pick
	// between the micro-op's Target and Next.
	ExitJccLazy
)

// Exit is one static exit descriptor: everything about an exit site
// that is known at compile time. Dynamic values (faulting address,
// indirect target) ride in the Machine.
type Exit struct {
	Kind    ExitKind
	Uop     int    // index of the exiting micro-op in the trace
	EIP     uint32 // trap-report EIP (spare-field metadata for fused pairs)
	Target  uint32 // static transfer target (End/JccTaken/JccFall/Guard)
	Size    uint32 // access size for memory faults
	Started int    // guest instructions begun within the fused op at the fault
	Loop    bool   // End exit whose target is the trace entry (loop back edge)
}

// Trace is one compiled superblock: the machine code plus its static
// exit table and accounting shape. It is immutable once its owner has
// set Cost, so many goroutines may Run it at once, each on its own
// Machine.
type Trace struct {
	// head enters the emitted code. The code iterates loop-back edges
	// internally, charging Fuel and Credit per iteration, and returns
	// the 1-based exit index. code pins the executable mapping for the
	// life of the trace.
	head  func(*Machine) int32
	code  *execBuf
	Exits []Exit

	Entry  uint32 // guest address of the trace entry
	Cost   int64  // guest instructions per full iteration (fuel units)
	NUops  int    // micro-ops per iteration (UopsExecuted units)
	Guards int    // conditional guard exits
	Rets   int    // return-guard exits
	Loop   bool   // the trace's end transfer re-enters the trace

	// NeedFlags marks a trace that consumes the flag state it was
	// entered with: the caller must materialize the VM's lazy flags
	// (Fl.Op == FlagNone) before every entry. The emitter pins the
	// entry representation statically instead of dispatching on Fl.Op
	// at run time; its loop back edge preserves the invariant itself.
	NeedFlags bool
}

// CodeBytes reports the size of the trace's executable mapping, the
// resident bytes it pins beyond its Go-heap exit table.
func (t *Trace) CodeBytes() int {
	if t.code == nil {
		return 0
	}
	return len(t.code.buf)
}

// Run executes the trace until it exits. The caller must have checked
// Fuel >= Cost for the first iteration; the emitted code charges Cost
// per iteration (and Credit, when armed) and keeps iterating
// internally only on the loop back edge while fuel and the poll credit
// allow — so a hot loop spins inside one Run call, and cancellation
// still lands on the interpreter's quantum.
func (t *Trace) Run(m *Machine) *Exit {
	return &t.Exits[t.head(m)-1]
}
