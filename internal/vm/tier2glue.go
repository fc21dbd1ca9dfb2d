package vm

// Tier-2 integration: promotion of hot superblocks into native-code
// traces (package tier2) and the exit dispatch that hands control back
// to the tier-1 engine. The tier is invisible to guest semantics: every
// exit path below re-joins exactly the code path the tier-1 dispatch
// loop would have taken for the same micro-op, including fuel refunds,
// chain-slot resolution and trap construction.

import (
	"os"
	"strconv"
	"time"

	"vxa/internal/vm/tier2"
	"vxa/internal/x86"
)

// t2HotDefault is the number of superblock entries before the trace is
// compiled to tier-2 native code. Superblocks themselves form at
// sbHotThreshold block entries, so a trace must prove itself on the
// tier-1 loop first; compilation is cheap (one linear emission pass)
// but profile-teardown churn is not worth compiling for.
const t2HotDefault = 32

// envNoTier2 reports whether VXA_NO_TIER2 forces the tier off
// process-wide (the CI interpreter-fallback leg).
func envNoTier2() bool {
	s := os.Getenv("VXA_NO_TIER2")
	return s != "" && s != "0"
}

// t2HotThreshold resolves the promotion threshold, honoring the
// VXA_TIER2_HOT override (the test wall uses 1 to force every
// superblock hot).
func t2HotThreshold() uint32 {
	if s := os.Getenv("VXA_TIER2_HOT"); s != "" {
		if n, err := strconv.ParseUint(s, 10, 32); err == nil && n > 0 {
			return uint32(n)
		}
	}
	return t2HotDefault
}

// t2Machine returns the VM's tier-2 machine view, allocating it on first
// use, with the sandbox geometry refreshed. The geometry is fixed for
// the life of the guest address space; Mem's base is what every trace
// entry loads, so it must be set before the first one.
func (v *VM) t2Machine() *tier2.Machine {
	m := v.t2m
	if m == nil {
		m = &tier2.Machine{}
		v.t2m = m
	}
	m.Mem = v.mem
	m.MemLen = uint32(len(v.mem))
	m.ROLimit = v.roLimit
	m.StackBase = v.stackBase
	return m
}

// compileTier2 gives the hot superblock sb its tier-2 trace. One
// attempt per superblock: a bail (reference-engine escapes or micro-ops
// the emitter does not handle, or a platform without an emitter) leaves
// it on tier-1 for good. A VM materialized from a snapshot first takes
// the snapshot's shared trace for the fragment, which a sibling may
// have published since sb was formed; otherwise it compiles and
// publishes its own, so later VMs install it instead of compiling.
func (v *VM) compileTier2(sb *bref) {
	sb.t2Tried = true
	if _, t := v.adoptSB(sb.b); t != nil {
		sb.t2, sb.t2Shared = t, true
		return
	}
	start := time.Now()
	t := tier2.Compile(sb.b.uops, sb.b.uops[0].EIP, v.t2Machine())
	v.stats.TranslateNS += uint64(time.Since(start).Nanoseconds())
	if t == nil {
		return
	}
	// Charge fuel by the superblock's block cost, exactly as tier-1
	// does (the per-uop costs the refund paths sum are identical). Set
	// before publishing: a shared trace is immutable.
	t.Cost = sb.b.cost
	sb.t2 = t
	v.stats.Tier2Compiled++
	if s := v.snap; s != nil {
		s.publishTrace(v, sb.b, t)
	}
}

// adoptSB returns the fragment of v's snapshot identical to superblock
// fragment b, or b itself, and that fragment's shared trace when v may
// run it. A VM only captured into a snapshot may not have run tier 2
// yet, so adopting a trace readies its machine view.
func (v *VM) adoptSB(b *block) (*block, *tier2.Trace) {
	if v.snap == nil {
		return b, nil
	}
	b, t := v.snap.shareSB(v, b)
	if t != nil {
		v.t2Machine()
	}
	return b, t
}

// runTier2 executes sb's compiled trace until it exits, then re-joins
// the tier-1 engine: state is synced through the tier-2 machine view,
// accounting is applied per full iteration (Run charges fuel itself),
// and t2Exit dispatches the exit descriptor onto the same chain-slot /
// refund / trap paths the tier-1 handler for the exiting micro-op uses.
// The caller must have checked v.fuel >= sb.b.cost and counted the
// entry in sb.sbEntries.
func (v *VM) runTier2(sb *bref, t *tier2.Trace) (*bref, error) {
	if t.NeedFlags {
		// The native compiler pinned this trace's entry flag state to
		// FlagNone; representation-only, so architecturally invisible.
		v.materializeFlags()
	}
	if sb.t2Shared {
		sb.t2Shared = false
		v.stats.Tier2Reused++
	}
	m := v.t2m
	m.Regs = v.regs
	m.Fl = v.fl
	m.CF, m.ZF, m.SF, m.OF, m.PF = v.cf, v.zf, v.sf, v.of, v.pf
	m.Brk = v.brk
	m.Fuel = v.fuel
	m.PollArmed = v.cancel != nil || v.wallDeadline != 0
	m.Credit = v.cancelCredit
	m.Iters = 0
	m.FlagsMaterialized = 0

	e := t.Run(m)

	v.regs = m.Regs
	v.fl = m.Fl
	v.cf, v.zf, v.sf, v.of, v.pf = m.CF, m.ZF, m.SF, m.OF, m.PF
	v.fuel = m.Fuel
	if m.PollArmed {
		v.cancelCredit = m.Credit
	}
	iters := m.Iters
	before := v.stats.Steps
	v.stats.Steps += iters * uint64(t.Cost)
	v.stats.UopsExecuted += iters * uint64(t.NUops)
	v.stats.FlagsMaterialized += m.FlagsMaterialized
	v.stats.Tier2Executed += iters
	sb.sbEntries += iters - 1 // the entry that brought us here is already counted

	next, err := v.t2Exit(sb, e)
	// Tier2Steps is the tier's exact share of Steps: every refund the
	// exit dispatch performs (guard tails via sbLeave, fault windows via
	// uopTrapN) has landed, so the net Steps delta is precisely the
	// instructions the trace retired.
	v.stats.Tier2Steps += v.stats.Steps - before
	return next, err
}

// t2Exit dispatches a trace exit onto the tier-1 engine, reading the
// dynamic exit payload from the tier-2 machine view.
func (v *VM) t2Exit(sb *bref, e *tier2.Exit) (*bref, error) {
	m := v.t2m
	us := sb.b.uops
	i := e.Uop
	u := &us[i]
	switch e.Kind {
	case tier2.ExitEnd:
		v.eip = e.Target
		if c := sb.taken; c != nil {
			return c, nil
		}
		return v.chainTo(&sb.taken, e.Target)
	case tier2.ExitJccTaken:
		sb.takenCnt++
		v.eip = e.Target
		if c := sb.taken; c != nil {
			return c, nil
		}
		return v.chainTo(&sb.taken, e.Target)
	case tier2.ExitJccFall:
		sb.fallCnt++
		v.eip = e.Target
		if c := sb.fall; c != nil {
			return c, nil
		}
		return v.chainTo(&sb.fall, e.Target)
	case tier2.ExitJccLazy:
		// Plain Jcc terminator: the condition reads the lazily-recorded
		// flags, which have just been synced back, so the tier-1
		// evaluator picks the edge (and counts any flag materialization
		// in the VM's own stat).
		if v.ucond(x86.CC(u.Sub)) {
			sb.takenCnt++
			v.eip = u.Target
			if c := sb.taken; c != nil {
				return c, nil
			}
			return v.chainTo(&sb.taken, u.Target)
		}
		sb.fallCnt++
		v.eip = u.Next
		if c := sb.fall; c != nil {
			return c, nil
		}
		return v.chainTo(&sb.fall, u.Next)
	case tier2.ExitInd:
		target := m.ExitTarget
		v.eip = target
		return v.indirect(sb, target)
	case tier2.ExitGuard:
		v.eip = u.Target
		return v.guardExit(sb, us, i, u)
	case tier2.ExitRetGuard:
		target := m.ExitTarget
		v.eip = target
		return v.retGuardExit(sb, us, i, u, target)
	case tier2.ExitInt:
		v.eip = u.Next // the guest resumes after the gate
		if u.Imm != 0x80 {
			return nil, v.uopTrap(us, i, &Trap{Kind: TrapSyscall, EIP: u.EIP,
				Msg: "interrupt vector not the VXA syscall gate"})
		}
		if err := v.syscall(); err != nil {
			return nil, v.uopTrap(us, i, err)
		}
		if c := sb.taken; c != nil {
			return c, nil
		}
		return v.chainTo(&sb.taken, u.Next)
	case tier2.ExitReadFault:
		return nil, v.uopTrapN(us, i, e.Started, memTrap(e.EIP, m.TrapAddr))
	case tier2.ExitWriteFault:
		return nil, v.uopTrapN(us, i, e.Started, v.storeTrap(e.EIP, m.TrapAddr, e.Size))
	case tier2.ExitDivide:
		tr := &Trap{Kind: TrapDivide, EIP: e.EIP}
		if m.TrapAux == 1 {
			tr.Msg = "quotient overflow"
		}
		return nil, v.uopTrapN(us, i, e.Started, tr)
	default: // tier2.ExitIllegal
		tr := &Trap{Kind: TrapIllegal, EIP: e.EIP, Msg: "privileged instruction"}
		if m.TrapAux == 1 {
			tr.Msg = "ud2"
		}
		return nil, v.uopTrapN(us, i, e.Started, tr)
	}
}
