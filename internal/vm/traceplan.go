package vm

import (
	"sort"

	"vxa/internal/vm/uop"
)

// TracePlanUop is one micro-op of a superblock trace as the tier-2
// compiler sees it: the (possibly fused) operation, the guest
// instructions it accounts for, and — for guards — the exit-chain slot
// a failure dispatches through.
type TracePlanUop struct {
	Index  int    // position within the trace
	EIP    uint32 // source instruction address
	Kind   string // micro-op mnemonic (fused forms keep their fused name)
	Cost   uint8  // guest instructions this micro-op represents (fuel units)
	Guard  int    // guard exit-chain slot, -1 for non-guards
	Ret    int    // return-guard inline-cache slot, -1 otherwise
	Target uint32 // guard/branch exit target (0 when not a transfer)
}

// TracePlan describes one formed superblock and what tier-2 made of
// it: the fused micro-op sequence, the per-trace fuel cost, the guard
// and return-slot geometry, and whether the trace compiled to native
// code. This is the inspection surface behind `vxdump -t2`.
type TracePlan struct {
	Entry   uint32 // guest entry address
	Cost    int64  // fuel charged per full trace iteration
	NUops   int
	Guards  int    // conditional guard exits (chain slots)
	Rets    int    // return guards (inline-cache slots)
	Backend string // "native", "tier1" (compilation bailed) or "disabled"
	Uops    []TracePlanUop
}

// TracePlans returns the tier-2 trace plan of every superblock the VM
// has formed, sorted by entry address. Superblocks not yet promoted are
// compiled on the spot (unless tier-2 is disabled), so the dump shows
// the plan a hot run would execute; a plan whose Backend is "tier1"
// contains a micro-op the compiler bails on and runs on the dispatch
// loop forever.
func (v *VM) TracePlans() []TracePlan {
	var plans []TracePlan
	for _, br := range v.blocks {
		sb := br.sb
		if sb == nil {
			continue
		}
		if !sb.t2Tried && !v.noT2 {
			v.compileTier2(sb)
		}
		backend := "tier1"
		switch {
		case v.noT2 && sb.t2 == nil:
			backend = "disabled"
		case sb.t2 != nil:
			backend = "native"
		}
		us := sb.b.uops
		p := TracePlan{
			Entry:   us[0].EIP,
			Cost:    sb.b.cost,
			NUops:   len(us),
			Guards:  len(sb.sbChains),
			Rets:    len(sb.sbInd),
			Backend: backend,
			Uops:    make([]TracePlanUop, len(us)),
		}
		for i := range us {
			u := &us[i]
			pu := TracePlanUop{Index: i, EIP: u.EIP, Kind: u.Kind.String(),
				Cost: u.Cost, Guard: -1, Ret: -1}
			switch {
			case sbGuardKind(u.Kind):
				pu.Guard = int(u.Aux)
				pu.Target = u.Target
			case u.Kind == uop.KindRetGuard:
				pu.Ret = int(u.Aux)
			case u.Target != 0:
				pu.Target = u.Target
			}
			p.Uops[i] = pu
		}
		plans = append(plans, p)
	}
	sort.Slice(plans, func(i, j int) bool { return plans[i].Entry < plans[j].Entry })
	return plans
}
