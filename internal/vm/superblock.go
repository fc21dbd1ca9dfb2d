package vm

import (
	"vxa/internal/vm/uop"
	"vxa/internal/x86"
)

// Superblock formation: when a block has run hot, the chain of blocks
// control actually flows through — the dominant path, per the taken/
// fall edge counters the Jcc dispatch maintains — is re-translated as
// one straight-line fragment. Interior direct jumps disappear, interior
// conditional branches become guard exits (taken only when control
// leaves the trace), and the whole fragment goes back through the
// optimizer, so instruction fusion and flag liveness now work across
// the original block boundaries: a loop whose body spans four fragments
// pays one dispatch-loop entry per iteration instead of four, and a
// flag record that died across a block edge is elided instead of kept
// for a successor that clobbers it.
//
// Superblocks are profile-driven state: they hang off the per-VM base
// bref, are dropped wholesale by Reset, and are torn down for
// re-formation when their guards fire on most entries (the profile went
// stale). The base blocks they were assembled from stay in the cache
// untouched — cold entries into the middle of a trace still execute
// them directly. A snapshot carries the ones AbsorbBlocks took, and a
// formed fragment identical to one the snapshot shares is replaced by
// the shared one, so its compiled trace is reused (snapshot.go).
const (
	// sbHotThreshold is how many times a block must be entered before
	// its dominant path is re-translated.
	sbHotThreshold = 17
	// sbMaxBlocks and sbMaxUops bound one superblock's growth.
	sbMaxBlocks = 64
	sbMaxUops   = 1536
	// sbMinExits guard exits must accumulate before the exit/entry
	// ratio is consulted for invalidation; a superblock whose exits
	// then exceed half its entries is torn down and re-profiled, at
	// most sbMaxReforms times per block.
	sbMinExits   = 256
	sbMaxReforms = 8
)

// sbGuardKind reports whether a micro-op kind is a conditional guard,
// whose Aux field is a chain-slot index rather than a register. The
// set must cover every guard variant the optimizer can fuse a
// KindGuard into; formSuperblock and the snapshot deserializer both
// number slots by scanning with this predicate, which is what keeps a
// persisted superblock's slot geometry identical to a freshly formed
// one's.
func sbGuardKind(k uop.Kind) bool {
	switch k {
	case uop.KindGuard, uop.KindGuardCmpRR, uop.KindGuardCmpRI,
		uop.KindGuardTestRR, uop.KindGuardTestRI,
		uop.KindGuardCmpRRNF, uop.KindGuardCmpRINF,
		uop.KindGuardTestRRNF, uop.KindGuardTestRINF:
		return true
	}
	return false
}

// sbNumberSlots assigns each guard its exit-chain slot and each return
// guard its inline-cache slot, in order, and returns the slot counts.
func sbNumberSlots(us []uop.Uop) (guards, rets int) {
	for i := range us {
		switch {
		case sbGuardKind(us[i].Kind):
			us[i].Aux = uint8(guards)
			guards++
		case us[i].Kind == uop.KindRetGuard:
			us[i].Aux = uint8(rets)
			rets++
		}
	}
	return guards, rets
}

// sbEndsTrace reports whether a terminator micro-op kind ends
// superblock growth outright: indirect jumps and calls, syscall gates
// and deliberate traps all stay block-final. Direct calls and returns
// are NOT here: the trace grows through them (the paper's §5.2
// decoder-loop inlining), pairing each inlined call with a guarded
// return.
func sbEndsTrace(k uop.Kind) bool {
	switch k {
	case uop.KindCallR, uop.KindCallM,
		uop.KindJmpR, uop.KindJmpM, uop.KindInt, uop.KindHlt, uop.KindUd2:
		return true
	}
	return false
}

// formSuperblock attempts to grow and install a superblock for the hot
// block entry. On success entry.sb carries the new fragment's bref; on
// failure (nothing to grow) the entry is marked tried so the attempt is
// not repeated until a re-profile.
func (v *VM) formSuperblock(entry *bref) {
	entry.sbTried = true
	if v.noCache {
		return
	}

	var uops []uop.Uop
	visited := make(map[*block]bool)
	var callRets []uint32 // return addresses of calls inlined so far
	cur := entry
	blocks := 0
	lastEnd := entry.b.end

	for {
		b := cur.b
		blocks++
		lastEnd = b.end
		raw := uop.Lower(b.insts, b.addrs)
		term := &raw[len(raw)-1]

		// Decide how this block continues the trace. Branch-driven
		// growth (jmp/jcc/fall-through) marks blocks visited and stops
		// on revisit — that is the loop back edge, which must stay a
		// real terminator so iterations re-enter the superblock.
		// Call-driven growth skips the visited check (two call sites
		// may legitimately inline one callee); sbMaxBlocks bounds it.
		full := blocks >= sbMaxBlocks || len(uops)+len(raw) > sbMaxUops
		var nextAddr uint32
		var repl *uop.Uop // replacement for the terminator, if any
		grow, viaCall := false, false
		switch {
		case sbEndsTrace(term.Kind):
			// keep the terminator; trace ends here

		case term.Kind == uop.KindJmp:
			visited[b] = true
			if !full {
				nextAddr, grow = term.Target, true
			}

		case term.Kind == uop.KindJcc:
			visited[b] = true
			if !full {
				// Follow the profiled dominant edge; the guard exits to
				// the other side with the condition inverted as needed.
				g := *term
				g.Kind = uop.KindGuard
				if cur.takenCnt >= cur.fallCnt {
					g.Sub = uint8(x86.CC(term.Sub).Negate())
					g.Target = term.Next
					nextAddr = term.Target
				} else {
					g.Target = term.Target
					nextAddr = term.Next
				}
				repl, grow = &g, true
			}

		case term.Kind == uop.KindCall:
			// Inline the callee: the call's push of the return address
			// stays (as a push-immediate), execution falls into the
			// callee's entry.
			if !full {
				p := *term
				p.Kind, p.Imm, p.Target = uop.KindPushI, term.Next, 0
				repl, grow, viaCall = &p, true, true
				nextAddr = term.Target
			}

		case term.Kind == uop.KindRet:
			// A return matching an inlined call continues the trace at
			// the recorded return address, guarded at runtime: any
			// other popped value exits through the guard's inline
			// cache. An unmatched return ends the trace.
			if !full && len(callRets) > 0 {
				g := *term
				g.Kind = uop.KindRetGuard
				g.Target = callRets[len(callRets)-1]
				repl, grow, viaCall = &g, true, true
				nextAddr = g.Target
				callRets = callRets[:len(callRets)-1]
			}

		default:
			// No control terminator: the block fell through at the
			// fragment-length cap.
			visited[b] = true
			if !full {
				nextAddr, grow = b.end, true
			}
		}

		var next *bref
		if grow {
			nb, err := v.lookupBlock(nextAddr)
			if err != nil || (!viaCall && visited[nb.b]) {
				// Undecodable successor or trace closure (the loop back
				// edge): keep the original terminator and stop.
				grow = false
			} else {
				next = nb
			}
		}

		if !grow {
			uops = append(uops, raw...)
			switch term.Kind {
			case uop.KindJmp, uop.KindJcc, uop.KindCall, uop.KindRet:
			default:
				if !sbEndsTrace(term.Kind) {
					// A fall-through tail needs an explicit transfer:
					// the dispatch loop's implicit fall-through uses
					// the BASE block's end address, not this trace's.
					// The synthetic jump is no guest instruction, so it
					// costs no fuel.
					uops = append(uops, uop.Uop{
						Kind: uop.KindJmp, Target: b.end,
						EIP: b.end, Next: b.end, Cost: 0,
					})
				}
			}
			break
		}

		switch {
		case repl != nil:
			uops = append(uops, raw[:len(raw)-1]...)
			uops = append(uops, *repl)
			if term.Kind == uop.KindCall {
				callRets = append(callRets, term.Next)
			}
		case term.Kind == uop.KindJmp:
			// The jump dissolves into the trace; a NOP keeps its one-
			// instruction fuel cost and trap-window accounting.
			uops = append(uops, raw[:len(raw)-1]...)
			uops = append(uops, uop.Uop{
				Kind: uop.KindNop, EIP: term.EIP, Next: term.Next, Cost: 1,
			})
		default: // fall-through into the next block
			uops = append(uops, raw...)
		}
		cur = next
	}

	if blocks < 2 {
		return // nothing grew; the base block is already optimal
	}

	cost := uop.Cost(uops)
	us, ost := uop.Optimize(uops, v.optCfg)
	v.stats.UopsFused += ost.UopsFused
	v.stats.FlagsElided += ost.FlagsElided

	// Number the guards: each conditional guard gets its own exit chain
	// slot, each return guard its own indirect inline cache.
	guards, rets := sbNumberSlots(us)

	sb := &block{uops: us, end: lastEnd, cost: cost}
	// A superblock identical to one the snapshot already shares (the
	// absorbed one, or a variant another VM re-formed) adopts the shared
	// fragment and, if compiled, its trace.
	sb, t := v.adoptSB(sb)
	entry.sb = &bref{
		b:        sb,
		owner:    entry,
		sbChains: make([]*bref, guards),
		sbInd:    make([]sbIndEntry, rets),
		sbTried:  true, // never form a superblock from a superblock
		t2:       t,
		t2Tried:  t != nil,
		t2Shared: t != nil,
	}
	entry.sbForms++
	v.stats.SuperblocksFormed++
}
