package vm

import (
	"fmt"
	"sync"
	"time"
	"unsafe"

	"vxa/internal/vm/tier2"
	"vxa/internal/vm/uop"
	"vxa/internal/x86"
)

// Snapshot is a frozen copy of a VM's architectural state: the accessible
// memory image, registers, flags, sandbox bounds and (optionally) the
// predecoded basic-block cache. It is the mechanism behind cheap decoder
// reuse (§2.4): the reader captures one snapshot per decoder right after
// ELF load, then materializes or re-pristines VMs from it per stream
// instead of re-parsing the executable each time.
//
// A Snapshot is safe for concurrent use: many goroutines may NewVM/Reset
// from the same snapshot at once. Decoded blocks and compiled tier-2
// traces are immutable after construction, so they are shared, never
// copied.
type Snapshot struct {
	memSize uint32

	// Only the accessible regions are stored: [0, brk) covers the
	// never-mapped first page plus text/data/heap, and [stackBase,
	// memSize) covers the stack. The guard gap between them is
	// unreachable by the guest, so its contents never need restoring.
	low  []byte // copy of mem[0:brk]
	high []byte // copy of mem[stackBase:memSize]

	regs               [8]uint32
	eip                uint32
	cf, zf, sf, of, pf bool

	brk, roLimit, stackBase uint32
	fuel                    int64
	noCache                 bool
	noSB                    bool
	noT2                    bool
	optCfg                  uop.OptConfig
	wallBudget              time.Duration

	mu     sync.Mutex
	blocks map[uint32]*block
	// sbs carries absorbed superblocks by entry address. A superblock is
	// profile-driven but deterministic re-translation of read-only guest
	// code, so one VM's formation work is valid for every sibling — and
	// re-forming them (uop lowering plus a full optimizer pass per hot
	// trace) is the dominant first-stream cost once images and blocks are
	// already cached. Each record keeps the guard/return slot counts so
	// materialization can size the per-VM chain arrays without rescanning.
	sbs map[uint32]*sbRecord
	// t2 holds the shared tier-2 code: compiled traces of superblock
	// fragments whose every micro-op comes from the pristine read-only
	// window, keyed by fragment — the absorbed superblocks' and variants
	// re-formed after a stale-profile teardown (at most sbMaxShared per
	// entry address). The sandbox geometry a trace bakes in is the
	// snapshot's, so one compilation serves every VM the snapshot
	// materializes; a VM that forms a superblock identical to a shared
	// fragment adopts it and its trace instead of compiling. Each VM
	// keeps its own chain slots, inline caches and profile. Traces are
	// never exported or serialized (the geometry is baked into the
	// code).
	t2 map[*block]*tier2.Trace
}

// sbMaxShared bounds the superblock variants per entry address that
// share a trace through the snapshot: the absorbed one plus one per
// re-formation a single VM may make. Variants past it compile per VM.
const sbMaxShared = sbMaxReforms + 1

// sbRecord is one absorbed superblock: the shared immutable fragment
// plus the chain-slot geometry every per-VM wrapper needs.
type sbRecord struct {
	b      *block
	guards int
	rets   int
}

// Snapshot captures the VM's current state. The usual call site is right
// after elf32.Load, when the image is pristine; AbsorbBlocks can later
// fold a warmed-up VM's translation cache into the snapshot. Lazy flags
// are materialized first, so the snapshot stores the architectural bits.
func (v *VM) Snapshot() *Snapshot {
	v.materializeFlags()
	s := &Snapshot{
		memSize: uint32(len(v.mem)),
		low:     append([]byte(nil), v.mem[:v.brk]...),
		high:    append([]byte(nil), v.mem[v.stackBase:]...),
		regs:    [8]uint32(v.regs[:8]),
		eip:     v.eip,
		cf:      v.cf, zf: v.zf, sf: v.sf, of: v.of, pf: v.pf,
		brk:        v.brk,
		roLimit:    v.roLimit,
		stackBase:  v.stackBase,
		fuel:       v.fuel,
		noCache:    v.noCache,
		noSB:       v.noSB,
		noT2:       v.noT2,
		optCfg:     v.optCfg,
		wallBudget: v.wallBudget,
		blocks:     make(map[uint32]*block, len(v.blocks)),
		sbs:        make(map[uint32]*sbRecord),
		t2:         make(map[*block]*tier2.Trace),
	}
	for addr, br := range v.blocks {
		s.blocks[addr] = br.b
	}
	v.snap = s
	return s
}

// MemSize returns the guest address-space size the snapshot was taken at.
func (s *Snapshot) MemSize() uint32 { return s.memSize }

// blockMap returns a private view of the snapshot's block cache: the
// *block values are shared (immutable once built), but each is wrapped
// in a fresh per-VM bref, since chain links and cache growth are private
// to the receiving VM. Handing out fresh wrappers is also what
// invalidates chained successor links across Reset.
//
// Absorbed superblocks are re-attached through fresh wrappers too, with
// empty guard chains and a clean entry/exit profile: the receiving VM
// starts on the optimized traces immediately but still re-validates the
// profile with its own counters, so a stale trace tears down and
// re-forms exactly as if this VM had built it. When v runs tier 2, a
// superblock whose trace the snapshot holds gets it installed as well,
// so the VM enters tier 2 on the first entry without compiling.
func (s *Snapshot) blockMap(v *VM) map[uint32]*bref {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := make(map[uint32]*bref, len(s.blocks))
	t2 := s.t2OK(v)
	for addr, b := range s.blocks {
		br := &bref{b: b}
		if r, ok := s.sbs[addr]; ok && !s.noSB && !s.noCache {
			br.sb = &bref{
				b:        r.b,
				owner:    br,
				sbChains: make([]*bref, r.guards),
				sbInd:    make([]sbIndEntry, r.rets),
				sbTried:  true,
			}
			if t := s.t2[r.b]; t != nil && t2 {
				br.sb.t2, br.sb.t2Tried, br.sb.t2Shared = t, true, true
			}
			br.sbTried = true
		}
		m[addr] = br
	}
	return m
}

// NewVM materializes a fresh VM in the snapshot's state, including the
// predecoded block cache — the fast path for spinning up one more decoder
// instance for parallel extraction.
func (s *Snapshot) NewVM() *VM {
	owner, mem := allocGuestMem(s.memSize)
	v := &VM{mem: mem, memOwner: owner}
	s.restore(v)
	return v
}

// Reset rewinds an existing VM to the snapshot: every guest-visible
// region is restored byte-for-byte, registers/flags/bounds/fuel return to
// their captured values, and the I/O streams are detached so no writer
// from a previous stream can leak into the next. Execution statistics
// accumulate across resets. The VM must have the same memory size as the
// snapshot.
func (v *VM) Reset(s *Snapshot) error {
	if uint32(len(v.mem)) != s.memSize {
		return fmt.Errorf("vm: reset across memory sizes (%d != %d)", len(v.mem), s.memSize)
	}
	s.restore(v)
	return nil
}

func (s *Snapshot) restore(v *VM) {
	// Memory beyond the restored brk stays dirty but unreachable: the
	// sandbox bounds make it inaccessible, and sysSetPerm re-zeroes the
	// dirtied prefix (up to v.dirtyBrk) before exposing it again.
	copy(v.mem[:s.brk], s.low)
	copy(v.mem[s.stackBase:], s.high)
	copy(v.regs[:], s.regs[:])
	v.eip = s.eip
	v.cf, v.zf, v.sf, v.of, v.pf = s.cf, s.zf, s.sf, s.of, s.pf
	v.fl = uop.Flags{} // snapshots carry materialized flags
	v.brk = s.brk
	if s.brk > v.dirtyBrk {
		v.dirtyBrk = s.brk
	}
	v.roLimit = s.roLimit
	v.stackBase = s.stackBase
	v.fuel = s.fuel
	v.noCache = s.noCache
	v.noSB = s.noSB
	// Tier-2 policy follows the snapshot, but the process-wide kill
	// switch and promotion threshold are re-read here: a snapshot taken
	// in one process may materialize in another (Deserialize), and the
	// env knobs describe the running process, not the captured image.
	v.noT2 = s.noT2 || envNoTier2()
	v.t2Hot = t2HotThreshold()
	v.optCfg = s.optCfg
	v.wallBudget = s.wallBudget
	v.wallDeadline = 0
	v.blocks = s.blockMap(v)
	v.snap = s
	if !v.noT2 {
		// Shared traces may run before this VM compiles anything, so
		// its machine view must carry the guest memory base now.
		v.t2Machine()
	}
	v.exitCode = 0
	v.Stdin, v.Stdout, v.Stderr = nil, nil, nil
}

// AbsorbBlocks folds v's decoded block cache into the snapshot so that
// future NewVM/Reset calls start with a warm translation cache. Only
// blocks that lie entirely inside the read-only region below the
// snapshot's roLimit are taken: those bytes cannot have changed since the
// snapshot, so the decoded fragments are valid for the pristine image.
//
// The VM's formed superblocks ride along under the same rule — every
// instruction a trace re-translates must come from the pristine
// read-only window — so sibling VMs (and, via Serialize, sibling
// processes) skip the per-trace lowering and optimizer passes that
// otherwise dominate a fresh VM's first stream. The tier-2 trace the VM
// compiled for an absorbed superblock is published with it, so every
// later VM enters tier 2 on the first entry without compiling.
func (s *Snapshot) AbsorbBlocks(v *VM) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for addr, br := range v.blocks {
		if _, ok := s.blocks[addr]; !ok {
			b := br.b
			if len(b.insts) == 0 {
				continue
			}
			if addr >= PageSize && b.end <= s.roLimit {
				s.blocks[addr] = b
			}
		}
	}
	for addr, br := range v.blocks {
		sb := br.sb
		if sb == nil {
			continue
		}
		r, ok := s.sbs[addr]
		if !ok {
			// The entry block must itself be absorbed, and the whole
			// trace must execute read-only pristine bytes.
			if _, ok := s.blocks[addr]; !ok || !sbInRO(sb.b, s.roLimit) {
				continue
			}
			r = &sbRecord{b: s.canonLocked(sb.b), guards: len(sb.sbChains), rets: len(sb.sbInd)}
			s.sbs[addr] = r
		}
		if sb.t2 != nil && sameFragment(sb.b, r.b) {
			s.publishLocked(v, r.b, sb.t2)
		}
	}
}

// t2OK reports whether v may run and publish the snapshot's traces: it
// runs tier 2 and its sandbox geometry is the one the traces bake in.
func (s *Snapshot) t2OK(v *VM) bool {
	return !v.noT2 && uint32(len(v.mem)) == s.memSize &&
		v.roLimit == s.roLimit && v.stackBase == s.stackBase
}

// sameFragment reports whether two superblock fragments are identical
// micro-op for micro-op, and so compile to the same trace.
func sameFragment(a, b *block) bool {
	if a == b {
		return true
	}
	if a.cost != b.cost || a.end != b.end || len(a.uops) != len(b.uops) {
		return false
	}
	for i := range a.uops {
		if a.uops[i] != b.uops[i] {
			return false
		}
	}
	return true
}

// canonLocked returns the snapshot's fragment identical to superblock
// fragment b — the absorbed one at its entry, or one with a shared
// trace — or b itself. Caller holds s.mu.
func (s *Snapshot) canonLocked(b *block) *block {
	entry := b.uops[0].EIP
	if r := s.sbs[entry]; r != nil && sameFragment(r.b, b) {
		return r.b
	}
	for f := range s.t2 {
		if f.uops[0].EIP == entry && sameFragment(f, b) {
			return f
		}
	}
	return b
}

// shareSB returns the snapshot's fragment identical to superblock
// fragment b, or b itself, together with that fragment's shared trace
// when v may run it.
func (s *Snapshot) shareSB(v *VM, b *block) (*block, *tier2.Trace) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b = s.canonLocked(b)
	if !s.t2OK(v) {
		return b, nil
	}
	return b, s.t2[b]
}

// publishTrace makes t, compiled by v for superblock fragment b, the
// snapshot's shared trace for that fragment, provided v's geometry is
// the snapshot's and b executes only pristine read-only bytes — the two
// facts that make the code valid for every VM the snapshot
// materializes. A trace already published for the fragment wins.
func (s *Snapshot) publishTrace(v *VM, b *block, t *tier2.Trace) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.publishLocked(v, b, t)
}

func (s *Snapshot) publishLocked(v *VM, b *block, t *tier2.Trace) {
	if !s.t2OK(v) || !sbInRO(b, s.roLimit) {
		return
	}
	b = s.canonLocked(b)
	if s.t2[b] != nil {
		return
	}
	variants := 0
	for f := range s.t2 {
		if f.uops[0].EIP == b.uops[0].EIP {
			variants++
		}
	}
	if variants < sbMaxShared {
		s.t2[b] = t
	}
}

// sbInRO reports whether every micro-op of a superblock fragment was
// re-translated from instruction bytes inside the pristine read-only
// window [PageSize, roLimit). Guard exit targets may point anywhere —
// exits resolve through the normal block lookup, which re-validates.
func sbInRO(b *block, roLimit uint32) bool {
	for i := range b.uops {
		u := &b.uops[i]
		if u.EIP < PageSize || u.EIP > roLimit || u.Next > roLimit {
			return false
		}
	}
	return true
}

// BlockCount reports how many decoded fragments the snapshot carries
// (exposed for the evaluation harness).
func (s *Snapshot) BlockCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.blocks)
}

// SBCount reports how many absorbed superblocks the snapshot carries.
func (s *Snapshot) SBCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sbs)
}

// TraceCount reports how many shared tier-2 traces the snapshot holds.
func (s *Snapshot) TraceCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.t2)
}

// DropSuperblocks discards the snapshot's absorbed superblocks and their
// shared tier-2 traces, so subsequent NewVM/Reset materializations
// profile, form and compile their own — the ablation hook for measuring
// what absorbed traces are worth.
func (s *Snapshot) DropSuperblocks() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sbs = make(map[uint32]*sbRecord)
	s.t2 = make(map[*block]*tier2.Trace)
}

// Footprint estimates the resident bytes a snapshot pins: the stored
// memory image, the translated block cache and its shared tier-2
// traces (executable code, plus the fragments of re-formed variants).
// It is the accounting unit for
// content-addressed snapshot caches with a byte budget. Blocks and
// traces added after the call are not counted in its result; callers
// that track residency re-read it.
func (s *Snapshot) Footprint() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := int64(len(s.low)) + int64(len(s.high))
	for _, b := range s.blocks {
		n += blockFootprint(b)
	}
	for _, r := range s.sbs {
		n += blockFootprint(r.b)
	}
	for b, t := range s.t2 {
		n += int64(t.CodeBytes())
		if r := s.sbs[b.uops[0].EIP]; r == nil || r.b != b {
			n += blockFootprint(b) // a variant the absorbed set does not hold
		}
	}
	return n
}

// blockFootprint estimates one translated fragment's resident bytes.
func blockFootprint(b *block) int64 {
	return int64(len(b.insts))*int64(unsafe.Sizeof(x86.Inst{})) +
		int64(len(b.uops))*int64(unsafe.Sizeof(uop.Uop{})) +
		int64(len(b.addrs))*4 + 64
}

// BlockExport is a frozen view of a snapshot's translated block cache,
// for sharing translation work between snapshots of the same decoder
// image (e.g. the same content hash cached under two security modes).
// The blocks are immutable and shared, never copied.
type BlockExport struct {
	blocks  map[uint32]*block
	sbs     map[uint32]*sbRecord
	roLimit uint32
}

// ExportBlocks captures the snapshot's current block cache (and its
// absorbed superblocks) for import into a sibling snapshot. Shared
// tier-2 traces stay behind: their code bakes in this snapshot's sandbox
// geometry, so the importer compiles its own.
func (s *Snapshot) ExportBlocks() BlockExport {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := make(map[uint32]*block, len(s.blocks))
	for addr, b := range s.blocks {
		m[addr] = b
	}
	sbs := make(map[uint32]*sbRecord, len(s.sbs))
	for addr, r := range s.sbs {
		sbs[addr] = r
	}
	return BlockExport{blocks: m, sbs: sbs, roLimit: s.roLimit}
}

// ImportBlocks folds an exported block cache into the snapshot and
// reports how many fragments were taken. Only fragments lying entirely
// inside the read-only region of BOTH snapshots are imported: those
// bytes are fixed by the decoder image, so a fragment translated for one
// snapshot of the image is valid for every other. Callers are
// responsible for only importing across snapshots of the same decoder
// content (the cache keys imports by content hash).
func (s *Snapshot) ImportBlocks(e BlockExport) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for addr, b := range e.blocks {
		if _, ok := s.blocks[addr]; ok {
			continue
		}
		if addr >= PageSize && b.end <= s.roLimit && b.end <= e.roLimit {
			s.blocks[addr] = b
			n++
		}
	}
	for addr, r := range e.sbs {
		if _, ok := s.sbs[addr]; ok {
			continue
		}
		if _, ok := s.blocks[addr]; ok && sbInRO(r.b, min(s.roLimit, e.roLimit)) {
			s.sbs[addr] = r
			n++
		}
	}
	return n
}

// SetFuel sets the remaining instruction budget to an absolute value —
// the per-stream discipline: each stream gets exactly its own budget,
// never the leftovers of earlier streams.
func (v *VM) SetFuel(n int64) { v.fuel = n }

// StreamFuel is the standard absolute per-stream instruction budget for
// decoding a payload of n bytes: generous per input byte plus a flat
// floor, but never carried over between streams. Every per-stream
// consumer (the archive reader, vxrun, the benchmarks) budgets through
// this one function so the policy cannot silently diverge.
func StreamFuel(n int) int64 { return int64(n)*4096 + 1<<30 }
