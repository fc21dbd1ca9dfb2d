// Package vm implements the VXA virtual machine: the sandboxed execution
// environment in which archived decoders run (the analog of the paper's
// vx32 virtual machine monitor).
//
// The VM executes the x86-32 subset defined by package x86 over a flat
// guest address space that always starts at virtual address 0, exactly as
// the paper specifies (§2.4). The guest has no access to host operating
// system services: its only I/O is the five VXA virtual system calls —
// read, write, exit, setperm and done — invoked through INT 0x80
// (§4.3). Three virtual file handles exist: stdin (0) is the encoded
// input stream, stdout (1) is the decoded output stream, and stderr (2)
// carries diagnostics.
//
// Where vx32 sandboxes by dynamic x86-to-x86 translation plus host
// segmentation, this implementation interprets the guest code in Go. It
// keeps vx32's structure: guest code is scanned and decoded into cached
// basic-block fragments keyed by entry address, direct branches chain
// from fragment to fragment, and indirect branches resolve through the
// fragment-cache lookup — the exact mechanism whose cost the paper's
// vorbis-inlining anecdote (§5.2) measures. Every memory access is
// bounds-checked against the sandbox, so a buggy or malicious decoder can
// at worst garble its own output stream (§2.4).
//
// Determinism: a decoder cannot observe the host system, the time, or
// any source of nondeterminism; identical inputs produce identical
// outputs, which the archive integrity checker relies on.
package vm

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"vxa/internal/vm/tier2"
	"vxa/internal/vm/uop"
	"vxa/internal/x86"
)

// Guest address-space layout constants.
const (
	// PageSize is the allocation granularity; the first page is never
	// mapped so that null-pointer dereferences trap.
	PageSize = 0x1000

	// MaxMemSize caps the guest address space at 1 GiB (§4.1).
	MaxMemSize = 1 << 30

	// DefaultMemSize is the guest address space given to decoders unless
	// the archive requests more.
	DefaultMemSize = 16 << 20

	// DefaultStackSize is the size of the stack region at the top of the
	// guest address space.
	DefaultStackSize = 1 << 20

	// DefaultFuel bounds the number of guest instructions a single Run
	// may execute, so that a looping decoder cannot hang the archiver.
	DefaultFuel = int64(1) << 40
)

// The VXA virtual system call numbers (INT 0x80, number in EAX).
const (
	SysExit    = 1 // exit(status)        — decoder finished, EBX = status
	SysRead    = 3 // read(fd, buf, n)    — fd must be 0 (stdin)
	SysWrite   = 4 // write(fd, buf, n)   — fd must be 1 (stdout) or 2 (stderr)
	SysSetPerm = 5 // setperm(addr, len)  — extend the accessible heap
	SysDone    = 6 // done()              — stream finished; ready for another
)

// Virtual errno values returned (negated) by failed system calls.
const (
	ErrnoBADF  = 9
	ErrnoFAULT = 14
	ErrnoINVAL = 22
	ErrnoIO    = 5
	ErrnoNOMEM = 12
)

// TrapKind classifies why the VM stopped the guest.
type TrapKind int

// Trap kinds.
const (
	TrapMemory  TrapKind = iota // out-of-sandbox or misaligned access
	TrapIllegal                 // instruction outside the VXA subset
	TrapSyscall                 // unknown system call or interrupt vector
	TrapDivide                  // divide by zero or quotient overflow
	TrapFuel                    // instruction budget exhausted
	TrapWrite                   // write to read-only (text/rodata) region
)

var trapNames = map[TrapKind]string{
	TrapMemory: "memory fault", TrapIllegal: "illegal instruction",
	TrapSyscall: "bad system call", TrapDivide: "divide error",
	TrapFuel: "fuel exhausted", TrapWrite: "write to read-only memory",
}

// Trap is the error type for guest faults. Any trap means the decoder is
// buggy or malicious; the archive reader reports the affected file as
// undecodable and the host is unaffected.
type Trap struct {
	Kind TrapKind
	EIP  uint32 // faulting instruction address
	Addr uint32 // faulting memory address, if relevant
	Msg  string
}

// Error implements error.
func (t *Trap) Error() string {
	s := fmt.Sprintf("vm: %s at eip=%#x", trapNames[t.Kind], t.EIP)
	if t.Kind == TrapMemory || t.Kind == TrapWrite {
		s += fmt.Sprintf(" addr=%#x", t.Addr)
	}
	if t.Msg != "" {
		s += ": " + t.Msg
	}
	return s
}

// Status reports how a Run returned.
type Status int

// Run outcomes.
const (
	// StatusExit: the guest invoked exit; the VM cannot be resumed.
	StatusExit Status = iota
	// StatusDone: the guest invoked done, signalling that it finished one
	// stream and can accept another; swap Stdin/Stdout and call Run again.
	StatusDone
)

// Config configures a VM.
type Config struct {
	// MemSize is the total guest address space in bytes.
	// Defaults to DefaultMemSize; capped at MaxMemSize.
	MemSize uint32
	// StackSize is the reserved stack region at the top of the address
	// space. Defaults to DefaultStackSize.
	StackSize uint32
	// Fuel is the guest instruction budget per VM. Defaults to DefaultFuel.
	Fuel int64
	// NoBlockCache disables the basic-block fragment cache, forcing the VM
	// to re-decode every instruction (the §4.2 translation-cache ablation).
	// It also disables the translation-time optimizer: single-instruction
	// fragments have nothing to fuse or analyze.
	NoBlockCache bool

	// NoFlagElision disables the optimizer's dead-flag elimination pass
	// (per-pass ablation; see uop.Optimize).
	NoFlagElision bool
	// NoFusion disables the optimizer's compare/branch, compare/setcc
	// and load-op fusion pass (per-pass ablation).
	NoFusion bool
	// NoSuperblocks disables hot-path superblock formation (per-pass
	// ablation; see superblock.go).
	NoSuperblocks bool
	// NoTier2 disables the tier-2 native JIT (per-tier ablation; see
	// internal/vm/tier2): hot superblocks keep executing on the tier-1
	// uop dispatch loop instead of being compiled to native code.
	// Carried by snapshots like NoSuperblocks. The VXA_NO_TIER2
	// environment variable forces it on process-wide. Platforms without
	// the emitter (tier2.Available is false) run tier 1 regardless.
	NoTier2 bool

	// WallBudget is the wall-clock watchdog: the maximum real time one
	// RunStream may take, enforced at block-chain boundaries on the
	// cancellation-poll cadence. Unlike fuel (a deterministic
	// instruction budget), the watchdog catches guests that are
	// fuel-cheap but wall-expensive — tight syscall loops, pathological
	// I/O patterns. Zero disables it. The budget survives snapshot
	// materialization and Reset, so pooled VMs keep their watchdog.
	WallBudget time.Duration
}

// Stats are execution counters exposed for the evaluation harness and,
// aggregated, on the vxad metrics endpoint (hence the JSON tags).
type Stats struct {
	Steps             uint64 `json:"steps"`              // guest instructions executed
	BlockLookups      uint64 `json:"block_lookups"`      // fragment-cache map lookups (chain misses + indirect control flow)
	BlocksBuilt       uint64 `json:"blocks_built"`       // fragments decoded and lowered ("translated")
	BlocksChained     uint64 `json:"blocks_chained"`     // direct-successor links installed between fragments
	UopsExecuted      uint64 `json:"uops_executed"`      // micro-ops dispatched by the translation engine
	FlagsMaterialized uint64 `json:"flags_materialized"` // individual EFLAGS bits computed from lazy records
	FlagsElided       uint64 `json:"flags_elided"`       // lazy-flag records removed at translate time (dead-flag pass)
	UopsFused         uint64 `json:"uops_fused"`         // fused micro-ops created at translate time (each replaces 2-3)
	SuperblocksFormed uint64 `json:"superblocks_formed"` // hot-path superblocks assembled from edge profiles
	Tier2Compiled     uint64 `json:"tier2_compiled"`     // superblock traces compiled to tier-2 native code
	Tier2Executed     uint64 `json:"tier2_executed"`     // tier-2 trace iterations run (one full superblock pass each)
	Tier2Steps        uint64 `json:"tier2_steps"`        // guest instructions retired inside tier-2 traces (subset of Steps)
	Tier2Demotions    uint64 `json:"tier2_demotions"`    // compiled traces dropped with their superblock (stale profile teardown)
	Tier2Reused       uint64 `json:"tier2_reused"`       // shared traces run from the snapshot without compiling (first run per install)
	TranslateNS       uint64 `json:"translate_ns"`       // nanoseconds spent decoding+lowering fragments (0 with NoBlockCache)
	ExecuteNS         uint64 `json:"execute_ns"`         // nanoseconds spent running translated code (Run wall time minus translation)
	Syscalls          uint64 `json:"syscalls"`
}

// VM is one sandboxed guest. It is not safe for concurrent use.
type VM struct {
	mem []byte
	// memOwner keeps the guest address space's mapping alive: on Linux
	// mem is anonymous-mmap memory outside the Go heap (see mem_linux.go)
	// and is returned to the kernel when the owner is collected, so the
	// VM must reference the owner for as long as mem is in use.
	memOwner *guestMem
	// regs holds the eight architectural registers plus a ninth slot
	// (uop.RegZero) that is always zero: lowered memory operands index it
	// for absent base/index registers, making effective-address
	// computation branchless. Nothing ever writes regs[8].
	regs [9]uint32
	eip  uint32

	// EFLAGS subset (the arithmetic flags the subset can observe). The
	// bools are the materialized ("eager") representation and are
	// authoritative only while fl.Op == uop.FlagNone; otherwise fl holds
	// the deferred inputs of the last flag-writing operation and bits are
	// computed on demand (see uexec.go).
	cf, zf, sf, of, pf bool
	fl                 uop.Flags

	// Sandbox bounds. The accessible regions are [PageSize, brk) for
	// code/data/heap and [stackBase, memSize) for the stack; everything
	// else (including page 0 and the guard gap between heap and stack)
	// faults. Writes below roLimit fault (text and rodata are read-only).
	brk       uint32
	roLimit   uint32
	stackBase uint32
	// dirtyBrk is the high-water mark of heap exposure on this address
	// space: the largest value brk has ever held since the memory was
	// allocated. Every write path below stackBase is bounded by brk, so
	// mem[dirtyBrk:stackBase) still holds the zeroed pages allocGuestMem
	// returned and sysSetPerm need not re-clear them. It survives Reset
	// (the old heap stays dirty) and only ever grows.
	dirtyBrk uint32

	fuel    int64
	noCache bool
	noSB    bool
	noT2    bool
	// t2Hot is the superblock-entry count that triggers tier-2
	// compilation (t2HotDefault, overridable via VXA_TIER2_HOT).
	t2Hot uint32
	// t2m is this VM's tier-2 machine-state view, allocated on first
	// compile or shared-trace install and reused for every run: traces
	// bake its sandbox geometry in at compile time and read everything
	// else through it (see tier2.Machine).
	t2m    *tier2.Machine
	optCfg uop.OptConfig
	blocks map[uint32]*bref
	// snap is the snapshot the VM was last captured into or
	// materialized from (nil until then): the one whose shared traces
	// it adopts and to which compileTier2 publishes its own.
	snap *Snapshot

	// Cooperative cancellation (RunContext). cancel is the context's
	// done channel, nil when the run is uncancellable — the common case,
	// reducing the hot-loop cost to one nil check per block. The channel
	// is polled only every cancelQuantum guest instructions
	// (cancelCredit counts down by block cost), so the select never
	// appears on the per-uop path.
	cancel       <-chan struct{}
	cancelCause  func() error
	cancelCredit int64

	// Wall-clock watchdog (Config.WallBudget). wallDeadline is the
	// absolute deadline (unix nanos) of the in-flight stream, armed by
	// RunStream and zero otherwise; it shares the cancelCredit
	// countdown with cancellation so the clock is read at most once per
	// cancelQuantum guest instructions.
	wallBudget   time.Duration
	wallDeadline int64

	// Stdin is the encoded input stream (virtual fd 0).
	Stdin io.Reader
	// Stdout receives the decoded output stream (virtual fd 1).
	Stdout io.Writer
	// Stderr receives decoder diagnostics (virtual fd 2). May be nil,
	// in which case diagnostics are discarded (vxUnZIP shows them only
	// in verbose mode).
	Stderr io.Writer

	exitCode int32
	stats    Stats
}

// block is one translated fragment: the decoded instructions plus their
// lowered, optimized micro-op form. Blocks are immutable after
// construction and may be shared by many VMs through a Snapshot.
// Superblocks (superblock.go) reuse the same type with insts/addrs nil:
// they are formed per VM and enter a snapshot through AbsorbBlocks, or
// as a variant that carries a shared tier-2 trace (snapshot.go).
type block struct {
	insts []x86.Inst
	addrs []uint32  // eip of each instruction
	uops  []uop.Uop // lowered form; fusion may make this shorter than insts
	end   uint32    // address just past the last instruction
	cost  int64     // guest instructions per straight-line execution (fuel units)
}

// bref is the per-VM view of a block: the shared immutable fragment plus
// this VM's chain links to its direct successors and a monomorphic
// inline cache for its indirect successor (the last RET / indirect
// jump/call target seen). Keeping the links out of the shared block lets
// VMs materialized from one snapshot chain independently (and
// race-free); Reset swaps in fresh wrappers, which invalidates every
// link at once — including any profile-formed superblocks.
type bref struct {
	b           *block
	taken, fall *bref
	ind         *bref
	indAddr     uint32

	// Hot-path profile and superblock state (per-VM, dropped with the
	// bref on Reset). On a base bref, heat counts block entries and
	// takenCnt/fallCnt profile the terminating Jcc's edges until a
	// superblock is installed in sb. A superblock's own bref (owner !=
	// nil) carries the per-guard exit chain slots in sbChains and the
	// entry/exit profile that drives invalidation.
	sb        *bref
	owner     *bref
	sbChains  []*bref
	sbInd     []sbIndEntry
	heat      uint32
	takenCnt  uint32
	fallCnt   uint32
	sbEntries uint64
	sbExits   uint64
	sbForms   uint8
	sbTried   bool

	// Tier-2 dispatch slot (superblock brefs only): the native-code
	// trace for this superblock, compiled once its entry count crosses
	// the tier-2 heat threshold — or installed without compiling when
	// the VM's snapshot holds the shared trace of this fragment, at
	// materialization for an absorbed superblock and at formation for
	// an identical one. On a superblock bref, heat counts entries toward
	// promotion. The trace itself is immutable and may be shared; only
	// this slot is per VM. Stale-profile teardown drops the slot with
	// the bref, Reset swaps in fresh wrappers that re-install the
	// snapshot's shared traces, and traces are never serialized — a
	// deserialized snapshot recompiles from its persisted superblocks.
	t2      *tier2.Trace
	t2Tried bool
	// t2Shared marks a shared trace this bref installed and has not run
	// yet; the first run counts it in Tier2Reused.
	t2Shared bool
}

// sbIndEntry is one return guard's monomorphic inline cache: the last
// off-trace return target it resolved.
type sbIndEntry struct {
	br   *bref
	addr uint32
}

// New creates a VM with an empty address space.
func New(cfg Config) (*VM, error) {
	if cfg.MemSize == 0 {
		cfg.MemSize = DefaultMemSize
	}
	if cfg.MemSize > MaxMemSize {
		return nil, fmt.Errorf("vm: MemSize %d exceeds the 1 GiB sandbox limit", cfg.MemSize)
	}
	if cfg.MemSize%PageSize != 0 {
		return nil, fmt.Errorf("vm: MemSize %d not page-aligned", cfg.MemSize)
	}
	if cfg.StackSize == 0 {
		cfg.StackSize = DefaultStackSize
	}
	if cfg.Fuel == 0 {
		cfg.Fuel = DefaultFuel
	}
	if cfg.StackSize%PageSize != 0 || cfg.StackSize >= cfg.MemSize/2 {
		return nil, fmt.Errorf("vm: bad StackSize %d", cfg.StackSize)
	}
	owner, mem := allocGuestMem(cfg.MemSize)
	v := &VM{
		mem:        mem,
		memOwner:   owner,
		brk:        PageSize,
		dirtyBrk:   PageSize,
		roLimit:    PageSize,
		stackBase:  cfg.MemSize - cfg.StackSize,
		fuel:       cfg.Fuel,
		noCache:    cfg.NoBlockCache,
		noSB:       cfg.NoSuperblocks,
		noT2:       cfg.NoTier2 || envNoTier2(),
		t2Hot:      t2HotThreshold(),
		wallBudget: cfg.WallBudget,
		optCfg:     uop.OptConfig{NoFuse: cfg.NoFusion, NoFlagElide: cfg.NoFlagElision},
		blocks:     make(map[uint32]*bref),
	}
	v.regs[x86.ESP] = cfg.MemSize - 16 // a little headroom at the very top
	return v, nil
}

// MapSegment copies data into the guest address space at addr and extends
// the accessible region to cover [addr, addr+memSize) (memSize >= len(data);
// the tail is the zero-initialized BSS). If readOnly is set, the segment
// is protected against guest writes.
func (v *VM) MapSegment(addr uint32, data []byte, memSize uint32, readOnly bool) error {
	if memSize < uint32(len(data)) {
		return fmt.Errorf("vm: segment memSize %d < filesz %d", memSize, len(data))
	}
	end := addr + memSize
	if end < addr || end > v.stackBase || addr < PageSize {
		return fmt.Errorf("vm: segment [%#x,%#x) outside loadable region", addr, end)
	}
	copy(v.mem[addr:], data)
	if end > v.brk {
		v.brk = end
	}
	if v.brk > v.dirtyBrk {
		v.dirtyBrk = v.brk
	}
	if readOnly && end > v.roLimit {
		v.roLimit = end
	}
	return nil
}

// SetEntry sets the guest program counter.
func (v *VM) SetEntry(entry uint32) { v.eip = entry }

// EIP returns the current guest program counter.
func (v *VM) EIP() uint32 { return v.eip }

// Reg returns a guest register.
func (v *VM) Reg(r x86.Reg) uint32 { return v.regs[r] }

// SetReg sets a guest register.
func (v *VM) SetReg(r x86.Reg, val uint32) { v.regs[r] = val }

// ExitCode returns the status passed to the exit system call.
func (v *VM) ExitCode() int32 { return v.exitCode }

// Stats returns execution counters.
func (v *VM) Stats() Stats { return v.stats }

// Brk returns the current end of the accessible heap region.
func (v *VM) Brk() uint32 { return v.brk }

// FuelRemaining returns the remaining instruction budget.
func (v *VM) FuelRemaining() int64 { return v.fuel }

// MemSize returns the size of the guest address space.
func (v *VM) MemSize() uint32 { return uint32(len(v.mem)) }

// readable reports whether [addr, addr+size) lies inside the sandbox.
func (v *VM) readable(addr, size uint32) bool {
	end := addr + size
	if end < addr {
		return false
	}
	if addr >= PageSize && end <= v.brk {
		return true
	}
	return addr >= v.stackBase && end <= uint32(len(v.mem))
}

// writable reports whether the guest may write [addr, addr+size).
func (v *VM) writable(addr, size uint32) bool {
	return v.readable(addr, size) && (addr >= v.roLimit || addr >= v.stackBase)
}

// ReadMem copies size guest bytes at addr, enforcing the sandbox.
func (v *VM) ReadMem(addr, size uint32) ([]byte, error) {
	if !v.readable(addr, size) {
		return nil, &Trap{Kind: TrapMemory, EIP: v.eip, Addr: addr}
	}
	out := make([]byte, size)
	copy(out, v.mem[addr:addr+size])
	return out, nil
}

// WriteMem copies data into guest memory at addr, enforcing the sandbox
// (including read-only protection).
func (v *VM) WriteMem(addr uint32, data []byte) error {
	if !v.writable(addr, uint32(len(data))) {
		return &Trap{Kind: TrapWrite, EIP: v.eip, Addr: addr}
	}
	copy(v.mem[addr:], data)
	return nil
}

var errExit = errors.New("vm: guest exited")
var errDone = errors.New("vm: guest stream done")

// CanceledError reports that a guest run was stopped by its context:
// the VM observed cancellation at a block boundary and returned without
// completing the stream. The VM's guest state is mid-stream garbage;
// pool it back only through a pristine reset. Unwrap exposes the
// context's error, so errors.Is(err, context.Canceled) (or
// DeadlineExceeded) holds.
type CanceledError struct {
	Cause error
}

// Error implements error.
func (e *CanceledError) Error() string {
	if e.Cause != nil {
		return "vm: run canceled: " + e.Cause.Error()
	}
	return "vm: run canceled"
}

// Unwrap exposes the context error.
func (e *CanceledError) Unwrap() error { return e.Cause }

// IsCanceled reports whether err (anywhere in its chain) is a
// *CanceledError — a run stopped by its context rather than by the
// guest.
func IsCanceled(err error) bool {
	var ce *CanceledError
	return errors.As(err, &ce)
}

// WatchdogError reports that the wall-clock watchdog killed a stream:
// the guest exceeded Config.WallBudget of real time regardless of how
// little fuel it burned. Like cancellation, the kill lands at a block
// boundary and leaves mid-stream garbage in the VM — pool it back only
// through a pristine reset.
type WatchdogError struct {
	Budget time.Duration
}

// Error implements error.
func (e *WatchdogError) Error() string {
	return fmt.Sprintf("vm: wall-clock watchdog: stream exceeded %v", e.Budget)
}

// IsWatchdog reports whether err (anywhere in its chain) is a
// *WatchdogError.
func IsWatchdog(err error) bool {
	var we *WatchdogError
	return errors.As(err, &we)
}

// cancelQuantum is how many guest instructions may execute between
// cancellation polls: small enough that a canceled stream releases its
// VM within a fraction of a millisecond, large enough that the poll
// (one channel select) is amortized to nothing.
const cancelQuantum = 1 << 16

// Run executes the guest until it invokes exit or done, or faults.
// After StatusDone the VM may be resumed by calling Run again, optionally
// with new Stdin/Stdout, implementing the multi-stream decoder protocol.
//
// Execution is block-at-a-time over translated micro-op fragments:
// direct control transfers follow per-VM chain links from fragment to
// fragment, and only indirect branches (and chain misses) resolve
// through the fragment-cache map.
func (v *VM) Run() (Status, error) {
	return v.RunContext(context.Background())
}

// RunContext is Run with cooperative cancellation: when ctx is
// cancelable, the executor polls it at block-chain boundaries on a
// fuel-quantum cadence (never on the per-uop hot path) and returns a
// *CanceledError mid-stream. A context that cannot be canceled
// (context.Background()) costs one nil check per block.
func (v *VM) RunContext(ctx context.Context) (Status, error) {
	if done := ctx.Done(); done != nil {
		if err := ctx.Err(); err != nil {
			return StatusExit, &CanceledError{Cause: err}
		}
		v.cancel, v.cancelCause, v.cancelCredit = done, ctx.Err, cancelQuantum
		defer func() { v.cancel, v.cancelCause = nil, nil }()
	}
	// Execute accounting: the run's wall time minus whatever translation
	// it triggered is time spent executing translated code. Two clock
	// reads per Run (a whole stream) — far below the fig7 noise floor.
	start := time.Now()
	translate0 := v.stats.TranslateNS
	defer func() {
		total := uint64(time.Since(start))
		if dt := v.stats.TranslateNS - translate0; total > dt {
			v.stats.ExecuteNS += total - dt
		}
	}()
	br, err := v.lookupBlock(v.eip)
	if err != nil {
		return StatusExit, err
	}
	switch err := v.execUops(br); err {
	case errExit:
		return StatusExit, nil
	case errDone:
		return StatusDone, nil
	default:
		return StatusExit, err
	}
}

// maxBlockLen bounds fragment size, mirroring vx32's fragment granularity.
const maxBlockLen = 64

// lookupBlock returns the translated fragment starting at addr, building
// and caching it on a miss. With NoBlockCache set, every call re-decodes
// and re-lowers a single instruction (the translate-per-step ablation).
func (v *VM) lookupBlock(addr uint32) (*bref, error) {
	v.stats.BlockLookups++
	if !v.noCache {
		if br, ok := v.blocks[addr]; ok {
			return br, nil
		}
	}
	b, err := v.buildBlock(addr)
	if err != nil {
		return nil, err
	}
	br := &bref{b: b}
	if !v.noCache {
		v.blocks[addr] = br
	}
	return br, nil
}

// buildBlock decodes the fragment starting at addr and lowers it to
// micro-ops. Translation time is accumulated in Stats.TranslateNS except
// in the NoBlockCache ablation, where the per-step clock reads would
// distort the very overhead the ablation measures.
func (v *VM) buildBlock(addr uint32) (*block, error) {
	v.stats.BlocksBuilt++
	var t0 time.Time
	if !v.noCache {
		t0 = time.Now()
	}
	b := &block{}
	limit := maxBlockLen
	if v.noCache {
		limit = 1
	}
	cur := addr
	for len(b.insts) < limit {
		// An instruction can be up to 15 bytes; fetching requires the
		// whole window to be readable, clipped at the region end.
		win := uint32(15)
		if !v.readable(cur, 1) {
			return nil, &Trap{Kind: TrapMemory, EIP: cur, Addr: cur, Msg: "instruction fetch"}
		}
		for win > 1 && !v.readable(cur, win) {
			win--
		}
		inst, err := x86.Decode(v.mem[cur : cur+win])
		if err != nil {
			return nil, &Trap{Kind: TrapIllegal, EIP: cur, Msg: err.Error()}
		}
		b.insts = append(b.insts, inst)
		b.addrs = append(b.addrs, cur)
		cur += uint32(inst.Len)
		if endsBlock(inst.Op) {
			break
		}
	}
	b.end = cur
	b.uops = uop.Lower(b.insts, b.addrs)
	b.cost = int64(len(b.insts))
	if !v.noCache {
		// The optimizer runs only on cached fragments: the translate-
		// per-step ablation measures raw translation overhead, and a
		// one-instruction fragment has nothing to fuse or analyze.
		var ost uop.OptStats
		b.uops, ost = uop.Optimize(b.uops, v.optCfg)
		v.stats.UopsFused += ost.UopsFused
		v.stats.FlagsElided += ost.FlagsElided
		v.stats.TranslateNS += uint64(time.Since(t0))
	}
	return b, nil
}

// endsBlock reports whether op terminates a fragment (control transfer or
// a system-call gate, after which the host may need control).
func endsBlock(op x86.Op) bool {
	switch op {
	case x86.CALL, x86.CALLM, x86.RET, x86.JMP, x86.JMPM, x86.JCC,
		x86.INT, x86.HLT, x86.UD2:
		return true
	}
	return false
}

// execBlock runs a fragment on the reference (eager-flag, per-instruction
// fuel) engine. It is the end-of-fuel slow path of execUops: walking the
// final instructions one at a time preserves the exact trap EIP that
// per-block fuel accounting gives up. Flags must be materialized before
// entry.
func (v *VM) execBlock(b *block) error {
	for i := range b.insts {
		if v.fuel <= 0 {
			return &Trap{Kind: TrapFuel, EIP: b.addrs[i]}
		}
		v.fuel--
		v.stats.Steps++
		if err := v.exec(&b.insts[i], b.addrs[i]); err != nil {
			return err
		}
	}
	return nil
}
