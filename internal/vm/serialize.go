package vm

import (
	"encoding/binary"
	"fmt"
	"sort"
	"time"

	"vxa/internal/vm/tier2"
	"vxa/internal/vm/uop"
	"vxa/internal/x86"
)

// EngineVersion identifies the translation engine's serialized-state
// compatibility generation. It is part of the content address of every
// persisted snapshot artifact: a loader only accepts payloads written
// by the same generation, so stale artifacts from an older engine fall
// back to a fresh ELF build instead of feeding the executor micro-ops
// it no longer understands.
//
// Bump it whenever any of the following changes: the Snapshot or block
// layout serialized below, the uop.Uop field set or Kind numbering, the
// lowering/optimizer semantics (same guest bytes must produce the same
// uops for a cached block to be interchangeable with a fresh
// translation), or the guest-visible restore semantics.
//
// History: 2 added the absorbed-superblock section after the block
// section. 3 added the NoTier2 policy bit to the header; tier-2
// compiled traces themselves are never serialized — the loading
// process recompiles them from the persisted superblocks once those
// re-prove hot, and shares them through the loaded snapshot.
const EngineVersion uint32 = 3

// snapMagic brands a serialized snapshot payload.
const snapMagic = "VXSN"

// snapHeaderLen is the fixed prefix before the low image.
const snapHeaderLen = 92

// Flag and policy bit positions in the serialized header.
const (
	sfCF = 1 << iota
	sfZF
	sfSF
	sfOF
	sfPF
)

const (
	sbNoCache = 1 << iota
	sbNoSB
	sbNoFuse
	sbNoFlagElide
	sbNoT2
)

// instWireLen and uopWireLen are the fixed per-record sizes of the
// block section (see encodeInst/encodeUop).
const (
	argWireLen  = 14
	instWireLen = 8 + 3*argWireLen
	uopWireLen  = 36
)

// Serialize renders the snapshot — header, memory image, the
// translated block cache and the absorbed superblocks — into the
// self-contained binary payload the artifact store persists. Blocks and
// superblocks are written in address order, so the same snapshot state
// always serializes to the same bytes. Assembler-only symbol
// annotations cannot appear in decoded instructions, and a block
// carrying one is skipped defensively.
//
// A superblock's escape micro-ops point at instructions owned by its
// constituent base blocks; they are persisted as EIP references and
// re-linked against the decoded block section on load, so a superblock
// whose constituents were not all serialized is skipped.
func (s *Snapshot) Serialize() ([]byte, error) {
	// Freeze a view of the block cache; AbsorbBlocks may grow it
	// concurrently and the map must not be read outside the lock.
	s.mu.Lock()
	blocks := make([]*block, 0, len(s.blocks))
	addrs := make(map[*block]uint32, len(s.blocks))
	for addr, b := range s.blocks {
		blocks = append(blocks, b)
		addrs[b] = addr
	}
	sbs := make([]*block, 0, len(s.sbs))
	sbAddrs := make(map[*block]uint32, len(s.sbs))
	for addr, r := range s.sbs {
		sbs = append(sbs, r.b)
		sbAddrs[r.b] = addr
	}
	s.mu.Unlock()
	sort.Slice(blocks, func(i, j int) bool { return addrs[blocks[i]] < addrs[blocks[j]] })
	sort.Slice(sbs, func(i, j int) bool { return sbAddrs[sbs[i]] < sbAddrs[sbs[j]] })

	kept := blocks[:0]
	for _, b := range blocks {
		if serializableBlock(b) {
			kept = append(kept, b)
		}
	}
	blocks = kept

	// Superblock escape payloads re-link by instruction address; only
	// traces whose every payload EIP survives in the block section can
	// be reconstructed by the loader.
	eips := make(map[uint32]bool)
	for _, b := range blocks {
		for _, a := range b.addrs {
			eips[a] = true
		}
	}
	keptSBs := sbs[:0]
	for _, b := range sbs {
		if serializableSB(b, eips) {
			keptSBs = append(keptSBs, b)
		}
	}
	sbs = keptSBs

	size := snapHeaderLen + len(s.low) + len(s.high) + 4
	for _, b := range blocks {
		size += 20 + len(b.insts)*(instWireLen+4) + len(b.uops)*uopWireLen
	}
	for _, b := range sbs {
		size += 20 + len(b.uops)*uopWireLen
	}
	out := make([]byte, snapHeaderLen, size)

	copy(out[0:4], snapMagic)
	le := binary.LittleEndian
	le.PutUint32(out[4:], EngineVersion)
	le.PutUint32(out[8:], s.memSize)
	le.PutUint32(out[12:], s.brk)
	le.PutUint32(out[16:], s.roLimit)
	le.PutUint32(out[20:], s.stackBase)
	le.PutUint32(out[24:], s.eip)
	for i, r := range s.regs {
		le.PutUint32(out[28+4*i:], r)
	}
	out[60] = packBits(s.cf, sfCF) | packBits(s.zf, sfZF) | packBits(s.sf, sfSF) |
		packBits(s.of, sfOF) | packBits(s.pf, sfPF)
	out[61] = packBits(s.noCache, sbNoCache) | packBits(s.noSB, sbNoSB) |
		packBits(s.optCfg.NoFuse, sbNoFuse) | packBits(s.optCfg.NoFlagElide, sbNoFlagElide) |
		packBits(s.noT2, sbNoT2)
	le.PutUint64(out[64:], uint64(s.fuel))
	le.PutUint64(out[72:], uint64(s.wallBudget))
	le.PutUint32(out[80:], uint32(len(s.low)))
	le.PutUint32(out[84:], uint32(len(s.high)))
	le.PutUint32(out[88:], uint32(len(blocks)))

	out = append(out, s.low...)
	out = append(out, s.high...)
	for _, b := range blocks {
		out = appendBlock(out, addrs[b], b)
	}
	out = binary.LittleEndian.AppendUint32(out, uint32(len(sbs)))
	for _, b := range sbs {
		out = appendSB(out, sbAddrs[b], b)
	}
	return out, nil
}

func packBits(b bool, bit byte) byte {
	if b {
		return bit
	}
	return 0
}

// serializableSB reports whether a superblock fragment may be
// persisted: every escape micro-op's payload instruction must be
// reachable by address in the serialized block section, or the loader
// could not re-link it.
func serializableSB(b *block, eips map[uint32]bool) bool {
	for i := range b.uops {
		if b.uops[i].Inst != nil && !eips[b.uops[i].EIP] {
			return false
		}
	}
	return true
}

// serializableBlock reports whether the fragment may be persisted: it
// must carry its decoded instructions (superblocks do not) and no
// assembler-only symbol annotations (Decode never produces them).
func serializableBlock(b *block) bool {
	if len(b.insts) == 0 {
		return false
	}
	for i := range b.insts {
		in := &b.insts[i]
		if in.Sym != "" || in.Dst.Sym != "" || in.Src.Sym != "" || in.Aux.Sym != "" {
			return false
		}
	}
	return true
}

func appendBlock(out []byte, addr uint32, b *block) []byte {
	var hdr [20]byte
	le := binary.LittleEndian
	le.PutUint32(hdr[0:], addr)
	le.PutUint32(hdr[4:], b.end)
	le.PutUint64(hdr[8:], uint64(b.cost))
	le.PutUint16(hdr[16:], uint16(len(b.insts)))
	le.PutUint16(hdr[18:], uint16(len(b.uops)))
	out = append(out, hdr[:]...)
	for i := range b.insts {
		out = appendInst(out, &b.insts[i])
	}
	for _, a := range b.addrs {
		out = le.AppendUint32(out, a)
	}
	for i := range b.uops {
		out = appendUop(out, &b.uops[i], b.insts)
	}
	return out
}

// appendSB writes one superblock record: a 20-byte header (entry
// address, trace end, fuel cost, micro-op count) followed by the
// micro-ops. Escape payloads are written as has-payload markers and
// re-linked by EIP on load; guard slot numbering is re-derived on load,
// so nothing per-VM is persisted.
func appendSB(out []byte, addr uint32, b *block) []byte {
	var hdr [20]byte
	le := binary.LittleEndian
	le.PutUint32(hdr[0:], addr)
	le.PutUint32(hdr[4:], b.end)
	le.PutUint64(hdr[8:], uint64(b.cost))
	le.PutUint32(hdr[16:], uint32(len(b.uops)))
	out = append(out, hdr[:]...)
	for i := range b.uops {
		out = appendUop(out, &b.uops[i], nil)
		// Overwrite the (always -1 against nil insts) payload index
		// with the has-payload marker the superblock decoder expects.
		marker := uint32(0)
		if b.uops[i].Inst != nil {
			marker = 1
		}
		le.PutUint32(out[len(out)-4:], marker)
	}
	return out
}

func appendArg(out []byte, a *x86.Arg) []byte {
	var w [argWireLen]byte
	w[0] = byte(a.Kind)
	w[1] = byte(a.Reg)
	w[2] = byte(a.Base)
	w[3] = byte(a.Index)
	w[4] = a.Scale
	w[5] = a.Size
	le := binary.LittleEndian
	le.PutUint32(w[6:], uint32(a.Disp))
	le.PutUint32(w[10:], uint32(a.Imm))
	return append(out, w[:]...)
}

func appendInst(out []byte, in *x86.Inst) []byte {
	var w [8]byte
	w[0] = byte(in.Op)
	w[1] = byte(in.CC)
	w[2] = packBits(in.Rep, 1)
	w[3] = in.Len
	binary.LittleEndian.PutUint32(w[4:], uint32(in.Rel))
	out = append(out, w[:]...)
	out = appendArg(out, &in.Dst)
	out = appendArg(out, &in.Src)
	return appendArg(out, &in.Aux)
}

func appendUop(out []byte, u *uop.Uop, insts []x86.Inst) []byte {
	var w [uopWireLen]byte
	w[0] = byte(u.Kind)
	w[1] = u.Sub
	w[2] = u.Dst
	w[3] = u.Src
	w[4] = u.Dsh
	w[5] = u.Ssh
	w[6] = u.Base
	w[7] = u.Idx
	w[8] = u.Scale
	w[9] = u.Aux
	w[10] = u.Cost
	// w[11] reserved
	le := binary.LittleEndian
	le.PutUint32(w[12:], u.Imm)
	le.PutUint32(w[16:], u.Disp)
	le.PutUint32(w[20:], u.EIP)
	le.PutUint32(w[24:], u.Next)
	le.PutUint32(w[28:], u.Target)
	// The generic-escape payload pointer aims into the block's own
	// insts slice; persist it as an index and re-link on decode.
	idx := int32(-1)
	if u.Inst != nil {
		for i := range insts {
			if u.Inst == &insts[i] {
				idx = int32(i)
				break
			}
		}
	}
	le.PutUint32(w[32:], uint32(idx))
	return append(out, w[:]...)
}

// decCursor is a bounds-checked reader over a serialized payload.
// Every read either succeeds or flips err; nothing ever panics on a
// truncated or corrupt payload.
type decCursor struct {
	data []byte
	off  int
	err  error
}

func (c *decCursor) fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf("vm: snapshot decode: "+format, args...)
	}
}

func (c *decCursor) take(n int) []byte {
	if c.err != nil {
		return nil
	}
	if n < 0 || c.off+n > len(c.data) {
		c.fail("truncated at offset %d (+%d of %d)", c.off, n, len(c.data))
		return nil
	}
	b := c.data[c.off : c.off+n]
	c.off += n
	return b
}

func (c *decCursor) u32() uint32 {
	b := c.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (c *decCursor) u64() uint64 {
	b := c.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// Deserialize reconstructs a Snapshot from a payload produced by
// Serialize. The memory-image sections are aliased, not copied: the
// returned snapshot's restore source points directly into data, so a
// memory-mapped payload lets every process serving the same decoder
// share one page-cache copy of the pristine image. The caller must keep
// data alive and immutable for the lifetime of the snapshot (the
// artifact store retains its mappings; heap payloads are pinned by the
// alias itself).
//
// Decoding is defensive — truncation, bad magic, a foreign engine
// version, or out-of-range structural fields all return an error — but
// it deliberately does not re-verify the semantic content of cached
// micro-ops against the image: the store's whole-artifact checksum is
// the integrity boundary, and on any doubt the caller rebuilds from the
// decoder ELF instead.
func Deserialize(data []byte) (*Snapshot, error) {
	c := &decCursor{data: data}
	if magic := c.take(4); c.err != nil || string(magic) != snapMagic {
		return nil, fmt.Errorf("vm: snapshot decode: bad magic")
	}
	if v := c.u32(); c.err == nil && v != EngineVersion {
		return nil, fmt.Errorf("vm: snapshot decode: engine version %d, want %d", v, EngineVersion)
	}
	s := &Snapshot{}
	s.memSize = c.u32()
	s.brk = c.u32()
	s.roLimit = c.u32()
	s.stackBase = c.u32()
	s.eip = c.u32()
	for i := range s.regs {
		s.regs[i] = c.u32()
	}
	bits := c.take(4) // flags, policy bits, 2 reserved
	if c.err != nil {
		return nil, c.err
	}
	s.cf, s.zf, s.sf, s.of, s.pf = bits[0]&sfCF != 0, bits[0]&sfZF != 0,
		bits[0]&sfSF != 0, bits[0]&sfOF != 0, bits[0]&sfPF != 0
	s.noCache = bits[1]&sbNoCache != 0
	s.noSB = bits[1]&sbNoSB != 0
	s.noT2 = bits[1]&sbNoT2 != 0
	s.optCfg = uop.OptConfig{NoFuse: bits[1]&sbNoFuse != 0, NoFlagElide: bits[1]&sbNoFlagElide != 0}
	s.fuel = int64(c.u64())
	s.wallBudget = time.Duration(c.u64())
	lowLen := c.u32()
	highLen := c.u32()
	nBlocks := c.u32()
	if c.err != nil {
		return nil, c.err
	}
	if s.memSize == 0 || s.memSize > MaxMemSize || s.memSize%PageSize != 0 ||
		s.brk > s.memSize || s.roLimit > s.brk || s.stackBase > s.memSize ||
		lowLen != s.brk || highLen != s.memSize-s.stackBase {
		return nil, fmt.Errorf("vm: snapshot decode: inconsistent layout (mem=%d brk=%d ro=%d stack=%d low=%d high=%d)",
			s.memSize, s.brk, s.roLimit, s.stackBase, lowLen, highLen)
	}
	s.low = c.take(int(lowLen))
	s.high = c.take(int(highLen))
	if c.err != nil {
		return nil, c.err
	}

	s.blocks = make(map[uint32]*block, nBlocks)
	for i := uint32(0); i < nBlocks; i++ {
		addr, b, err := decodeBlock(c, s)
		if err != nil {
			return nil, err
		}
		s.blocks[addr] = b
	}

	nSBs := c.u32()
	if c.err != nil {
		return nil, c.err
	}
	s.sbs = make(map[uint32]*sbRecord, nSBs)
	s.t2 = make(map[*block]*tier2.Trace)
	if nSBs > 0 {
		// Escape payloads re-link by instruction address against the
		// block section just decoded.
		eips := make(map[uint32]*x86.Inst)
		for _, b := range s.blocks {
			for i, a := range b.addrs {
				eips[a] = &b.insts[i]
			}
		}
		for i := uint32(0); i < nSBs; i++ {
			addr, r, err := decodeSB(c, s, eips)
			if err != nil {
				return nil, err
			}
			s.sbs[addr] = r
		}
	}
	if c.off != len(c.data) {
		return nil, fmt.Errorf("vm: snapshot decode: %d trailing bytes", len(c.data)-c.off)
	}
	return s, nil
}

func decodeBlock(c *decCursor, s *Snapshot) (uint32, *block, error) {
	addr := c.u32()
	b := &block{end: c.u32(), cost: int64(c.u64())}
	counts := c.take(4)
	if c.err != nil {
		return 0, nil, c.err
	}
	le := binary.LittleEndian
	nInsts := int(le.Uint16(counts[0:]))
	nUops := int(le.Uint16(counts[2:]))
	if nInsts == 0 || nInsts > maxBlockLen || nUops == 0 || nUops > nInsts {
		return 0, nil, fmt.Errorf("vm: snapshot decode: block %#x has %d insts / %d uops", addr, nInsts, nUops)
	}
	b.insts = make([]x86.Inst, nInsts)
	for i := range b.insts {
		decodeInst(c, &b.insts[i])
	}
	b.addrs = make([]uint32, nInsts)
	for i := range b.addrs {
		b.addrs[i] = c.u32()
	}
	b.uops = make([]uop.Uop, nUops)
	for i := range b.uops {
		if err := decodeUop(c, &b.uops[i], b.insts); err != nil {
			return 0, nil, err
		}
	}
	if c.err != nil {
		return 0, nil, c.err
	}
	// The executor only chains/absorbs blocks below roLimit, and the
	// snapshot guarantees those bytes are pristine; a block outside the
	// window could never have been absorbed by this engine.
	if addr < PageSize || b.end < addr || b.end > s.roLimit {
		return 0, nil, fmt.Errorf("vm: snapshot decode: block [%#x,%#x) outside the read-only window", addr, b.end)
	}
	// Fuel is charged by block cost, so a cost the instructions do not
	// account for would let a crafted block run without using up fuel.
	if b.cost != int64(nInsts) || uop.Cost(b.uops) != b.cost {
		return 0, nil, fmt.Errorf("vm: snapshot decode: block %#x cost %d does not match its %d instructions", addr, b.cost, nInsts)
	}
	if !imageInsts(s, addr, b) {
		return 0, nil, fmt.Errorf("vm: snapshot decode: block %#x does not decode from the image", addr)
	}
	return addr, b, nil
}

// imageInsts reports whether b's instructions are exactly what
// buildBlock decodes from the snapshot's pristine image at addr:
// contiguous, ending at b.end, with a block-ending instruction only in
// the last place. The executor re-lowers them (superblock formation)
// and the reference engine runs them, so they must be as trustworthy as
// a fresh decode, not merely well-formed.
func imageInsts(s *Snapshot, addr uint32, b *block) bool {
	cur := addr
	for i := range b.insts {
		if b.addrs[i] != cur || cur >= s.roLimit {
			return false
		}
		in, err := x86.Decode(s.low[cur:min(cur+15, s.brk)])
		if err != nil || in != b.insts[i] || (endsBlock(in.Op) && i != len(b.insts)-1) {
			return false
		}
		cur += uint32(in.Len)
	}
	return cur == b.end
}

// decodeSB reconstructs one absorbed superblock. Structural defenses
// mirror decodeBlock's: bounded micro-op count, an entry address that
// must name a decoded base block, and the whole trace confined to the
// read-only window. Guard chain slots are re-numbered from scratch with
// the same scan formSuperblock uses, so the wire's Aux bytes for guards
// are never trusted as array indices.
func decodeSB(c *decCursor, s *Snapshot, eips map[uint32]*x86.Inst) (uint32, *sbRecord, error) {
	addr := c.u32()
	b := &block{end: c.u32(), cost: int64(c.u64())}
	nUops := int(c.u32())
	if c.err != nil {
		return 0, nil, c.err
	}
	// Growth appends the final block's lowering after the size check
	// passes, so a legitimate trace can overshoot sbMaxUops by at most
	// one block plus the synthetic tail jump.
	if nUops <= 0 || nUops > sbMaxUops+maxBlockLen+1 || b.cost < 0 {
		return 0, nil, fmt.Errorf("vm: snapshot decode: superblock %#x has %d uops, cost %d", addr, nUops, b.cost)
	}
	b.uops = make([]uop.Uop, nUops)
	for i := range b.uops {
		if err := decodeSBUop(c, &b.uops[i], eips); err != nil {
			return 0, nil, err
		}
	}
	if c.err != nil {
		return 0, nil, c.err
	}
	if b.cost == 0 || uop.Cost(b.uops) != b.cost {
		return 0, nil, fmt.Errorf("vm: snapshot decode: superblock %#x cost %d does not match its micro-ops", addr, b.cost)
	}
	guards, rets := sbNumberSlots(b.uops)
	if _, ok := s.blocks[addr]; !ok {
		return 0, nil, fmt.Errorf("vm: snapshot decode: superblock %#x has no entry block", addr)
	}
	if !sbInRO(b, s.roLimit) {
		return 0, nil, fmt.Errorf("vm: snapshot decode: superblock %#x leaves the read-only window", addr)
	}
	return addr, &sbRecord{b: b, guards: guards, rets: rets}, nil
}

// decodeSBUop decodes one superblock micro-op: the layout of decodeUop
// with the payload word carrying a has-payload marker resolved through
// the block section's instruction addresses, and guard Aux bytes left
// for renumbering rather than range-checked as registers.
func decodeSBUop(c *decCursor, u *uop.Uop, eips map[uint32]*x86.Inst) error {
	w := c.take(uopWireLen)
	if w == nil {
		return c.err
	}
	u.Kind = uop.Kind(w[0])
	u.Sub = w[1]
	u.Dst = w[2]
	u.Src = w[3]
	u.Dsh = w[4]
	u.Ssh = w[5]
	u.Base = w[6]
	u.Idx = w[7]
	u.Scale = w[8]
	u.Aux = w[9]
	u.Cost = w[10]
	le := binary.LittleEndian
	u.Imm = le.Uint32(w[12:])
	u.Disp = le.Uint32(w[16:])
	u.EIP = le.Uint32(w[20:])
	u.Next = le.Uint32(w[24:])
	u.Target = le.Uint32(w[28:])

	if u.Kind > uop.KindGeneric {
		return fmt.Errorf("vm: snapshot decode: unknown uop kind %d at eip %#x", u.Kind, u.EIP)
	}
	if u.Dst > uop.RegZero || u.Src > uop.RegZero || u.Base > uop.RegZero ||
		u.Idx > uop.RegZero {
		return fmt.Errorf("vm: snapshot decode: register slot out of range at eip %#x", u.EIP)
	}
	if !sbGuardKind(u.Kind) && u.Kind != uop.KindRetGuard && u.Aux > uop.RegZero {
		return fmt.Errorf("vm: snapshot decode: register slot out of range at eip %#x", u.EIP)
	}
	switch le.Uint32(w[32:]) {
	case 1:
		in, ok := eips[u.EIP]
		if !ok {
			return fmt.Errorf("vm: snapshot decode: superblock payload at eip %#x not in block section", u.EIP)
		}
		u.Inst = in
	case 0:
		if u.Kind == uop.KindString || u.Kind == uop.KindGeneric {
			return fmt.Errorf("vm: snapshot decode: escape uop without payload at eip %#x", u.EIP)
		}
	default:
		return fmt.Errorf("vm: snapshot decode: bad superblock payload marker at eip %#x", u.EIP)
	}
	return nil
}

func decodeArg(c *decCursor, a *x86.Arg) {
	w := c.take(argWireLen)
	if w == nil {
		return
	}
	a.Kind = x86.ArgKind(w[0])
	a.Reg = x86.Reg(w[1])
	a.Base = x86.Reg(w[2])
	a.Index = x86.Reg(w[3])
	a.Scale = w[4]
	a.Size = w[5]
	le := binary.LittleEndian
	a.Disp = int32(le.Uint32(w[6:]))
	a.Imm = int32(le.Uint32(w[10:]))
}

func decodeInst(c *decCursor, in *x86.Inst) {
	w := c.take(8)
	if w == nil {
		return
	}
	in.Op = x86.Op(w[0])
	in.CC = x86.CC(w[1])
	in.Rep = w[2]&1 != 0
	in.Len = w[3]
	in.Rel = int32(binary.LittleEndian.Uint32(w[4:]))
	decodeArg(c, &in.Dst)
	decodeArg(c, &in.Src)
	decodeArg(c, &in.Aux)
}

func decodeUop(c *decCursor, u *uop.Uop, insts []x86.Inst) error {
	w := c.take(uopWireLen)
	if w == nil {
		return c.err
	}
	u.Kind = uop.Kind(w[0])
	u.Sub = w[1]
	u.Dst = w[2]
	u.Src = w[3]
	u.Dsh = w[4]
	u.Ssh = w[5]
	u.Base = w[6]
	u.Idx = w[7]
	u.Scale = w[8]
	u.Aux = w[9]
	u.Cost = w[10]
	le := binary.LittleEndian
	u.Imm = le.Uint32(w[12:])
	u.Disp = le.Uint32(w[16:])
	u.EIP = le.Uint32(w[20:])
	u.Next = le.Uint32(w[24:])
	u.Target = le.Uint32(w[28:])

	// Structural validation: the executor indexes its jump table by
	// Kind and the 9-slot register file (RegZero included) by the
	// register fields, so out-of-range values here would be memory
	// corruption, not just a wrong answer.
	if u.Kind > uop.KindGeneric {
		return fmt.Errorf("vm: snapshot decode: unknown uop kind %d at eip %#x", u.Kind, u.EIP)
	}
	if u.Dst > uop.RegZero || u.Src > uop.RegZero || u.Base > uop.RegZero ||
		u.Idx > uop.RegZero || u.Aux > uop.RegZero {
		return fmt.Errorf("vm: snapshot decode: register slot out of range at eip %#x", u.EIP)
	}
	idx := int32(le.Uint32(w[32:]))
	switch {
	case idx >= 0 && int(idx) < len(insts):
		u.Inst = &insts[idx]
	case idx == -1:
		if u.Kind == uop.KindString || u.Kind == uop.KindGeneric {
			return fmt.Errorf("vm: snapshot decode: escape uop without payload at eip %#x", u.EIP)
		}
	default:
		return fmt.Errorf("vm: snapshot decode: uop payload index %d out of range", idx)
	}
	return nil
}
