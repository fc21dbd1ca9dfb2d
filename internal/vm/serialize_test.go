package vm

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
)

// warmSnapshot builds the counter program, runs one stream to populate
// the translation cache, absorbs it, and returns the snapshot plus the
// first stream's output (the golden bytes every restored VM must
// reproduce).
func warmSnapshot(t *testing.T) (*Snapshot, []byte) {
	t.Helper()
	v, _ := buildVM(t, Config{MemSize: 4 << 20}, nil, counterProgram)
	snap := v.Snapshot()
	out := runStream(t, v)
	snap.AbsorbBlocks(v)
	if snap.BlockCount() == 0 {
		t.Fatal("warm snapshot has no blocks")
	}
	return snap, out
}

// TestSerializeRoundTrip: a deserialized snapshot materializes VMs that
// behave identically to the original — same guest output, and the warm
// block cache survives (no re-translation).
func TestSerializeRoundTrip(t *testing.T) {
	snap, golden := warmSnapshot(t)
	data, err := snap.Serialize()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Deserialize(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.BlockCount() != snap.BlockCount() {
		t.Fatalf("restored %d blocks, want %d", got.BlockCount(), snap.BlockCount())
	}
	if got.Footprint() != snap.Footprint() {
		t.Fatalf("restored footprint %d, want %d", got.Footprint(), snap.Footprint())
	}
	v := got.NewVM()
	if out := runStream(t, v); !bytes.Equal(out, golden) {
		t.Fatalf("restored VM output %x, want %x", out, golden)
	}
	if built := v.Stats().BlocksBuilt; built != 0 {
		t.Fatalf("restored VM built %d blocks, want 0 (uop cache lost)", built)
	}
	// Second stream without reset continues where the first stopped —
	// restored snapshots carry live state, not just the image.
	if ctr := counterValue(t, runStream(t, v)); ctr != 1 {
		t.Fatalf("second stream counter = %d, want 1", ctr)
	}
}

// TestSerializeDeterministic: the same snapshot always serializes to
// the same bytes (blocks are emitted in address order, not map order) —
// the property that makes artifact re-save cheap to detect.
func TestSerializeDeterministic(t *testing.T) {
	snap, _ := warmSnapshot(t)
	a, err := snap.Serialize()
	if err != nil {
		t.Fatal(err)
	}
	b, err := snap.Serialize()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("two serializations of one snapshot differ")
	}
}

// TestDeserializeTruncated: every truncation either decodes to an error
// or (for a full-length payload) succeeds — never panics.
func TestDeserializeTruncated(t *testing.T) {
	snap, _ := warmSnapshot(t)
	data, err := snap.Serialize()
	if err != nil {
		t.Fatal(err)
	}
	lengths := []int{}
	for n := 0; n < len(data) && n < 256; n++ {
		lengths = append(lengths, n)
	}
	for n := 256; n < len(data); n += 4099 {
		lengths = append(lengths, n)
	}
	lengths = append(lengths, len(data)-1)
	for _, n := range lengths {
		if _, err := Deserialize(data[:n]); err == nil {
			t.Fatalf("truncation to %d of %d bytes decoded cleanly", n, len(data))
		}
	}
}

// TestDeserializeRejects: targeted corruptions of the structural fields
// are all refused.
func TestDeserializeRejects(t *testing.T) {
	snap, _ := warmSnapshot(t)
	data, err := snap.Serialize()
	if err != nil {
		t.Fatal(err)
	}
	le := binary.LittleEndian

	corrupt := func(name string, mutate func(d []byte)) {
		d := append([]byte(nil), data...)
		mutate(d)
		if _, err := Deserialize(d); err == nil {
			t.Errorf("%s: corrupted payload decoded cleanly", name)
		}
	}

	corrupt("magic", func(d []byte) { d[0] ^= 0xff })
	corrupt("engine version", func(d []byte) { le.PutUint32(d[4:], EngineVersion+1) })
	corrupt("memSize not page multiple", func(d []byte) { le.PutUint32(d[8:], le.Uint32(d[8:])+1) })
	corrupt("brk past memSize", func(d []byte) { le.PutUint32(d[12:], le.Uint32(d[8:])+PageSize) })
	corrupt("roLimit past brk", func(d []byte) { le.PutUint32(d[16:], le.Uint32(d[12:])+1) })
	corrupt("lowLen mismatch", func(d []byte) { le.PutUint32(d[80:], le.Uint32(d[80:])+1) })
	corrupt("block count overrun", func(d []byte) { le.PutUint32(d[88:], le.Uint32(d[88:])+1) })
	if _, err := Deserialize(append(append([]byte(nil), data...), 0)); err == nil {
		t.Error("trailing byte decoded cleanly")
	}

	// Corrupt the first uop's Kind inside the first block. Block section
	// layout: 20-byte block header, nInsts insts (instWireLen each),
	// nInsts addrs (4 each), then the uops.
	blockOff := snapHeaderLen + int(le.Uint32(data[80:])) + int(le.Uint32(data[84:]))
	nInsts := int(le.Uint16(data[blockOff+16:]))
	uopOff := blockOff + 20 + nInsts*(instWireLen+4)
	corrupt("uop kind out of range", func(d []byte) { d[uopOff] = 0xff })
	// A block that charges no fuel would run forever: its cost must be
	// its instruction count. Block header: addr, end, cost (u64).
	corrupt("block cost zero", func(d []byte) { le.PutUint64(d[blockOff+8:], 0) })
	corrupt("block cost inflated", func(d []byte) { le.PutUint64(d[blockOff+8:], le.Uint64(d[blockOff+8:])+1) })
	corrupt("uop register out of range", func(d []byte) { d[uopOff+2] = 0x7f })
	// Instructions are re-lowered by superblock formation and run by the
	// reference engine, so they must decode from the image. A fuzzed
	// payload with an out-of-range register in the first instruction's
	// destination (inst header 8 bytes, then the Dst arg: kind, reg)
	// once panicked the executor.
	instOff := blockOff + 20
	corrupt("inst register out of range", func(d []byte) { d[instOff+9] = 0xe2 })
	corrupt("inst length", func(d []byte) { d[instOff+3]++ })
	corrupt("inst address", func(d []byte) {
		le.PutUint32(d[instOff+nInsts*instWireLen:], le.Uint32(d[instOff+nInsts*instWireLen:])+1)
	})
}

// TestDeserializeRejectsSBCost: a superblock's cost must be the sum of
// its micro-ops' costs. Zero would let a crafted trace loop without
// using up fuel.
func TestDeserializeRejectsSBCost(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	image := make([]byte, soakSpan)
	soakBuildProgram(t, rng, image)
	ref := soakVM(t, image)
	soakSeedRegs(rng, ref)
	snap := soakSharedVM(t, image, ref).snap
	data, err := snap.Serialize()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Deserialize(data); err != nil {
		t.Fatal(err)
	}
	// Skip the block section to the superblock count, then the first
	// superblock's addr and end to its cost (u64).
	le := binary.LittleEndian
	off := snapHeaderLen + int(le.Uint32(data[80:])) + int(le.Uint32(data[84:]))
	for i := uint32(0); i < le.Uint32(data[88:]); i++ {
		n, u := int(le.Uint16(data[off+16:])), int(le.Uint16(data[off+18:]))
		off += 20 + n*(instWireLen+4) + u*uopWireLen
	}
	if le.Uint32(data[off:]) == 0 {
		t.Fatal("snapshot has no superblock")
	}
	costOff := off + 4 + 8
	for name, cost := range map[string]uint64{"zero": 0, "inflated": le.Uint64(data[costOff:]) + 1} {
		d := append([]byte(nil), data...)
		le.PutUint64(d[costOff:], cost)
		if _, err := Deserialize(d); err == nil {
			t.Errorf("superblock cost %s: corrupted payload decoded cleanly", name)
		}
	}
}
