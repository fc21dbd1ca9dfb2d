package vm_test

import (
	"bytes"
	"context"
	"testing"

	"vxa/internal/elf32"
	"vxa/internal/vm"
)

// FuzzDeserialize feeds arbitrary bytes to the snapshot loader, the
// boundary a persisted artifact crosses: its CRC catches corruption but
// not a crafted file. Deserialize must return an error or a snapshot
// that behaves — one that serializes back to a payload it accepts, and
// whose VM runs a short stream to an outcome (output, trap, fuel
// exhaustion) — and never panic. The seeds are warm snapshots of every
// codec's decoder, blocks and superblocks included.
func FuzzDeserialize(f *testing.F) {
	for _, c := range shareCases(f) {
		// A small stack keeps the seeds to the image and block cache.
		v, err := elf32.NewVM(c.elf, vm.Config{MemSize: 64 << 20, StackSize: 64 << 10})
		if err != nil {
			f.Fatal(err)
		}
		snap := v.Snapshot()
		warm(f, snap, c)
		data, err := snap.Serialize()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := vm.Deserialize(data)
		if err != nil {
			return
		}
		again, err := snap.Serialize()
		if err != nil {
			t.Fatalf("accepted snapshot does not serialize: %v", err)
		}
		if _, err := vm.Deserialize(again); err != nil {
			t.Fatalf("re-serialized snapshot rejected: %v", err)
		}
		snap.Footprint()
		v := snap.NewVM()
		v.RunStream(context.Background(), bytes.NewReader(data[:min(len(data), 256)]), &bytes.Buffer{}, nil, 1<<16)
	})
}
