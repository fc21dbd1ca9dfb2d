package vxcc_test

import (
	"bytes"
	"testing"

	"vxa/internal/codec"
	"vxa/internal/vxcc"

	_ "vxa/internal/codec/adpcm"
	_ "vxa/internal/codec/bwt"
	_ "vxa/internal/codec/dctimg"
	_ "vxa/internal/codec/deflate"
	_ "vxa/internal/codec/haarimg"
	_ "vxa/internal/codec/lpc"
)

// TestCompileDeterministic requires byte-identical ELFs from repeated
// compiles of every registered codec's decoder sources: archives embed
// the ELF, and the artifact store indexes decoders by source key on the
// assumption that the same sources always produce the same image.
func TestCompileDeterministic(t *testing.T) {
	const compiles = 5
	cs := codec.All()
	if len(cs) == 0 {
		t.Fatal("no codecs registered")
	}
	for _, c := range cs {
		if len(c.Sources) == 0 {
			continue
		}
		t.Run(c.Name, func(t *testing.T) {
			var first []byte
			for i := 0; i < compiles; i++ {
				b, err := vxcc.Compile(vxcc.Options{}, c.Sources...)
				if err != nil {
					t.Fatal(err)
				}
				if first == nil {
					first = b.ELF
				} else if !bytes.Equal(b.ELF, first) {
					t.Fatalf("compile %d produced a different ELF (%d vs %d bytes)", i+1, len(b.ELF), len(first))
				}
			}
		})
	}
}
