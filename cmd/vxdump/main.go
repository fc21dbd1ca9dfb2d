// Command vxdump inspects VXA decoder executables: ELF structure, a
// disassembly of the text segment in the VXA x86-32 subset, and (for
// registered codecs) the superblock trace plans the tier-2 compiler
// would execute.
//
// Usage:
//
//	vxdump decoder.elf
//	vxdump -codec zlib
//	vxdump -codec deflate -t2
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"

	"vxa"
	"vxa/internal/bmp"
	"vxa/internal/codec"
	"vxa/internal/corpus"
	"vxa/internal/elf32"
	"vxa/internal/vm"
	"vxa/internal/wav"
	"vxa/internal/x86"
)

func main() {
	codecName := flag.String("codec", "", "dump the named codec's built decoder")
	disasm := flag.Bool("d", true, "disassemble the executable segment")
	maxInsts := flag.Int("n", 0, "limit disassembly to n instructions (0 = all)")
	t2 := flag.Bool("t2", false, "run a sample stream and print the tier-2 trace plan of every hot superblock (needs -codec)")
	flag.Parse()
	_ = vxa.Codecs()

	var elf []byte
	switch {
	case *codecName != "":
		c, ok := codec.ByName(*codecName)
		if !ok {
			fatal(fmt.Errorf("unknown codec %q", *codecName))
		}
		var err error
		elf, err = c.DecoderELF()
		if err != nil {
			fatal(err)
		}
	case flag.NArg() == 1:
		var err error
		elf, err = os.ReadFile(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
	default:
		fmt.Fprintln(os.Stderr, "usage: vxdump (-codec name | decoder.elf)")
		os.Exit(2)
	}

	if *t2 {
		if *codecName == "" {
			fatal(fmt.Errorf("-t2 needs -codec (a sample stream must be encoded to warm the profile)"))
		}
		if err := dumpTracePlans(*codecName, elf); err != nil {
			fatal(err)
		}
		return
	}

	p, err := elf32.Parse(elf)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("entry: %#x\n", p.Entry)
	for i, s := range p.Segments {
		prot := "rw-"
		if s.ReadOnly {
			prot = "r-x"
		}
		fmt.Printf("segment %d: vaddr=%#08x filesz=%d memsz=%d %s\n",
			i, s.Vaddr, len(s.Data), s.MemSize, prot)
	}
	if !*disasm {
		return
	}
	for _, s := range p.Segments {
		if !s.ReadOnly {
			continue
		}
		fmt.Println()
		addr := s.Vaddr
		data := s.Data
		count := 0
		for len(data) > 0 {
			inst, err := x86.Decode(data)
			if err != nil {
				// Likely the rodata tail; stop at the first undecodable byte.
				fmt.Printf("%08x: (data follows)\n", addr)
				break
			}
			fmt.Printf("%08x: %s\n", addr, inst)
			addr += uint32(inst.Len)
			data = data[inst.Len:]
			count++
			if *maxInsts > 0 && count >= *maxInsts {
				return
			}
		}
	}
}

// dumpTracePlans decodes one encoded sample through a fresh VM so the
// hot paths profile, form superblocks and promote, then prints every
// trace plan: the fused micro-op sequence with per-op fuel costs, the
// guard exit slots, and which tier-2 backend the trace compiled to.
func dumpTracePlans(name string, elf []byte) error {
	c, ok := codec.ByName(name)
	if !ok {
		return fmt.Errorf("unknown codec %q", name)
	}
	// Sample input by payload type, mirroring the bench corpus.
	var raw []byte
	switch c.Output {
	case "BMP image":
		raw = bmp.Encode(corpus.Image(128, 128, 2))
	case "WAV audio":
		raw = wav.Encode(corpus.Audio(44100, 2, 3))
	default:
		raw = corpus.Text(1<<17, 1)
	}
	var enc bytes.Buffer
	if err := c.Encode(&enc, raw); err != nil {
		return fmt.Errorf("%s encode: %w", name, err)
	}
	v, err := elf32.NewVM(elf, vm.Config{MemSize: 64 << 20})
	if err != nil {
		return err
	}
	// Capture the decoder snapshot as the extraction pipeline does, so
	// a superblock re-formed identically after a stale-profile teardown
	// reuses its shared trace here too.
	v.Snapshot()
	var out, diag bytes.Buffer
	if _, err := v.RunStream(context.Background(), bytes.NewReader(enc.Bytes()),
		&out, &diag, vm.StreamFuel(enc.Len())); err != nil {
		return fmt.Errorf("sample decode: %w", err)
	}
	plans := v.TracePlans()
	st := v.Stats()
	fmt.Printf("%s: %d superblocks, %d tier-2 traces compiled, %d reused, %d demotions\n",
		name, len(plans), st.Tier2Compiled, st.Tier2Reused, st.Tier2Demotions)
	for _, p := range plans {
		fmt.Printf("\ntrace %08x: backend=%s cost=%d uops=%d guards=%d rets=%d\n",
			p.Entry, p.Backend, p.Cost, p.NUops, p.Guards, p.Rets)
		for _, u := range p.Uops {
			slot := ""
			switch {
			case u.Guard >= 0:
				slot = fmt.Sprintf("  guard[%d] -> %08x", u.Guard, u.Target)
			case u.Ret >= 0:
				slot = fmt.Sprintf("  ret[%d]", u.Ret)
			case u.Target != 0:
				slot = fmt.Sprintf("  -> %08x", u.Target)
			}
			fmt.Printf("  %3d  %08x  %-16s cost=%d%s\n", u.Index, u.EIP, u.Kind, u.Cost, slot)
		}
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "vxdump:", err)
	os.Exit(1)
}
