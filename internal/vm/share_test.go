package vm_test

import (
	"bytes"
	"compress/gzip"
	"context"
	"os"
	"sync"
	"testing"

	"vxa/internal/bmp"
	"vxa/internal/codec"
	"vxa/internal/corpus"
	"vxa/internal/elf32"
	"vxa/internal/vm"
	"vxa/internal/vm/tier2"
	"vxa/internal/wav"

	_ "vxa/internal/codec/adpcm"
	_ "vxa/internal/codec/bwt"
	_ "vxa/internal/codec/dctimg"
	_ "vxa/internal/codec/deflate"
	_ "vxa/internal/codec/haarimg"
	_ "vxa/internal/codec/lpc"
)

// The tests in this file pin the sharing of compiled tier-2 traces
// through a decoder snapshot: one VM's compilation serves every VM the
// snapshot materializes, and sharing is invisible to the guest.

// shareMem is the guest address space the sharing tests run decoders
// in: large enough for every codec's small corpus input.
const shareMem = 64 << 20

// tier2On reports whether this process compiles tier-2 traces at all
// (the native emitter exists and VXA_NO_TIER2 does not force it off).
func tier2On() bool {
	s := os.Getenv("VXA_NO_TIER2")
	return tier2.Available && (s == "" || s == "0")
}

// shareCase is one codec's decoder image, a small encoded input and
// the native decoder's output for it (the reference the VM must match).
type shareCase struct {
	name string
	elf  []byte
	enc  []byte
	want []byte
}

// shareCases builds a case for every registered codec. Redecs have no
// encoder; gzip input comes from the standard library instead.
func shareCases(t testing.TB) []shareCase {
	t.Helper()
	var cases []shareCase
	for _, c := range codec.All() {
		var raw []byte
		switch c.Output {
		case "BMP image":
			raw = bmp.Encode(corpus.Image(48, 48, 5))
		case "WAV audio":
			raw = wav.Encode(corpus.Audio(4000, 2, 5))
		default:
			raw = corpus.Text(1<<14, 5)
		}
		var enc bytes.Buffer
		switch {
		case c.Encode != nil:
			if err := c.Encode(&enc, raw); err != nil {
				t.Fatalf("%s encode: %v", c.Name, err)
			}
		case c.Name == "gzip":
			zw := gzip.NewWriter(&enc)
			zw.Write(raw)
			zw.Close()
		default:
			continue
		}
		var want bytes.Buffer
		if err := c.Decode(&want, bytes.NewReader(enc.Bytes())); err != nil {
			t.Fatalf("%s native decode: %v", c.Name, err)
		}
		elf, err := c.DecoderELF()
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, shareCase{c.Name, elf, enc.Bytes(), want.Bytes()})
	}
	if len(cases) == 0 {
		t.Fatal("no codecs registered")
	}
	return cases
}

// pristine loads the decoder and returns the snapshot taken right after
// ELF load, as the archive reader does.
func pristine(t *testing.T, elf []byte, memSize uint32) *vm.Snapshot {
	t.Helper()
	v, err := elf32.NewVM(elf, vm.Config{MemSize: memSize})
	if err != nil {
		t.Fatal(err)
	}
	return v.Snapshot()
}

// streamResult is what one decode leaves behind that must not depend
// on which tier ran it, plus the tier-2 counters of that stream.
type streamResult struct {
	out      []byte
	steps    uint64
	uops     uint64
	fuel     int64
	compiled uint64
	reused   uint64
}

func decode(t testing.TB, v *vm.VM, enc []byte) streamResult {
	t.Helper()
	st0 := v.Stats()
	var out bytes.Buffer
	if _, err := v.RunStream(context.Background(), bytes.NewReader(enc), &out, nil, vm.StreamFuel(len(enc))); err != nil {
		t.Fatal(err)
	}
	st := v.Stats()
	return streamResult{
		out:      out.Bytes(),
		steps:    st.Steps - st0.Steps,
		uops:     st.UopsExecuted - st0.UopsExecuted,
		fuel:     v.FuelRemaining(),
		compiled: st.Tier2Compiled - st0.Tier2Compiled,
		reused:   st.Tier2Reused - st0.Tier2Reused,
	}
}

// TestSharedTraceReplay: once a stream's superblocks and traces are in
// the snapshot, replaying the same input through repeated Resets
// compiles nothing — every trace is installed from the snapshot — and
// sharing is invisible: output (checked against the native decoder),
// Steps and remaining fuel match the first stream, and every replay
// matches the others in UopsExecuted and traces reused too.
//
// The first replay is warm-up: it starts from the absorbed superblocks,
// so its profile can tear one down and re-form a variant the first
// stream never compiled. It compiles and publishes those; no later
// replay compiles anything.
func TestSharedTraceReplay(t *testing.T) {
	for _, c := range shareCases(t) {
		t.Run(c.name, func(t *testing.T) {
			snap := pristine(t, c.elf, shareMem)
			v := snap.NewVM()
			first := decode(t, v, c.enc)
			snap.AbsorbBlocks(v)
			if !bytes.Equal(first.out, c.want) {
				t.Fatal("first stream differs from the native decoder")
			}
			var prev streamResult
			for k := 0; k < 4; k++ {
				if err := v.Reset(snap); err != nil {
					t.Fatal(err)
				}
				r := decode(t, v, c.enc)
				if !bytes.Equal(r.out, c.want) {
					t.Fatalf("replay %d differs from the native decoder", k)
				}
				if r.steps != first.steps || r.fuel != first.fuel {
					t.Fatalf("replay %d: steps %d fuel %d, first stream steps %d fuel %d",
						k, r.steps, r.fuel, first.steps, first.fuel)
				}
				if k == 0 {
					prev = r
					continue
				}
				if r.compiled != 0 {
					t.Errorf("replay %d compiled %d traces; want all installed from the snapshot", k, r.compiled)
				}
				if tier2On() && r.reused == 0 {
					t.Errorf("replay %d ran no shared trace (first stream compiled %d)", k, first.compiled)
				}
				if k > 1 && (r.uops != prev.uops || r.reused != prev.reused) {
					t.Fatalf("replay %d: uops %d reused %d, previous replay uops %d reused %d",
						k, r.uops, r.reused, prev.uops, prev.reused)
				}
				prev = r
			}
		})
	}
}

// warm decodes one stream on a fresh VM of snap and absorbs it, then
// replays it once from the absorbed state, so the snapshot holds the
// superblocks and shared traces a steady stream of this input uses.
func warm(t testing.TB, snap *vm.Snapshot, c shareCase) {
	t.Helper()
	v := snap.NewVM()
	decode(t, v, c.enc)
	snap.AbsorbBlocks(v)
	if err := v.Reset(snap); err != nil {
		t.Fatal(err)
	}
	decode(t, v, c.enc)
}

// TestSharedTraceConcurrent runs several goroutines at once on VMs of
// one snapshot, all entering the same shared traces (under -race this is
// the check that a shared trace is read-only state). Every output must
// match the native decoder, and every VM must run shared traces.
func TestSharedTraceConcurrent(t *testing.T) {
	const workers, streams = 4, 2
	for _, c := range shareCases(t) {
		t.Run(c.name, func(t *testing.T) {
			snap := pristine(t, c.elf, shareMem)
			warm(t, snap, c)
			var wg sync.WaitGroup
			errs := make(chan string, workers*streams)
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					v := snap.NewVM()
					for k := 0; k < streams; k++ {
						if k > 0 {
							if err := v.Reset(snap); err != nil {
								errs <- err.Error()
								return
							}
						}
						var out bytes.Buffer
						if _, err := v.RunStream(context.Background(), bytes.NewReader(c.enc), &out, nil, vm.StreamFuel(len(c.enc))); err != nil {
							errs <- err.Error()
							return
						}
						if !bytes.Equal(out.Bytes(), c.want) {
							errs <- "output differs from the native decoder"
						}
					}
					if tier2On() && v.Stats().Tier2Reused == 0 {
						errs <- "VM ran no shared trace"
					}
				}()
			}
			wg.Wait()
			close(errs)
			for e := range errs {
				t.Error(e)
			}
		})
	}
}

// TestSharedTraceFootprint: publishing a trace grows the snapshot's
// Footprint by its executable code, and DropSuperblocks (the ablation
// hook) drops the shared traces with the superblocks, so the next VM
// compiles its own.
func TestSharedTraceFootprint(t *testing.T) {
	if !tier2On() {
		t.Skip("tier 2 is off: no trace to publish")
	}
	c := shareCases(t)[0]
	snap := pristine(t, c.elf, shareMem)

	// A tier-2-off VM absorbs superblocks but has no trace to publish.
	t.Setenv("VXA_NO_TIER2", "1")
	v := snap.NewVM()
	decode(t, v, c.enc)
	snap.AbsorbBlocks(v)
	if snap.SBCount() == 0 || snap.TraceCount() != 0 {
		t.Fatalf("after a tier-2-off stream: %d superblocks, %d traces; want some, none",
			snap.SBCount(), snap.TraceCount())
	}
	before := snap.Footprint()

	// A tier-2 VM compiles the absorbed superblocks and publishes them.
	t.Setenv("VXA_NO_TIER2", "0")
	v = snap.NewVM()
	decode(t, v, c.enc)
	if snap.TraceCount() == 0 {
		t.Fatal("tier-2 stream published no trace")
	}
	if after := snap.Footprint(); after <= before {
		t.Fatalf("Footprint %d after publishing %d traces, %d before", after, snap.TraceCount(), before)
	}

	snap.DropSuperblocks()
	if snap.SBCount() != 0 || snap.TraceCount() != 0 {
		t.Fatalf("DropSuperblocks left %d superblocks, %d traces", snap.SBCount(), snap.TraceCount())
	}
	if r := decode(t, snap.NewVM(), c.enc); r.compiled == 0 {
		t.Fatal("after DropSuperblocks a fresh VM compiled no trace of its own")
	}
}

// TestSharedTraceImport: ExportBlocks/ImportBlocks carry superblocks
// but never traces, whose code bakes in the exporter's sandbox geometry.
// A snapshot of another MemSize that imports a warm sibling's superblocks
// starts with no trace, compiles its own, and decodes byte-identically.
func TestSharedTraceImport(t *testing.T) {
	for _, c := range shareCases(t) {
		t.Run(c.name, func(t *testing.T) {
			src := pristine(t, c.elf, shareMem)
			warm(t, src, c)
			dst := pristine(t, c.elf, shareMem/2)
			if n := dst.ImportBlocks(src.ExportBlocks()); n == 0 || dst.SBCount() == 0 {
				t.Fatalf("imported %d fragments, %d superblocks", n, dst.SBCount())
			}
			if n := dst.TraceCount(); n != 0 {
				t.Fatalf("import carried %d traces", n)
			}
			r := decode(t, dst.NewVM(), c.enc)
			if !bytes.Equal(r.out, c.want) {
				t.Fatal("importing snapshot's output differs from the native decoder")
			}
			if tier2On() && (r.compiled == 0 || dst.TraceCount() == 0) {
				t.Fatalf("importing snapshot compiled %d traces and holds %d; want its own", r.compiled, dst.TraceCount())
			}
		})
	}
}

// TestSharedTraceCapturedVM: the VM a snapshot was captured from — the
// spare a snapshot cache hands out first — has never compiled, yet it
// adopts the traces a sibling published as soon as it forms the same
// superblocks, and its machine view must be ready for them.
func TestSharedTraceCapturedVM(t *testing.T) {
	for _, c := range shareCases(t) {
		t.Run(c.name, func(t *testing.T) {
			spare, err := elf32.NewVM(c.elf, vm.Config{MemSize: shareMem})
			if err != nil {
				t.Fatal(err)
			}
			snap := spare.Snapshot()
			warm(t, snap, c)
			r := decode(t, spare, c.enc)
			if !bytes.Equal(r.out, c.want) {
				t.Fatal("output differs from the native decoder")
			}
			if tier2On() && r.reused == 0 {
				t.Fatalf("captured VM ran no shared trace (%d compiled)", r.compiled)
			}
		})
	}
}
