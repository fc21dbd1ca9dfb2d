package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"vxa"
	"vxa/internal/obs"
	"vxa/internal/vm"
)

// bulkEntries is how many entries each codec's archive holds: two per
// worker, so a seed's content weighs less on the codec's figures.
const bulkEntries = 4

// bulkEntryKB is each codec's raw entry size in KB before the seeded
// ±10% jitter: fig7-scale streams, sized so that every codec's archive
// takes about 250 ms to extract in the sandbox on the 2-core host they
// were set on. With equal sizes (96 KB) the codecs' archive times
// differed sixfold and formed separate clusters; whole cycles put the
// median exactly between two clusters and the p75 inside one codec's,
// so both jumped with that codec's noise.
var bulkEntryKB = map[string]int{"deflate": 224, "bwt": 148, "adpcm": 144, "lpc": 112, "haar": 68, "dct": 44}

// bulkNativeReps is how many NativeFirst extractions are timed per
// AlwaysVXA extraction, so the slowdown's denominator is not a single
// few-millisecond sample.
const bulkNativeReps = 3

// bulkArchive is one codec's archive on disk and its reference outputs.
type bulkArchive struct {
	codec     string
	path      string
	want      [][]byte // per entry, in archive order
	decodeAll bool     // entries are pre-encoded streams
	bytes     int64    // sum of len(want)
}

// extractBulk is the offline workload: closed-loop passes that open each
// codec's archive and extract every entry in the sandbox, paired with
// native passes over the same archives.
type extractBulk struct {
	env
	archives []bulkArchive
	caches   map[string]*vxa.SnapCache
}

func (b *extractBulk) setup() error {
	rng := rand.New(rand.NewSource(b.seed))
	b.caches = map[string]*vxa.SnapCache{}
	for ci, name := range paperCodecs {
		c, err := mustCodec(name)
		if err != nil {
			return err
		}
		a := bulkArchive{codec: name, path: filepath.Join(b.dir, "bulk-"+name+".zip")}
		opts := vxa.WriterOptions{}
		switch name {
		case "deflate", "bwt":
			opts.GeneralCodec = name
		case "dct", "haar", "adpcm":
			// The writer never picks these for raw input; it recognizes
			// their encoded streams and attaches their decoders.
			a.decodeAll = true
		}
		f, err := os.Create(a.path)
		if err != nil {
			return err
		}
		w := vxa.NewWriter(f, opts)
		for k := 0; k < bulkEntries; k++ {
			n := int(float64(bulkEntryKB[name]<<10) * (0.9 + 0.2*rng.Float64()))
			raw := rawFor(c, n, b.seed*1000+int64(ci*10+k))
			data, want := raw, raw
			if a.decodeAll {
				s, err := encodeStream(c, raw)
				if err != nil {
					f.Close()
					return err
				}
				data, want = s.enc, s.want
			}
			if err := w.AddFile(fmt.Sprintf("%s-%d", name, k), data, 0o644); err != nil {
				f.Close()
				return err
			}
			a.want = append(a.want, want)
			a.bytes += int64(len(want))
		}
		if err := w.Close(); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		b.archives = append(b.archives, a)
		b.caches[name] = vxa.NewSnapCache(vxa.SnapCacheConfig{VM: vm.Config{MemSize: 64 << 20}})
	}
	// Check the writer chose the intended decoder for every entry, and
	// prime each decoder's snapshot with one sandboxed extraction.
	for _, a := range b.archives {
		r, err := vxa.OpenFile(a.path)
		if err != nil {
			return err
		}
		for _, e := range r.Entries() {
			if e.Codec != a.codec {
				r.Close()
				return fmt.Errorf("bulk: entry %s got codec %q, want %q", e.Name, e.Codec, a.codec)
			}
		}
		r.SetSnapCache(b.caches[a.codec])
		_, err = r.ExtractTo(context.Background(), &r.Entries()[0], io.Discard, vxa.WithMode(vxa.AlwaysVXA), vxa.WithDecodeAll(a.decodeAll))
		r.Close()
		if err != nil {
			return fmt.Errorf("bulk: priming %s: %w", a.codec, err)
		}
	}
	return nil
}

func (b *extractBulk) close() {
	for _, c := range b.caches {
		c.Drain()
	}
}

// readCounters sums the per-codec caches; perCodec receives each one.
func (b *extractBulk) readCounters() (all counters, per map[string]vm.Stats) {
	per = map[string]vm.Stats{}
	for _, name := range paperCodecs {
		s := b.caches[name].Stats()
		all.addCache(s)
		per[name] = s.VM
	}
	return all.withMallocs(), per
}

// extractVXA opens one archive and extracts every entry in the sandbox.
// Untraced, it is one ExtractAll call; traced, nproc workers call
// ExtractTo per entry so each entry gets its own span.
func (b *extractBulk) extractVXA(a bulkArchive, tr *tracer) ([][]byte, []error, error) {
	t0 := time.Now()
	r, err := vxa.OpenFile(a.path)
	if err != nil {
		return nil, nil, err
	}
	defer r.Close()
	tr.record(span{Name: spanOpen, Start: t0, End: time.Now(), Label: a.codec})
	r.SetSnapCache(b.caches[a.codec])
	opts := []vxa.Option{vxa.WithMode(vxa.AlwaysVXA), vxa.WithParallel(b.nproc), vxa.WithDecodeAll(a.decodeAll)}
	data := make([][]byte, len(r.Entries()))
	errs := make([]error, len(r.Entries()))
	if tr == nil {
		for i, res := range r.ExtractAll(context.Background(), opts...) {
			data[i], errs[i] = res.Data, res.Err
		}
		return data, errs, nil
	}
	var wg sync.WaitGroup
	next := make(chan int, len(data))
	for i := range data {
		next <- i
	}
	close(next)
	for w := 0; w < b.nproc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				ctx, sp := obs.WithSpan(context.Background())
				var buf bytes.Buffer
				s := time.Now()
				_, errs[i] = r.ExtractTo(ctx, &r.Entries()[i], &buf, opts...)
				tr.record(span{Name: spanEntry, Start: s, End: time.Now(), Label: a.codec})
				tr.record(span{Name: spanWrite, Start: s, End: s.Add(sp.Get(obs.StageWrite)), Label: a.codec})
				data[i] = buf.Bytes()
			}
		}()
	}
	wg.Wait()
	return data, errs, nil
}

// extractNative extracts every entry of one archive with native decoders.
func (b *extractBulk) extractNative(a bulkArchive) (time.Duration, error) {
	t0 := time.Now()
	r, err := vxa.OpenFile(a.path)
	if err != nil {
		return 0, err
	}
	res := r.ExtractAll(context.Background(), vxa.WithMode(vxa.NativeFirst), vxa.WithParallel(b.nproc), vxa.WithDecodeAll(a.decodeAll))
	d := time.Since(t0)
	r.Close()
	for i, x := range res {
		if k := extractKind(x.Data, x.Err, a.want[i]); k != "" {
			return 0, fmt.Errorf("bulk: native extraction of %s entry %d: %s", a.codec, i, k)
		}
	}
	return d, nil
}

func (b *extractBulk) run(d time.Duration, tr *tracer) (*phase, error) {
	p := &phase{layers: map[string]float64{}}
	c0, per0 := b.readCounters()
	decodedBy := map[string]int64{}
	entries := 0
	var decoded, cycleBytes int64
	var cycleTime, vmTime, nativeTime time.Duration
	var rates, mbs []float64
	start := time.Now()
	// Whole cycles over the six archives, so every codec weighs the same
	// in the latency sample.
	for i := 0; i%len(b.archives) != 0 || i == 0 || time.Since(start) < d; i++ {
		a := b.archives[i%len(b.archives)]
		t0 := time.Now()
		data, errs, err := b.extractVXA(a, tr)
		dt := time.Since(t0)
		if err != nil {
			return nil, err
		}
		allOK := true
		for k := range data {
			kind := extractKind(data[k], errs[k], a.want[k])
			p.tally.add(kind, a.codec+" entry", k)
			if kind != "" {
				allOK = false
				continue
			}
			decoded += int64(len(data[k]))
			cycleBytes += int64(len(data[k]))
			decodedBy[a.codec] += int64(len(data[k]))
			entries++
		}
		vmTime += dt
		cycleTime += dt
		if allOK {
			p.lat = append(p.lat, dt)
		}
		if (i+1)%len(b.archives) == 0 {
			rates = append(rates, float64(len(b.archives))/cycleTime.Seconds())
			mbs = append(mbs, float64(cycleBytes)/1e6/cycleTime.Seconds())
			cycleBytes, cycleTime = 0, 0
		}
		for k := 0; k < bulkNativeReps; k++ {
			nd, err := b.extractNative(a)
			if err != nil {
				return nil, err
			}
			nativeTime += nd / bulkNativeReps
		}
	}
	c1, per1 := b.readCounters()
	delta := c1.minus(c0)
	// Rates are medians over cycles, robust to a short stall of the host.
	p.throughput, p.mbps = medianOf(rates), medianOf(mbs)
	p.slowdown = ratio(float64(vmTime), float64(nativeTime))
	commonLayers(p.layers, delta, entries, decoded)
	ran := 0
	for _, name := range paperCodecs {
		dv := per1[name]
		addVM(&dv, per0[name], -1)
		vmLayers(p.layers, "."+name, dv, decodedBy[name])
		if dv.Steps > 0 {
			ran++
		}
	}
	if tr != nil {
		spans := tr.snapshot()
		for _, name := range paperCodecs {
			var ds []time.Duration
			for _, s := range byName(spans, spanEntry) {
				if s.Label == name {
					ds = append(ds, s.dur())
				}
			}
			p.layers["core.entry_ms."+name] = median(sortedMS(ds))
		}
		p.layers["core.open_ms"] = mean(sortedMS(durations(byName(spans, spanOpen))))
		p.layers["core.write_ms"] = mean(sortedMS(durations(byName(spans, spanWrite))))
	}
	p.named = []named{
		{"extract_mbps", p.mbps, "MB/s"},
		{"vx_slowdown", p.slowdown, "ratio"},
	}
	p.checks = []check{
		{"all six decoders ran", ran == len(paperCodecs), fmt.Sprintf("%d of %d decoders executed guest code", ran, len(paperCodecs))},
		{"tier2.step_share > 0.5", p.layers["tier2.step_share"] > 0.5, fmt.Sprintf("tier2.step_share = %.3f", p.layers["tier2.step_share"])},
	}
	return p, nil
}
