package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"path/filepath"
	"runtime"
	"time"

	"vxa/internal/artifact"
	"vxa/internal/server"
	"vxa/internal/vxcc"
)

// restartRawBytes is the raw size of each codec's first request.
const restartRawBytes = 8 << 10

// restart times bringing the six decoders from nothing to their first
// /v1/decode response, in serial rounds of two halves. Storeless: a
// fresh vxcc.Compile per codec and a new daemon with no artifact store.
// Disk-warm: artifact.Open on a store populated in set-up, a new
// daemon, PrewarmArtifacts, then the first requests.
type restart struct {
	env
	streams  []stream
	storeDir string
	client   *http.Client
	sw       traceSwitch
}

func (w *restart) setup() error {
	w.client = newClient(w.nproc)
	for ci, name := range paperCodecs {
		c, err := mustCodec(name)
		if err != nil {
			return err
		}
		if _, err := c.Build(); err != nil {
			return err
		}
		st, err := encodeStream(c, rawFor(c, restartRawBytes, w.seed*100+int64(ci)))
		if err != nil {
			return err
		}
		w.streams = append(w.streams, st)
	}
	w.storeDir = filepath.Join(w.dir, "store")
	st, err := artifact.Open(w.storeDir)
	if err != nil {
		return err
	}
	v := startVxad(server.Config{Artifacts: st}, &w.sw, spanServer, spanClient)
	err = w.firstRequests(v, nil)
	v.close()
	if err != nil {
		return err
	}
	// One untimed round, so file and page caches are as warm as in
	// every later round.
	_, err = w.half(false, nil)
	if err == nil {
		_, err = w.half(true, nil)
	}
	return err
}

func (w *restart) close() { w.client.CloseIdleConnections() }

// firstRequests sends each codec's stream once and checks the output.
func (w *restart) firstRequests(v *vxad, tr *tracer) error {
	for _, st := range w.streams {
		id := tr.nextID()
		t0 := time.Now()
		res := post(w.client, v.ts.URL+"/v1/decode?codec="+st.codec, st.enc, st.want, id)
		tr.record(span{Name: spanClient, ID: id, Start: t0, End: time.Now(), Shard: res.shard, Label: st.codec})
		if res.kind != "" {
			return fmt.Errorf("restart: first %s request: %s", st.codec, res.kind)
		}
	}
	return nil
}

// halfResult is one half of a restart round.
type halfResult struct {
	total, compile, prewarm time.Duration
	metrics                 server.Metrics
	compileMismatch         string
}

// half runs one restart, storeless or disk-warm, and returns its
// timings and the new daemon's counters (all accrued in this half).
func (w *restart) half(warm bool, tr *tracer) (halfResult, error) {
	var hr halfResult
	w.sw.p.Store(tr)
	defer w.sw.p.Store(nil)
	t0 := time.Now()
	cfg := server.Config{}
	if warm {
		st, err := artifact.Open(w.storeDir)
		if err != nil {
			return hr, err
		}
		cfg.Artifacts = st
	}
	v := startVxad(cfg, &w.sw, spanServer, spanClient)
	defer func() {
		v.close()
		// A restarted daemon starts with an empty heap; collect this
		// one's guest memory before the next half.
		runtime.GC()
	}()
	if warm {
		tp := time.Now()
		if n := v.srv.PrewarmArtifacts(context.Background()); n != len(paperCodecs) {
			return hr, fmt.Errorf("restart: prewarmed %d of %d decoders", n, len(paperCodecs))
		}
		hr.prewarm = time.Since(tp)
		tr.record(span{Name: spanPrewarm, Start: tp, End: tp.Add(hr.prewarm)})
	} else {
		for _, name := range paperCodecs {
			c, err := mustCodec(name)
			if err != nil {
				return hr, err
			}
			tc := time.Now()
			b, err := vxcc.Compile(vxcc.Options{}, c.Sources...)
			d := time.Since(tc)
			if err != nil {
				return hr, fmt.Errorf("restart: compile %s: %w", name, err)
			}
			hr.compile += d
			tr.record(span{Name: spanCompile, Start: tc, End: tc.Add(d), Label: name})
			if elf, _ := c.DecoderELF(); !bytes.Equal(b.ELF, elf) && hr.compileMismatch == "" {
				hr.compileMismatch = name
			}
		}
	}
	if err := w.firstRequests(v, tr); err != nil {
		return hr, err
	}
	hr.total = time.Since(t0)
	hr.metrics = v.srv.MetricsSnapshot()
	return hr, nil
}

func (w *restart) run(d time.Duration, tr *tracer) (*phase, error) {
	p := &phase{layers: map[string]float64{}}
	var sum counters
	var colds, warms, compiles, prewarms, natives []float64
	mismatch := ""
	var lastBytes, decoded int64
	var wall time.Duration
	m0 := counters{}.withMallocs()
	start := time.Now()
	rounds := 0
	for ; rounds == 0 || time.Since(start) < d; rounds++ {
		var round time.Duration
		for _, warm := range []bool{false, true} {
			hr, err := w.half(warm, tr)
			if err != nil {
				return nil, err
			}
			round += hr.total
			for _, st := range w.streams {
				decoded += int64(len(st.want))
				p.tally.add("", "", 0)
			}
			sum.addServer(hr.metrics)
			lastBytes = hr.metrics.Cache.Bytes
			if warm {
				warms = append(warms, float64(hr.total)/1e6)
				prewarms = append(prewarms, float64(hr.prewarm)/1e6)
			} else {
				colds = append(colds, float64(hr.total)/1e6)
				compiles = append(compiles, float64(hr.compile)/1e6)
				if mismatch == "" {
					mismatch = hr.compileMismatch
				}
			}
		}
		p.lat = append(p.lat, round)
		wall += round
		// Native decodes of both halves' streams, timed between rounds so
		// the host's speed moves both sides of vx_slowdown.
		nt, err := poolNativeTime(w.streams)
		if err != nil {
			return nil, err
		}
		natives = append(natives, float64(2*nt)*float64(len(w.streams)))
	}
	p.throughput = ratio(float64(rounds), wall.Seconds())
	p.mbps = ratio(float64(decoded)/1e6, wall.Seconds())
	p.slowdown = ratio(median(sortedMS(p.lat))*1e6, medianOf(natives))
	sum.mallocs = counters{}.withMallocs().mallocs - m0.mallocs
	sum.bytes = lastBytes
	requests := 2 * rounds * len(w.streams)
	commonLayers(p.layers, sum, requests, decoded)
	if tr != nil {
		spans := tr.snapshot()
		serverLayers(p.layers, sum, byName(spans, spanServer))
		p.layers["http.client_ms"] = median(sortedMS(clientMinusHandler(spans, spanServer)))
	}
	p.layers["vxcc.compile_ms"] = medianOf(compiles)
	p.layers["artifact.prewarm_ms"] = medianOf(prewarms)
	if mismatch != "" {
		// Reported, not gated: a determinism defect in vxcc, not a
		// failure of the restart mechanism this workload measures.
		p.notes = append(p.notes, "vxcc.Compile of "+mismatch+" differs byte-wise from the cached build of the same sources")
	}
	p.named = []named{
		{"cold_start_ms", medianOf(colds), "ms"},
		{"warm_restart_ms", medianOf(warms), "ms"},
	}
	hits, falls := sum.art.Hits, sum.art.Fallbacks
	want := rounds * len(paperCodecs)
	p.checks = []check{
		{"artifact.hits = codecs × rounds", hits == int64(want), fmt.Sprintf("artifact.hits = %d, want %d", hits, want)},
		{"artifact.fallbacks = 0", falls == 0, fmt.Sprintf("artifact.fallbacks = %d", falls)},
	}
	return p, nil
}
