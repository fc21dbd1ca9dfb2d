package main

import (
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	"vxa/internal/server"
)

// traceSwitch lets handlers built in set-up record spans only while a
// traced phase runs.
type traceSwitch struct{ p atomic.Pointer[tracer] }

// wrap records a span around h whenever a tracer is switched on.
func (ts *traceSwitch) wrap(name, parent, shard string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		wrapHandler(ts.p.Load(), name, parent, shard, h).ServeHTTP(w, r)
	})
}

// newClient returns an HTTP client with enough idle connections for
// the in-flight cap.
func newClient(nproc int) *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * nproc}}
}

// vxad is one in-process daemon on a loopback listener.
type vxad struct {
	srv *server.Server
	ts  *httptest.Server
}

func startVxad(cfg server.Config, sw *traceSwitch, spanName, parent string) *vxad {
	srv := server.New(cfg)
	return &vxad{srv: srv, ts: httptest.NewServer(sw.wrap(spanName, parent, cfg.ShardID, srv.Handler()))}
}

// startVxadAt is startVxad on a fixed address when it is free.
func startVxadAt(addr string, cfg server.Config, sw *traceSwitch, spanName, parent string) *vxad {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return startVxad(cfg, sw, spanName, parent)
	}
	srv := server.New(cfg)
	ts := httptest.NewUnstartedServer(sw.wrap(spanName, parent, cfg.ShardID, srv.Handler()))
	ts.Listener.Close()
	ts.Listener = l
	ts.Start()
	return &vxad{srv: srv, ts: ts}
}

func (v *vxad) close() {
	v.ts.Close()
	v.srv.Close()
}

// ---------- serve-decode ----------

// decodePoolPerCodec is how many distinct streams each codec
// contributes to the /v1/decode request pool.
const decodePoolPerCodec = 128

// serveDecode drives /v1/decode on one in-process vxad: an open-loop
// phase at a fixed rate, then a closed-loop capacity phase.
type serveDecode struct {
	env
	pool   []stream
	seq    []int // request order over the pool
	d      *vxad
	client *http.Client
	sw     traceSwitch
}

func (s *serveDecode) setup() error {
	rng := rand.New(rand.NewSource(s.seed))
	for ci, name := range paperCodecs {
		c, err := mustCodec(name)
		if err != nil {
			return err
		}
		for k, n := range logSizes(rng, decodePoolPerCodec, 256, 16<<10) {
			st, err := encodeStream(c, rawFor(c, n, s.seed*100000+int64(ci*decodePoolPerCodec+k)))
			if err != nil {
				return err
			}
			s.pool = append(s.pool, st)
		}
	}
	s.seq = rng.Perm(len(s.pool))
	s.d = startVxad(server.Config{MaxInFlight: s.nproc}, &s.sw, spanServer, spanClient)
	s.client = newClient(s.nproc)
	// Prime: nproc concurrent requests per codec, twice, park a warm VM
	// per worker for every decoder.
	for round := 0; round < 2; round++ {
		for ci := range paperCodecs {
			var wg sync.WaitGroup
			var bad atomic.Value
			for w := 0; w < s.nproc; w++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					if k, _ := s.do(i, nil); k != "" {
						bad.Store(fmt.Sprintf("priming %s: %s", s.pool[i].codec, k))
					}
				}(ci*decodePoolPerCodec + w)
			}
			wg.Wait()
			if v := bad.Load(); v != nil {
				return fmt.Errorf("serve-decode: %s", v)
			}
		}
	}
	// Warm up: the first 384 requests of the sequence with nproc
	// closed-loop clients, so hot traces are compiled before timing.
	warm := closedLoopN(384, s.nproc, func(i int) (string, int) { return s.do(s.seq[i], nil) })
	if warm.tally.failed() > 0 {
		return fmt.Errorf("serve-decode: warm-up: %d of %d requests failed", warm.tally.failed(), warm.tally.sent)
	}
	return nil
}

func (s *serveDecode) close() {
	s.d.close()
	s.client.CloseIdleConnections()
}

// do sends pool stream i to /v1/decode.
func (s *serveDecode) do(i int, tr *tracer) (string, int) {
	st := s.pool[i]
	id := tr.nextID()
	t0 := time.Now()
	res := post(s.client, s.d.ts.URL+"/v1/decode?codec="+st.codec, st.enc, st.want, id)
	tr.record(span{Name: spanClient, ID: id, Start: t0, End: time.Now(), Shard: res.shard, Label: st.codec})
	return res.kind, res.n
}

func (s *serveDecode) run(d time.Duration, tr *tracer) (*phase, error) {
	s.sw.p.Store(tr)
	defer s.sw.p.Store(nil)
	rng := rand.New(rand.NewSource(s.seed + int64(d)))
	// At the default rate the open loop's sample stays under 1000, so
	// the tail is p95 with ~45 samples beyond it; the rest of the time
	// measures capacity. The two alternate, a stretch of open loop before
	// each one-second capacity window: the shared host's speed drifts
	// over seconds (the median of 3 s stretches of one run moved by
	// ±15%), and spreading each phase over the whole run averages more of
	// that drift than one stretch of it would.
	openD := d * 3 / 5
	windows := max(1, int((d-openD)/time.Second))
	chunk := openD / time.Duration(windows)
	c0 := s.counters()
	next := rng.Intn(len(s.seq))
	open := &loadResult{}
	// Each capacity window is followed by native decodes of the pool, so
	// a slower or faster host moves both sides of vx_slowdown. Rates are
	// medians over the windows, robust to a short stall of the shared
	// host.
	p := &phase{layers: map[string]float64{}}
	var rates, mbs, slows []float64
	var capSent int
	var capBytes int64
	for w := 0; w < windows; w++ {
		o := openLoop(arrivals(rng, s.decodeRate, chunk), chunk, s.nproc, func(i int) (string, int) {
			return s.do(s.seq[(next+i)%len(s.seq)], tr)
		})
		next += o.tally.sent
		open.merge(o)
		c := closedLoop(time.Second, s.nproc, func(i int) (string, int) {
			return s.do(s.seq[(next+i)%len(s.seq)], tr)
		})
		next += c.tally.sent
		capSent += c.tally.sent
		capBytes += c.bytes
		p.tally.merge(&c.tally)
		nt, err := poolNativeTime(s.pool)
		if err != nil {
			return nil, err
		}
		rate := ratio(float64(c.tally.ok), c.elapsed.Seconds())
		rates = append(rates, rate)
		mbs = append(mbs, float64(c.bytes)/1e6/c.elapsed.Seconds())
		// Mean service time with nproc clients over mean native decode time.
		slows = append(slows, ratio(float64(s.nproc)/rate*1e9, float64(nt)))
	}
	p.throughput, p.mbps = medianOf(rates), medianOf(mbs)
	p.slowdown = medianOf(slows)
	open.offered = float64(len(open.late)) / (chunk * time.Duration(windows)).Seconds()
	open.flags = loadFlags(open.late, open.offered, open.achieved())
	p.lat, p.open = open.lat, open
	p.tally.merge(&open.tally)

	delta := s.counters().minus(c0)
	commonLayers(p.layers, delta, open.tally.sent+capSent, open.bytes+capBytes)
	loadLayers(p.layers, open)
	if tr != nil {
		spans := tr.snapshot()
		serverLayers(p.layers, delta, byName(spans, spanServer))
		p.layers["http.client_ms"] = median(sortedMS(clientMinusHandler(spans, spanServer)))
	}
	lat := sortedMS(open.lat)
	tail, pct := tailOf(lat)
	p.named = []named{
		{"decode_p50_ms", median(lat), "ms"},
		{"decode_tail_ms", tail, fmt.Sprintf("ms (p%g of %d samples)", pct, len(lat))},
		{"decode_capacity_rps", p.throughput, "req/s"},
	}
	resets, resumes := p.layers["pool.resets_per_op"], p.layers["pool.resumes_per_op"]
	p.checks = []check{
		{"pool.resets_per_op = 0", resets == 0, fmt.Sprintf("pool.resets_per_op = %.3f", resets)},
		{"resumes ≈ requests", resumes > 0.95 && resumes < 1.05, fmt.Sprintf("pool.resumes_per_op = %.3f", resumes)},
	}
	return p, nil
}

// loadLayers fills the open-loop generator metrics.
func loadLayers(m map[string]float64, open *loadResult) {
	m["loadgen.late_p99_ms"] = percentile(sortedMS(open.late), 99)
	m["loadgen.achieved_rps"] = open.achieved()
}

// counters reads the daemon's counters.
func (s *serveDecode) counters() counters {
	var c counters
	c.addServer(s.d.srv.MetricsSnapshot())
	return c.withMallocs()
}
