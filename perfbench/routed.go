package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"time"

	"vxa"
	"vxa/internal/router"
	"vxa/internal/server"
)

// routedArchivesPerKind is how many archives each of the three writer
// configurations contributes to the routed request pool.
const routedArchivesPerKind = 48

// The routed load runs in rounds of routedBatch requests, a multiple
// of numRoutedKinds, one round every routedSlot: 100 requests/s, about
// half the closed-loop capacity of two clients on the 2-core host it
// was set on.
const (
	routedBatch = 6
	routedSlot  = 60 * time.Millisecond
)

// routedReq is one /v1/extract request of the routed pool.
type routedReq struct {
	archive   []byte
	entry     string
	want      []byte
	decodeAll bool
	lossy     bool // written with AllowLossy; expected to fail today
	codec     string
	index     int         // entry index within the archive
	reader    *vxa.Reader // the archive opened in-process, for the native reference
}

// serveRouted drives /v1/extract through an in-process vxrouter over
// two in-process vxad shards, in paced rounds of nproc closed-loop
// clients.
type serveRouted struct {
	env
	pool   []routedReq
	seq    []int
	shards []*vxad
	rt     *router.Router
	front  *httptest.Server
	client *http.Client
	sw     traceSwitch
}

// routedKinds are the three ways the routed pool's archives are
// written; one in three requests is lossy.
const (
	routedLossless = iota // default writer options
	routedLossy           // AllowLossy, as vxzip -lossy writes
	routedPre             // pre-encoded streams, extracted with decode_all=1
	numRoutedKinds
)

// routedCodecs are the codecs whose raw inputs (or, for routedPre,
// encoded streams) each archive kind holds: for routedLossless the
// writer's own lossless choice for text, BMP and WAV; for routedLossy
// the lossy codecs it picks for BMP and WAV.
var routedCodecs = [numRoutedKinds][]string{
	routedLossless: {"deflate", "dct", "lpc"},
	routedLossy:    {"dct", "adpcm"},
	routedPre:      {"haar", "dct", "adpcm"},
}

// routedEntry makes one entry of an archive of the given kind from
// about n raw bytes of the codec's input: the bytes to archive and the
// reference output of extracting it.
func routedEntry(kind int, codecName string, n int, seed int64) (data, want []byte, err error) {
	c, err := mustCodec(codecName)
	if err != nil {
		return nil, nil, err
	}
	raw := rawFor(c, n, seed)
	switch kind {
	case routedLossless:
		return raw, raw, nil
	case routedLossy:
		// The writer picks the lossy codec itself; a correct extraction
		// would return what the codec's native decoder makes of it.
		st, err := encodeStream(c, raw)
		return raw, st.want, err
	}
	st, err := encodeStream(c, raw)
	return st.enc, st.want, err
}

// kindTriples is the request order over a pool that holds perKind
// requests of each kind, kind by kind. It runs in groups of
// numRoutedKinds, one request of each kind in seeded order, so every
// aligned run of numRoutedKinds×k requests holds exactly k lossy ones:
// a phase's failure count is fixed by its length, whatever the seed.
func kindTriples(rng *rand.Rand, perKind int) []int {
	perms := make([][]int, numRoutedKinds)
	for kind := range perms {
		perms[kind] = rng.Perm(perKind)
	}
	var seq []int
	for t := 0; t < perKind; t++ {
		for _, kind := range rng.Perm(numRoutedKinds) {
			seq = append(seq, kind*perKind+perms[kind][t])
		}
	}
	return seq
}

// nativeTime times one in-process NativeFirst extraction of pool
// request qi's entry: the native reference for vx_slowdown.
func (s *serveRouted) nativeTime(qi int) (time.Duration, error) {
	q := s.pool[qi]
	t0 := time.Now()
	_, err := q.reader.ExtractTo(context.Background(), &q.reader.Entries()[q.index], io.Discard, vxa.WithMode(vxa.NativeFirst), vxa.WithDecodeAll(q.decodeAll))
	if err != nil {
		return 0, fmt.Errorf("serve-extract-routed: native extraction of %s: %w", q.entry, err)
	}
	return time.Since(t0), nil
}

func (s *serveRouted) setup() error {
	rng := rand.New(rand.NewSource(s.seed))
	for kind := 0; kind < numRoutedKinds; kind++ {
		names := routedCodecs[kind]
		// The requested entries cycle through the kind's codecs and have
		// stratified log-uniform sizes in ascending order, so every codec
		// gets an even share of every size band, whatever the seed.
		sizes := logSizes(rng, routedArchivesPerKind, 512, 4<<10)
		sort.Ints(sizes)
		for a := 0; a < routedArchivesPerKind; a++ {
			var buf bytes.Buffer
			w := vxa.NewWriter(&buf, vxa.WriterOptions{AllowLossy: kind == routedLossy})
			var wants [][]byte
			entries := 1 + rng.Intn(4)
			k := rng.Intn(entries)
			for e := 0; e < entries; e++ {
				codecName, n := names[rng.Intn(len(names))], 512+rng.Intn(7<<9)
				if e == k {
					codecName, n = names[a%len(names)], sizes[a]
				}
				data, want, err := routedEntry(kind, codecName, n, s.seed*100000+int64(kind*10000+a*4+e))
				if err != nil {
					return err
				}
				if err := w.AddFile(fmt.Sprintf("e%d", e), data, 0o644); err != nil {
					return err
				}
				wants = append(wants, want)
			}
			if err := w.Close(); err != nil {
				return err
			}
			req := routedReq{archive: buf.Bytes(), entry: fmt.Sprintf("e%d", k), index: k, want: wants[k],
				decodeAll: kind == routedPre, lossy: kind == routedLossy}
			r, err := vxa.OpenReader(req.archive)
			if err != nil {
				return err
			}
			req.codec, req.reader = r.Entries()[k].Codec, r
			s.pool = append(s.pool, req)
		}
	}
	s.seq = kindTriples(rng, routedArchivesPerKind)
	var backends []string
	for i := 0; i < 2; i++ {
		v := startVxadAt(fmt.Sprintf("127.0.0.1:%d", 47301+i), server.Config{ShardID: fmt.Sprintf("s%d", i)}, &s.sw, spanShard, spanRouter)
		s.shards = append(s.shards, v)
		backends = append(backends, v.ts.Listener.Addr().String())
	}
	rt, err := router.New(router.Config{Backends: backends})
	if err != nil {
		return err
	}
	s.rt = rt
	s.front = httptest.NewServer(s.sw.wrap(spanRouter, spanClient, "", rt))
	s.client = newClient(s.nproc)
	// Prime every decoder line on both shards with nproc+1 concurrent
	// requests (the in-flight cap plus a hedge), so a hedge finds a warm
	// line and parked VMs instead of building them, and their memory,
	// during timing. The request through the router confirms the known
	// lossy defect before timing starts.
	primed := map[string]bool{}
	for i, q := range s.pool {
		key := fmt.Sprintf("%s/%v/%v", q.codec, q.lossy, q.decodeAll)
		if primed[key] {
			continue
		}
		primed[key] = true
		for _, v := range s.shards {
			var wg sync.WaitGroup
			for c := 0; c <= s.nproc; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					post(s.client, v.ts.URL+q.path(), q.archive, q.want, 0)
				}()
			}
			wg.Wait()
		}
		if k, _ := s.do(i, nil); k == kindWrongBytes || (k == "") == q.lossy {
			return fmt.Errorf("serve-extract-routed: priming request %d (codec %s, lossy=%v): outcome %q", i, q.codec, q.lossy, k)
		}
	}
	return nil
}

func (s *serveRouted) close() {
	s.front.Close()
	s.rt.Close()
	for _, v := range s.shards {
		v.close()
	}
	s.client.CloseIdleConnections()
	for _, q := range s.pool {
		q.reader.Close()
	}
}

// path is the request's /v1/extract path and query.
func (q routedReq) path() string {
	p := "/v1/extract?entry=" + q.entry
	if q.decodeAll {
		p += "&decode_all=1"
	}
	return p
}

// do sends pool request i through the router.
func (s *serveRouted) do(i int, tr *tracer) (string, int) {
	q := s.pool[i]
	id := tr.nextID()
	t0 := time.Now()
	res := post(s.client, s.front.URL+q.path(), q.archive, q.want, id)
	tr.record(span{Name: spanClient, ID: id, Start: t0, End: time.Now(), Shard: res.shard, Label: q.codec})
	return res.kind, res.n
}

// counters sums both shards.
func (s *serveRouted) counters() counters {
	var c counters
	for _, v := range s.shards {
		c.addServer(v.srv.MetricsSnapshot())
	}
	return c.withMallocs()
}

func (s *serveRouted) run(d time.Duration, tr *tracer) (*phase, error) {
	s.sw.p.Store(tr)
	defer s.sw.p.Store(nil)
	rng := rand.New(rand.NewSource(s.seed + int64(d)))
	c0 := s.counters()
	m0, err := routerMetrics(s.client, s.front.URL)
	if err != nil {
		return nil, err
	}
	start := numRoutedKinds * rng.Intn(routedArchivesPerKind)
	// After each round, in the idle rest of its slot, the entries of the
	// round's successful requests are extracted natively in-process, once
	// each. The native reference is thus the same work as the served
	// requests, timed across the whole phase: sampled in one burst before
	// and one after the load, it moved by 25% from burst to burst.
	total := int(d/routedSlot) * routedBatch
	served := make([]bool, total)
	var nativeSum time.Duration
	var nativeErr error
	load := pacedLoop(total/routedBatch, routedSlot, routedBatch, s.nproc, func(i int) (string, int) {
		kind, n := s.do(s.seq[(start+i)%len(s.seq)], tr)
		served[i] = kind == ""
		return kind, n
	}, func(first, end int) {
		for i := first; i < end && nativeErr == nil; i++ {
			if served[i] {
				t, err := s.nativeTime(s.seq[(start+i)%len(s.seq)])
				nativeSum += t
				nativeErr = err
			}
		}
	})
	if nativeErr != nil {
		return nil, nativeErr
	}
	delta := s.counters().minus(c0)
	m1, err := routerMetrics(s.client, s.front.URL)
	if err != nil {
		return nil, err
	}
	p := &phase{layers: map[string]float64{}, lat: load.lat, open: load}
	p.tally.merge(&load.tally)
	// Rates are taken over the time the rounds had requests outstanding:
	// the capacity of nproc closed-loop clients, not the paced rate.
	p.throughput = ratio(float64(load.tally.ok), load.busy.Seconds())
	p.mbps = ratio(float64(load.bytes)/1e6, load.busy.Seconds())
	// Total latency of the successful requests over the total native
	// time of the same entries. A median of either side would land
	// between the clusters of the codecs' very different native costs,
	// and which side of a gap it fell on changed with the seed.
	var latSum time.Duration
	for _, l := range load.lat {
		latSum += l
	}
	p.slowdown = ratio(float64(latSum), float64(nativeSum))

	ops := load.tally.sent
	commonLayers(p.layers, delta, ops, load.bytes)
	loadLayers(p.layers, load)
	p.layers["router.hedges"] = float64(m1.Hedges - m0.Hedges)
	p.layers["router.retries"] = float64(m1.Retries - m0.Retries)
	// Attempts the router launched per client request, from its own
	// counters; the traced run also counts them as shard spans.
	attemptsPerOp := ratio(float64(m1.Requests-m0.Requests), float64(ops))
	if tr != nil {
		spans := tr.snapshot()
		shardSpans := byName(spans, spanShard)
		serverLayers(p.layers, delta, shardSpans)
		self, attempts := routedJoin(spans)
		p.layers["router.self_ms"] = median(sortedMS(self))
		p.layers["router.attempts_per_op"] = ratio(float64(attempts), float64(len(byName(spans, spanClient))))
		p.layers["http.client_ms"] = median(sortedMS(clientMinusHandler(spans, spanRouter)))
	}
	lat := sortedMS(load.lat)
	tail, pct := tailOf(lat)
	p.named = []named{
		{"extract_p50_ms", median(lat), "ms"},
		{"extract_tail_ms", tail, fmt.Sprintf("ms (p%g of %d samples)", pct, len(lat))},
		{"extract_capacity_rps", p.throughput, "req/s (successful)"},
	}
	// Every request must get a pristine VM: a parked one rewound (a
	// reset) or, when concurrent requests outnumber the decoder's parked
	// VMs, a fresh one built from the snapshot.
	pristine := ratio(float64(delta.pool.Resets+delta.pool.Builds), float64(ops))
	p.checks = []check{
		{"(pool resets + builds) per request >= 1", pristine >= 1, fmt.Sprintf("pool.resets_per_op = %.3f, pool.builds = %d", p.layers["pool.resets_per_op"], delta.pool.Builds)},
		{"router attempts per request >= 1", attemptsPerOp >= 1, fmt.Sprintf("%.3f attempts per request", attemptsPerOp)},
	}
	return p, nil
}
