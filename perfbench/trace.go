package main

import (
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// idHeader carries the benchmark's request id. The router clones request
// headers onto every attempt, so shard spans of a routed request, hedged
// duplicates included, share the id of the client span.
const idHeader = "X-Perfbench-Id"

// shardHeader is the response header vxad sets to its shard id.
const shardHeader = "X-Vxa-Shard"

// Span names, one per layer boundary the benchmark wraps.
const (
	spanClient  = "http.client"
	spanRouter  = "router"
	spanServer  = "server"
	spanShard   = "shard"
	spanOpen    = "core.open"
	spanEntry   = "core.entry"
	spanWrite   = "core.write" // the write stage core filled in, placed at the entry's start
	spanPrewarm = "artifact.prewarm"
	spanCompile = "vxcc.compile"
)

// span is one timed call into a layer. ID joins the spans of one
// request; Parent names the span that caused this one.
type span struct {
	Name   string    `json:"name"`
	ID     uint64    `json:"id"`
	Parent string    `json:"parent,omitempty"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
	Shard  string    `json:"shard,omitempty"`  // shard label: the serving shard, or the winner seen by the client
	Status int       `json:"status,omitempty"` // HTTP status written, when known
	Label  string    `json:"label,omitempty"`  // codec name or other grouping
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one pointer check per boundary.
type tracer struct {
	mu    sync.Mutex
	spans []span
	ids   atomic.Uint64
}

func (t *tracer) record(s span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// nextID mints a request id (0 when untraced).
func (t *tracer) nextID() uint64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeFile dumps every span as JSON lines.
func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// statusRecorder captures the status a wrapped handler writes.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (s *statusRecorder) WriteHeader(code int) {
	if s.status == 0 {
		s.status = code
	}
	s.ResponseWriter.WriteHeader(code)
}

func (s *statusRecorder) Write(p []byte) (int, error) {
	if s.status == 0 {
		s.status = http.StatusOK
	}
	return s.ResponseWriter.Write(p)
}

func (s *statusRecorder) Flush() {
	if f, ok := s.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// wrapHandler records a span named name around every request h serves.
// The span ends when h returns or panics (vxad aborts truncated streams
// with a panic, which is re-raised after recording).
func wrapHandler(t *tracer, name, parent, shard string, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, _ := strconv.ParseUint(r.Header.Get(idHeader), 10, 64)
		sr := &statusRecorder{ResponseWriter: w}
		start := time.Now()
		defer func() {
			t.record(span{Name: name, ID: id, Parent: parent, Start: start, End: time.Now(), Shard: shard, Status: sr.status})
		}()
		h.ServeHTTP(sr, r)
	})
}

// selfTime is parent's duration minus the part of it covered by the
// union of its children's intervals (clipped to the parent).
func selfTime(parent span, children []span) time.Duration {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, c := range children {
		a, b := c.Start, c.End
		if a.Before(parent.Start) {
			a = parent.Start
		}
		if b.After(parent.End) {
			b = parent.End
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var covered time.Duration
	var curA, curB time.Time
	for i, v := range ivs {
		switch {
		case i == 0:
			curA, curB = v.a, v.b
		case v.a.After(curB):
			covered += curB.Sub(curA)
			curA, curB = v.a, v.b
		case v.b.After(curB):
			curB = v.b
		}
	}
	if len(ivs) > 0 {
		covered += curB.Sub(curA)
	}
	return parent.dur() - covered
}

// routedJoin pairs each routed request's router span with the shard
// span that produced its answer: the one on the shard the client saw in
// the response (the client span's Shard), preferring a 200 and then the
// latest start when that shard served more than one attempt. It returns
// the router's own time per joined request (router span minus winning
// shard span) and the number of shard spans (attempts) seen.
func routedJoin(spans []span) (self []time.Duration, attempts int) {
	type group struct {
		client, router *span
		shards         []span
	}
	groups := map[uint64]*group{}
	get := func(id uint64) *group {
		g := groups[id]
		if g == nil {
			g = &group{}
			groups[id] = g
		}
		return g
	}
	for i := range spans {
		s := &spans[i]
		if s.ID == 0 {
			continue
		}
		switch s.Name {
		case spanClient:
			get(s.ID).client = s
		case spanRouter:
			get(s.ID).router = s
		case spanShard:
			get(s.ID).shards = append(get(s.ID).shards, *s)
			attempts++
		}
	}
	ids := make([]uint64, 0, len(groups))
	for id := range groups {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		g := groups[id]
		if g.client == nil || g.router == nil || g.client.Shard == "" {
			continue
		}
		var win *span
		for i := range g.shards {
			s := &g.shards[i]
			if s.Shard != g.client.Shard {
				continue
			}
			if win == nil || betterWinner(s, win) {
				win = s
			}
		}
		if win != nil {
			self = append(self, selfTime(*g.router, []span{*win}))
		}
	}
	return self, attempts
}

// betterWinner reports whether shard span s is a likelier answer than w:
// a 200 beats anything else, then the later attempt wins.
func betterWinner(s, w *span) bool {
	sOK, wOK := s.Status == http.StatusOK, w.Status == http.StatusOK
	if sOK != wOK {
		return sOK
	}
	return s.Start.After(w.Start)
}

// byName returns the spans with the given name.
func byName(spans []span, name string) []span {
	var out []span
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// durations lists the spans' durations.
func durations(spans []span) []time.Duration {
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		out[i] = s.dur()
	}
	return out
}

// clientMinusHandler is, per request, the client span minus the
// outermost handler span (name) with the same id: the HTTP client,
// loopback and connection handling the layers below never see.
func clientMinusHandler(spans []span, name string) []time.Duration {
	outer := map[uint64]span{}
	for _, s := range spans {
		if s.Name == name && s.ID != 0 {
			outer[s.ID] = s
		}
	}
	var out []time.Duration
	for _, s := range spans {
		if s.Name != spanClient {
			continue
		}
		if h, ok := outer[s.ID]; ok {
			out = append(out, s.dur()-h.dur())
		}
	}
	return out
}
