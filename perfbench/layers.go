package main

import (
	"encoding/json"
	"net/http"
	"runtime"

	"vxa/internal/artifact"
	"vxa/internal/obs"
	"vxa/internal/server"
	"vxa/internal/vm"
	"vxa/internal/vmpool"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics every untraced run reports. Each workload
// defines its own operation; see README.md for the mapping.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"p50_ms", "ms", "lower"},
	{"tail_ms", "ms", "lower"},
	{"throughput_per_s", "1/s", "higher"},
	{"mbps", "MB/s", "higher"},
	{"vx_slowdown", "ratio", "lower"},
	{"ok_pct", "%", "higher"},
	{"peak_rss_mb", "MB", "lower"},
}

// perCodec expands a metric into its all-codec and per-codec names.
func perCodec(name, unit, better string) []metricDef {
	out := []metricDef{{name, unit, better}}
	for _, c := range paperCodecs {
		out = append(out, metricDef{name + "." + c, unit, better})
	}
	return out
}

// perLayer are the metrics every traced run reports. A layer a workload
// bypasses reads 0.
var perLayer = concat(
	[]metricDef{
		{"vxcc.text_bytes", "bytes", "lower"},
		{"vxcc.compile_ms", "ms", "lower"},
	},
	perCodec("guest.steps_per_byte", "steps/B", "lower"),
	perCodec("vm.ns_per_step", "ns", "lower"),
	[]metricDef{
		{"vm.translate_ms_per_op", "ms", "lower"},
		{"vm.blocks_built_per_op", "count", "lower"},
	},
	perCodec("tier2.step_share", "ratio", "higher"),
	[]metricDef{
		{"tier2.compiled_per_op", "count", "lower"},
		{"tier2.demotions_per_op", "count", "lower"},
		{"pool.resets_per_op", "count", "lower"},
		{"pool.resumes_per_op", "count", "higher"},
		{"pool.builds", "count", "lower"},
		{"pool.lease_ms", "ms", "lower"},
		{"snapcache.hit_ratio", "ratio", "higher"},
		{"snapcache.bytes", "bytes", "lower"},
		{"artifact.prewarm_ms", "ms", "lower"},
		{"artifact.load_ms", "ms", "lower"},
		{"artifact.hits", "count", "higher"},
		{"artifact.fallbacks", "count", "lower"},
	},
	func() []metricDef {
		var out []metricDef
		for _, c := range paperCodecs {
			out = append(out, metricDef{"core.entry_ms." + c, "ms", "lower"})
		}
		return out
	}(),
	[]metricDef{
		{"core.open_ms", "ms", "lower"},
		{"core.write_ms", "ms", "lower"},
		{"host.allocs_per_op", "count", "lower"},
		{"server.handler_ms", "ms", "lower"},
		{"server.queue_ms", "ms", "lower"},
		{"server.snapshot_ms", "ms", "lower"},
		{"server.translate_ms", "ms", "lower"},
		{"server.execute_ms", "ms", "lower"},
		{"server.write_ms", "ms", "lower"},
		{"server.shed", "count", "lower"},
		{"server.unattributed_ms", "ms", "lower"},
		{"router.self_ms", "ms", "lower"},
		{"router.attempts_per_op", "count", "lower"},
		{"router.hedges", "count", "lower"},
		{"router.retries", "count", "lower"},
		{"http.client_ms", "ms", "lower"},
		{"loadgen.late_p99_ms", "ms", "lower"},
		{"loadgen.achieved_rps", "1/s", "higher"},
		{"trace.overhead_pct", "%", "lower"},
	},
)

func concat(parts ...[]metricDef) []metricDef {
	var out []metricDef
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// counters is a point-in-time reading of the counters the program
// exposes. Workloads sum readings over their caches and servers;
// deltas between two readings give the measured interval.
type counters struct {
	vm      vm.Stats
	pool    vmpool.Stats
	hits    uint64
	misses  uint64
	bytes   int64
	stages  map[string]obs.HistStats
	shed    uint64
	art     artifact.Stats
	mallocs uint64
}

// addCache adds a snapshot cache's counters.
func (c *counters) addCache(s vmpool.SnapCacheStats) {
	addVM(&c.vm, s.VM, 1)
	c.pool.Builds += s.Pool.Builds
	c.pool.Resets += s.Pool.Resets
	c.pool.Resumes += s.Pool.Resumes
	c.hits += s.Hits
	c.misses += s.Misses
	c.bytes += s.Bytes
}

// addServer adds a vxad instance's counters from its metrics snapshot.
func (c *counters) addServer(m server.Metrics) {
	c.addCache(m.Cache)
	if c.stages == nil {
		c.stages = map[string]obs.HistStats{}
	}
	for name, h := range m.Stages {
		cur := c.stages[name]
		cur.Count += h.Count
		cur.SumNS += h.SumNS
		c.stages[name] = cur
	}
	c.shed += m.Admission.Shed + m.Admission.ShedCold + m.Admission.Expired
	if m.ArtifactStore != nil {
		addArtifact(&c.art, *m.ArtifactStore, 1)
	}
}

// withMallocs records the process's allocation count.
func (c counters) withMallocs() counters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.mallocs = ms.Mallocs
	return c
}

// addVM adds sign*b to a.
func addVM(a *vm.Stats, b vm.Stats, sign int64) {
	f := func(x *uint64, y uint64) { *x = uint64(int64(*x) + sign*int64(y)) }
	f(&a.Steps, b.Steps)
	f(&a.BlocksBuilt, b.BlocksBuilt)
	f(&a.Tier2Compiled, b.Tier2Compiled)
	f(&a.Tier2Steps, b.Tier2Steps)
	f(&a.Tier2Demotions, b.Tier2Demotions)
	f(&a.TranslateNS, b.TranslateNS)
	f(&a.ExecuteNS, b.ExecuteNS)
}

// addArtifact adds sign*b to a.
func addArtifact(a *artifact.Stats, b artifact.Stats, sign int64) {
	a.Hits += sign * b.Hits
	a.Misses += sign * b.Misses
	a.Fallbacks += sign * b.Fallbacks
	a.LoadNanos += sign * b.LoadNanos
}

// minus returns c - o.
func (c counters) minus(o counters) counters {
	d := c
	addVM(&d.vm, o.vm, -1)
	d.pool.Builds -= o.pool.Builds
	d.pool.Resets -= o.pool.Resets
	d.pool.Resumes -= o.pool.Resumes
	d.hits -= o.hits
	d.misses -= o.misses
	d.shed -= o.shed
	addArtifact(&d.art, o.art, -1)
	d.mallocs -= o.mallocs
	d.stages = map[string]obs.HistStats{}
	for name, h := range c.stages {
		p := o.stages[name]
		d.stages[name] = obs.HistStats{Count: h.Count - p.Count, SumNS: h.SumNS - p.SumNS}
	}
	return d
}

// stageMS is the stage's time per operation over the interval, in ms.
func (c counters) stageMS(name string, ops int) float64 {
	return ratio(float64(c.stages[name].SumNS)/1e6, float64(ops))
}

// vmLayers fills the guest, vm and tier-2 metrics from a VM counter
// delta; suffix is "" for the all-codec figure or ".<codec>".
func vmLayers(m map[string]float64, suffix string, d vm.Stats, decoded int64) {
	m["guest.steps_per_byte"+suffix] = ratio(float64(d.Steps), float64(decoded))
	m["vm.ns_per_step"+suffix] = ratio(float64(d.ExecuteNS), float64(d.Steps))
	m["tier2.step_share"+suffix] = ratio(float64(d.Tier2Steps), float64(d.Steps))
}

// commonLayers fills the metrics every workload derives from a counter
// delta over ops operations that decoded `decoded` bytes.
func commonLayers(m map[string]float64, d counters, ops int, decoded int64) {
	vmLayers(m, "", d.vm, decoded)
	n := float64(ops)
	m["vm.translate_ms_per_op"] = ratio(float64(d.vm.TranslateNS)/1e6, n)
	m["vm.blocks_built_per_op"] = ratio(float64(d.vm.BlocksBuilt), n)
	m["tier2.compiled_per_op"] = ratio(float64(d.vm.Tier2Compiled), n)
	m["tier2.demotions_per_op"] = ratio(float64(d.vm.Tier2Demotions), n)
	m["pool.resets_per_op"] = ratio(float64(d.pool.Resets), n)
	m["pool.resumes_per_op"] = ratio(float64(d.pool.Resumes), n)
	m["pool.builds"] = float64(d.pool.Builds)
	m["snapcache.hit_ratio"] = ratio(float64(d.hits), float64(d.hits+d.misses))
	m["snapcache.bytes"] = float64(d.bytes)
	m["host.allocs_per_op"] = ratio(float64(d.mallocs), n)
	m["artifact.hits"] = float64(d.art.Hits)
	m["artifact.fallbacks"] = float64(d.art.Fallbacks)
	m["artifact.load_ms"] = ratio(float64(d.art.LoadNanos)/1e6, float64(d.art.Hits))
}

// serverLayers fills the vxad stage metrics. handler holds the wrapped
// handler spans of the interval; stage means are per handled request.
func serverLayers(m map[string]float64, d counters, handler []span) {
	n := len(handler)
	m["server.handler_ms"] = median(sortedMS(durations(handler)))
	stages := 0.0
	for _, st := range obs.Stages() {
		v := d.stageMS(st.String(), n)
		stages += v
		switch st {
		case obs.StageQueue, obs.StageSnapshot, obs.StageTranslate, obs.StageExecute, obs.StageWrite:
			m["server."+st.String()+"_ms"] = v
		case obs.StageLease:
			m["pool.lease_ms"] = v
		}
	}
	m["server.shed"] = float64(d.shed)
	m["server.unattributed_ms"] = mean(sortedMS(durations(handler))) - stages
}

// routerCounts are the router's /metrics counters the benchmark reads:
// attempts launched (its "requests"), hedges and retries.
type routerCounts struct {
	Requests uint64 `json:"requests"`
	Hedges   uint64 `json:"hedges"`
	Retries  uint64 `json:"retries"`
}

// routerMetrics reads the router's /metrics document.
func routerMetrics(c *http.Client, base string) (routerCounts, error) {
	var doc routerCounts
	resp, err := c.Get(base + "/metrics")
	if err != nil {
		return doc, err
	}
	defer resp.Body.Close()
	err = json.NewDecoder(resp.Body).Decode(&doc)
	return doc, err
}
