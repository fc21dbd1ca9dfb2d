// Command perfbench is the repository benchmark. It builds its inputs
// from a seed, drives one workload in-process through the public APIs
// of vxa/core, vxad (internal/server), vxrouter (internal/router), the
// artifact store and vxcc, checks every output against a reference the
// code under test did not produce, and prints its metrics. The last
// line of standard output is one JSON object:
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// Untraced runs (-trace 0) report the end-to-end metrics; traced runs
// (-trace 1) record spans around every layer boundary and report the
// per-layer metrics. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	_ "vxa" // registers the codec set
)

// procStart approximates process start for the first set-up's timing.
var procStart = time.Now()

// setupRounds is how many times a run sets its workload up; setup_s is
// the median.
const setupRounds = 3

// env is what every workload is built from.
type env struct {
	seed       int64
	nproc      int
	dir        string // scratch directory inside the checkout
	decodeRate float64
}

// named is a workload's own headline metric, printed by name.
type named struct {
	name  string
	value float64
	unit  string
}

// check is a workload self-check: the mechanism the workload exists
// for must have run.
type check struct {
	name   string
	ok     bool
	detail string
}

// phase is one measured interval of a workload.
type phase struct {
	lat        []time.Duration // successful operation latencies
	open       *loadResult     // the rate-driven (open-loop or paced) phase, when the workload has one
	throughput float64         // successful operations per second
	mbps       float64         // verified decoded MB per second
	slowdown   float64         // sandboxed path time ÷ native path time for the same work
	tally      tally
	layers     map[string]float64
	named      []named
	checks     []check
	notes      []string
}

type workload interface {
	setup() error
	run(d time.Duration, tr *tracer) (*phase, error)
	close()
}

var workloads = map[string]func(env) workload{
	"extract-bulk":         func(e env) workload { return &extractBulk{env: e} },
	"serve-decode":         func(e env) workload { return &serveDecode{env: e} },
	"serve-extract-routed": func(e env) workload { return &serveRouted{env: e} },
	"restart":              func(e env) workload { return &restart{env: e} },
}

func main() {
	name := flag.String("workload", "", "workload to run")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
	decodeRate := flag.Float64("decode-rate", 75, "serve-decode open-loop rate, requests/s")
	flag.Parse()
	mk, ok := workloads[*name]
	if !ok || *seconds < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q or bad -seconds\n", *name)
		os.Exit(2)
	}
	if err := run(mk, *name, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *decodeRate); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(mk func(env) workload, name string, seed int64, d time.Duration, traced bool, decodeRate float64) error {
	rss := startRSSSampler()
	defer rss.stopSampling()
	root, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(root)
	nproc := runtime.NumCPU()
	// One P more than CPUs: guest code in compiled traces is not
	// preemptible, so with GOMAXPROCS = nproc a stream on every P would
	// stall the load generator until one finished, and its lateness would
	// dominate the latency figures. Streams stay capped at nproc.
	runtime.GOMAXPROCS(nproc + 1)
	fmt.Printf("workload %s  seed %d  nproc %d  GOMAXPROCS %d  %s  traced %v\n",
		name, seed, nproc, runtime.GOMAXPROCS(0), runtime.Version(), traced)

	var setups []float64
	var w workload
	for i := 0; i < setupRounds; i++ {
		t0 := time.Now()
		if i == 0 {
			t0 = procStart
		}
		dir := filepath.Join(root, strconv.Itoa(i))
		if err := os.Mkdir(dir, 0o755); err != nil {
			return err
		}
		cand := mk(env{seed: seed, nproc: nproc, dir: dir, decodeRate: decodeRate})
		if err := cand.setup(); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < setupRounds-1 {
			cand.close()
			// Let the discarded set-up's guest memory go before the next.
			runtime.GC()
		} else {
			w = cand
		}
	}
	defer w.close()
	// Memory is reported for the measured run, not the repeated set-ups.
	rss.peak.Store(0)

	var p, base *phase
	var tr *tracer
	if traced {
		// The untraced first half is the baseline for the overhead.
		if base, err = w.run(d/2, nil); err != nil {
			return err
		}
		tr = &tracer{}
		if p, err = w.run(d/2, tr); err != nil {
			return err
		}
		p.tally.merge(&base.tally)
		if err := tr.writeFile(filepath.Join(".bench_build", fmt.Sprintf("trace-%s-seed%d.jsonl", name, seed))); err != nil {
			return err
		}
	} else if p, err = w.run(d, nil); err != nil {
		return err
	}

	lat := sortedMS(p.lat)
	tail, pct := tailOf(lat)
	okPct := 100 * ratio(float64(p.tally.ok), float64(p.tally.sent))
	e2e := map[string]float64{
		"setup_s":          medianOf(setups),
		"p50_ms":           median(lat),
		"tail_ms":          tail,
		"throughput_per_s": p.throughput,
		"mbps":             p.mbps,
		"vx_slowdown":      p.slowdown,
		"ok_pct":           okPct,
		"peak_rss_mb":      rss.peakMB(),
	}

	fmt.Printf("operations: sent %d, succeeded %d, failed %d", p.tally.sent, p.tally.ok, p.tally.failed())
	for _, k := range failKinds {
		fmt.Printf(", %s %d", k, p.tally.fails[k])
	}
	fmt.Println()
	fmt.Printf("latency: %d samples, tail is p%g\n", len(lat), pct)
	for _, m := range endToEnd {
		fmt.Printf("  %-22s %12.4f %s\n", m.name, e2e[m.name], m.unit)
	}
	fmt.Printf("  %-22s %12.4f %%\n", "failed_pct", 100-okPct)
	for _, m := range p.named {
		fmt.Printf("  %-22s %12.4f %s\n", m.name, m.value, m.unit)
	}
	if o := p.open; o != nil {
		late := sortedMS(o.late)
		fmt.Printf("load: offered %.2f/s, achieved %.2f/s, send lateness p50 %.3f ms, p99 %.3f ms\n",
			o.offered, o.achieved(), median(late), percentile(late, 99))
		for _, f := range o.flags {
			fmt.Println("FLAGGED:", f)
		}
	}
	for _, n := range p.notes {
		fmt.Println("NOTE:", n)
	}
	correct := p.tally.fails[kindWrongBytes] == 0
	if !correct {
		fmt.Println("WRONG BYTES:", p.tally.firstWrong)
	}
	for _, c := range p.checks {
		status := "ok"
		if !c.ok {
			status = "FAILED"
			correct = false
		}
		fmt.Printf("self-check %-45s %s (%s)\n", c.name, status, c.detail)
	}

	metrics := map[string]any{}
	if traced {
		layers := p.layers
		layers["vxcc.text_bytes"] = textBytes()
		layers["trace.overhead_pct"] = 100 * (ratio(median(lat), median(sortedMS(base.lat))) - 1)
		names := make([]string, 0, len(perLayer))
		for _, m := range perLayer {
			names = append(names, m.name)
			metrics[m.name] = map[string]any{"value": layers[m.name], "unit": m.unit}
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Printf("  %-34s %14.4f\n", n, layers[n])
		}
	} else {
		for _, m := range endToEnd {
			metrics[m.name] = map[string]any{"value": e2e[m.name], "unit": m.unit}
		}
	}
	out, err := json.Marshal(map[string]any{
		"correct":   correct,
		"attempted": p.tally.sent,
		"failed":    p.tally.failed(),
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	if !correct {
		return fmt.Errorf("run is not correct")
	}
	return nil
}

// textBytes sums user and runtime text over the six decoder builds.
func textBytes() float64 {
	var n uint32
	for _, name := range paperCodecs {
		c, err := mustCodec(name)
		if err != nil {
			continue
		}
		if b, err := c.Build(); err == nil {
			n += b.UserTextBytes + b.RuntimeTextBytes
		}
	}
	return float64(n)
}

// rssSampler tracks the peak anonymous resident memory of the process:
// the Go heap and stacks plus guest memory, which is mapped outside the
// heap. File-backed mappings are left out: artifact images are shared
// page-cache pages, and a store opened again maps them again, so they
// would be counted once per open.
type rssSampler struct {
	peak atomic.Int64 // kB
	stop chan struct{}
	done chan struct{}
}

func startRSSSampler() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			s.sample()
			select {
			case <-s.stop:
				s.sample()
				return
			case <-t.C:
			}
		}
	}()
	return s
}

func (s *rssSampler) sample() {
	kb := rssAnonKB()
	for cur := s.peak.Load(); kb > cur && !s.peak.CompareAndSwap(cur, kb); cur = s.peak.Load() {
	}
}

// peakMB takes a last sample and returns the peak in MB.
func (s *rssSampler) peakMB() float64 {
	s.sample()
	return float64(s.peak.Load()) / 1024
}

// stopSampling stops the sampler and waits for it to exit.
func (s *rssSampler) stopSampling() {
	close(s.stop)
	<-s.done
}

// rssAnonKB reads RssAnon from /proc/self/status (0 where absent).
func rssAnonKB() int64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "RssAnon:"); ok {
			kb, _ := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
			return kb
		}
	}
	return 0
}
