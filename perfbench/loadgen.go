package main

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// request sends operation i and returns its failure kind ("" on
// success) and the verified bytes it delivered.
type request func(i int) (kind string, n int)

// arrivals pre-draws a Poisson arrival schedule at rate per second
// over d, so the dispatch loop does no arithmetic under time pressure.
func arrivals(rng *rand.Rand, rate float64, d time.Duration) []time.Duration {
	var out []time.Duration
	for t := time.Duration(0); ; {
		t += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		if t >= d {
			return out
		}
		out = append(out, t)
	}
}

// loadResult is one load phase as the client saw it.
type loadResult struct {
	lat     []time.Duration // successful requests, timed from their scheduled send
	late    []time.Duration // actual send minus scheduled send, every request
	tally   tally
	bytes   int64         // verified bytes delivered
	elapsed time.Duration // phase start to last completion
	busy    time.Duration // time with requests outstanding (paced loops)
	offered float64       // scheduled sends per second
	flags   []string      // generator-health warnings
}

// merge adds the samples and counts of o, a later chunk of the same
// phase, to r. Flags are left to the caller, over the merged phase.
func (r *loadResult) merge(o *loadResult) {
	r.lat = append(r.lat, o.lat...)
	r.late = append(r.late, o.late...)
	r.tally.merge(&o.tally)
	r.bytes += o.bytes
	r.elapsed += o.elapsed
	r.busy += o.busy
}

func (r *loadResult) achieved() float64 {
	return ratio(float64(r.tally.sent), r.elapsed.Seconds())
}

// openLoop sends request i at offsets[i] after the phase starts, with
// at most maxInFlight requests outstanding. Latency runs from the
// scheduled send, so a stall that delays later sends is counted in
// them. When the in-flight cap is full the dispatcher waits, and the
// wait shows as lateness.
func openLoop(offsets []time.Duration, d time.Duration, maxInFlight int, do request) *loadResult {
	res := &loadResult{offered: float64(len(offsets)) / d.Seconds(), late: make([]time.Duration, len(offsets))}
	sem := make(chan struct{}, maxInFlight)
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for i, off := range offsets {
		sched := start.Add(off)
		if w := time.Until(sched); w > 0 {
			time.Sleep(w)
		}
		sem <- struct{}{}
		res.late[i] = time.Since(sched)
		wg.Add(1)
		go func(i int, sched time.Time) {
			defer wg.Done()
			defer func() { <-sem }()
			kind, n := do(i)
			done := time.Now()
			res.tally.add(kind, "request", i)
			if kind == "" {
				mu.Lock()
				res.lat = append(res.lat, done.Sub(sched))
				res.bytes += int64(n)
				mu.Unlock()
			}
		}(i, sched)
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	res.flags = loadFlags(res.late, res.offered, res.achieved())
	return res
}

// loadFlags reports when a rate-driven phase is not a normal sample: the
// generator sent well below the offered rate, or the in-flight cap
// stayed saturated so the backlog grew: the median send lateness of the
// last quarter of the phase exceeds 50 ms and twice that of the first.
func loadFlags(late []time.Duration, offered, achieved float64) []string {
	var flags []string
	if achieved < 0.95*offered {
		flags = append(flags, fmt.Sprintf("generator behind: achieved %.1f/s of %.1f/s offered", achieved, offered))
	}
	q := len(late) / 4
	if q == 0 {
		return flags
	}
	first := median(sortedMS(late[:q]))
	last := median(sortedMS(late[len(late)-q:]))
	if last > 50 && last > 2*first {
		flags = append(flags, fmt.Sprintf("backlog grew: median send lateness %.2f ms in the first quarter, %.2f ms in the last", first, last))
	}
	return flags
}

// closedLoopN runs clients until n requests have been sent.
func closedLoopN(n, clients int, do request) *loadResult {
	res := &loadResult{}
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				kind, _ := do(i)
				res.tally.add(kind, "request", i)
			}
		}()
	}
	wg.Wait()
	return res
}

// closedLoop runs clients that each send their next request as soon as
// the previous one completes, until d has passed. Requests are drawn in
// order from the shared sequence counter.
func closedLoop(d time.Duration, clients int, do request) *loadResult {
	res := &loadResult{}
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				t0 := time.Now()
				kind, n := do(i)
				dt := time.Since(t0)
				res.tally.add(kind, "request", i)
				if kind == "" {
					mu.Lock()
					res.lat = append(res.lat, dt)
					res.bytes += int64(n)
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	return res
}

// pacedLoop sends rounds×batch requests: one round of batch requests
// starts every slot, and within a round clients send closed loop until
// the batch is done. A round that overruns its slot delays the next
// rather than shortening the phase, so the phase always sends the same
// number of requests, whatever the host's speed. Latency runs from each
// request's actual send, and late holds each round's start lateness.
// after, when not nil, runs once each round is done, with the round's
// request indices [first, end), before the next round's slot begins.
func pacedLoop(rounds int, slot time.Duration, batch, clients int, do request, after func(first, end int)) *loadResult {
	res := &loadResult{offered: float64(batch) / slot.Seconds(), late: make([]time.Duration, rounds)}
	var mu sync.Mutex
	start := time.Now()
	for r := 0; r < rounds; r++ {
		sched := start.Add(time.Duration(r) * slot)
		if w := time.Until(sched); w > 0 {
			time.Sleep(w)
		}
		res.late[r] = time.Since(sched)
		t0 := time.Now()
		var next atomic.Int64
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := int(next.Add(1) - 1); k < batch; k = int(next.Add(1) - 1) {
					i := r*batch + k
					t0 := time.Now()
					kind, n := do(i)
					dt := time.Since(t0)
					res.tally.add(kind, "request", i)
					if kind == "" {
						mu.Lock()
						res.lat = append(res.lat, dt)
						res.bytes += int64(n)
						mu.Unlock()
					}
				}
			}()
		}
		wg.Wait()
		res.busy += time.Since(t0)
		if after != nil {
			after(r*batch, (r+1)*batch)
		}
	}
	res.elapsed = time.Since(start)
	res.flags = loadFlags(res.late, res.offered, res.achieved())
	return res
}
