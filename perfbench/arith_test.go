package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"sync"
	"testing"
	"time"
)

func TestTailPicksHighestPercentileWithTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	cases := []struct {
		n       int
		wantPct float64
		wantVal float64
	}{
		{5, 100, 5},     // too few samples for any ladder step: the maximum
		{19, 100, 19},   // p50 has 9 beyond
		{20, 50, 10},    // p50 has exactly 10 beyond
		{40, 75, 30},    // p75 has 10 beyond, p90 only 4
		{1000, 99, 990}, // p99 has 10 beyond, p99.9 only 1
		{1009, 99, 999}, // p99 rank 999 leaves 10
		{10000, 99.9, 9990},
	}
	for _, c := range cases {
		v, p := tailOf(seq(c.n))
		if p != c.wantPct || v != c.wantVal {
			t.Errorf("n=%d: tail p%g = %g, want p%g = %g", c.n, p, v, c.wantPct, c.wantVal)
		}
	}
	if v, p := tailOf(nil); v != 0 || p != 0 {
		t.Errorf("empty: got p%g = %g", p, v)
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	parent := span{Start: at(0), End: at(100)}
	children := []span{
		{Start: at(10), End: at(40)},
		{Start: at(30), End: at(50)},  // overlaps the first: union 10..50
		{Start: at(45), End: at(48)},  // inside the union
		{Start: at(90), End: at(120)}, // clipped to the parent: 90..100
		{Start: at(-5), End: at(5)},   // clipped: 0..5
	}
	if got, want := selfTime(parent, children), 45*time.Millisecond; got != want {
		t.Errorf("self time %v, want %v", got, want)
	}
	if got := selfTime(parent, nil); got != 100*time.Millisecond {
		t.Errorf("no children: self time %v, want 100ms", got)
	}
}

func TestRoutedJoinPicksWinningShardWithHedgePresent(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	spans := []span{
		// Request 1: primary on s0 is slow, the hedge on s1 wins.
		{Name: spanClient, ID: 1, Start: at(0), End: at(60), Shard: "s1"},
		{Name: spanRouter, ID: 1, Start: at(1), End: at(58)},
		{Name: spanShard, ID: 1, Start: at(2), End: at(57), Shard: "s0", Status: 200},
		{Name: spanShard, ID: 1, Start: at(20), End: at(50), Shard: "s1", Status: 200},
		// Request 2: no hedge.
		{Name: spanClient, ID: 2, Start: at(100), End: at(130), Shard: "s0"},
		{Name: spanRouter, ID: 2, Start: at(101), End: at(129)},
		{Name: spanShard, ID: 2, Start: at(103), End: at(125), Shard: "s0", Status: 200},
		// Request 3: a failed first attempt and a retry on the same shard.
		{Name: spanClient, ID: 3, Start: at(200), End: at(240), Shard: "s1"},
		{Name: spanRouter, ID: 3, Start: at(201), End: at(239)},
		{Name: spanShard, ID: 3, Start: at(202), End: at(205), Shard: "s1", Status: 503},
		{Name: spanShard, ID: 3, Start: at(215), End: at(235), Shard: "s1", Status: 200},
		// Untraced spans (id 0) never join.
		{Name: spanShard, ID: 0, Start: at(0), End: at(1), Shard: "s0"},
	}
	self, attempts := routedJoin(spans)
	want := []time.Duration{27 * time.Millisecond, 6 * time.Millisecond, 18 * time.Millisecond}
	if len(self) != len(want) {
		t.Fatalf("joined %d requests, want %d", len(self), len(want))
	}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("request %d: router self %v, want %v", i+1, self[i], want[i])
		}
	}
	if attempts != 5 {
		t.Errorf("attempts %d, want 5", attempts)
	}
}

func TestKindTriplesFixLossyShare(t *testing.T) {
	const perKind = 48
	for seed := int64(1); seed <= 5; seed++ {
		seq := kindTriples(rand.New(rand.NewSource(seed)), perKind)
		if len(seq) != numRoutedKinds*perKind {
			t.Fatalf("seed %d: %d requests, want %d", seed, len(seq), numRoutedKinds*perKind)
		}
		seen := map[int]bool{}
		for _, q := range seq {
			seen[q] = true
		}
		if len(seen) != len(seq) {
			t.Fatalf("seed %d: the sequence repeats a request", seed)
		}
		// Any aligned window, wrapping round the sequence as the run
		// does, holds one lossy request per group of kinds.
		for start := 0; start < len(seq); start += numRoutedKinds {
			lossy := 0
			for i := 0; i < 600; i++ {
				if seq[(start+i)%len(seq)]/perKind == routedLossy {
					lossy++
				}
			}
			if lossy != 200 {
				t.Fatalf("seed %d, start %d: %d lossy of 600, want 200", seed, start, lossy)
			}
		}
	}
}

func TestPacedLoopSendsFixedCount(t *testing.T) {
	var mu sync.Mutex
	sent := map[int]int{}
	var rounds [][2]int
	res := pacedLoop(5, time.Millisecond, 6, 2, func(i int) (string, int) {
		mu.Lock()
		sent[i]++
		mu.Unlock()
		if i%3 == 1 {
			return kindNoResponse, 0
		}
		return "", 10
	}, func(first, end int) { rounds = append(rounds, [2]int{first, end}) })
	if len(sent) != 30 {
		t.Errorf("%d distinct requests sent, want 30", len(sent))
	}
	for i, n := range sent {
		if i < 0 || i >= 30 || n != 1 {
			t.Errorf("request %d sent %d times", i, n)
		}
	}
	if res.tally.sent != 30 || res.tally.failed() != 10 || len(res.lat) != 20 || res.bytes != 200 {
		t.Errorf("tally sent %d failed %d, %d latencies, %d bytes", res.tally.sent, res.tally.failed(), len(res.lat), res.bytes)
	}
	for r, fe := range rounds {
		if fe != [2]int{6 * r, 6*r + 6} {
			t.Errorf("round %d: after got %v", r, fe)
		}
	}
	if len(rounds) != 5 || res.busy <= 0 || res.busy > res.elapsed {
		t.Errorf("%d rounds, busy %v of %v", len(rounds), res.busy, res.elapsed)
	}
}

func TestBenchmarkJSONMatchesReportedMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, program reports %d", kind, len(got), len(want))
		}
		for i, m := range want {
			if g := got[i]; g.Name != m.name || g.Unit != m.unit || g.Better != m.better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, program reports %+v", kind, i, g, m)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
	for _, w := range doc.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %q has no implementation", w.Name)
		}
	}
	if len(doc.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, program has %d", len(doc.Workloads), len(workloads))
	}
}
