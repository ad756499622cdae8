package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"sort"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	var xs []time.Duration
	for i := 10; i >= 1; i-- {
		xs = append(xs, time.Duration(i))
	}
	for _, c := range []struct {
		p    float64
		want time.Duration
	}{{10, 1}, {50, 5}, {51, 6}, {90, 9}, {99, 10}, {100, 10}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("empty p50 = %v, want 0", got)
	}
	if got := percentile([]time.Duration{7}, 90); got != 7 {
		t.Errorf("single p90 = %v, want 7", got)
	}
}

func TestBacklog(t *testing.T) {
	dues := []time.Duration{0, 10, 20, 30}
	for _, c := range []struct {
		started int
		now     time.Duration
		want    int
	}{{1, 0, 0}, {1, 25, 2}, {3, 25, 0}, {4, 100, 0}, {0, 30, 4}} {
		if got := backlog(dues, c.started, c.now); got != c.want {
			t.Errorf("backlog(started=%d, now=%v) = %d, want %d", c.started, c.now, got, c.want)
		}
	}
}

// syntheticSchedule is n requests every step.
func syntheticSchedule(n int, step time.Duration) []slot {
	s := make([]slot, n)
	for i := range s {
		s[i].due = time.Duration(i) * step
	}
	return s
}

func TestOpenLoopUnderloadedHasNoLag(t *testing.T) {
	sched := syntheticSchedule(30, 20*time.Millisecond)
	st := openLoop(sched, 2, func(int, query) error {
		time.Sleep(500 * time.Microsecond)
		return nil
	})
	if len(st.samples) != len(sched) {
		t.Fatalf("%d samples, want %d", len(st.samples), len(sched))
	}
	var lags []time.Duration
	for _, s := range st.samples {
		if s.lat < s.lag+500*time.Microsecond {
			t.Errorf("latency %v shorter than lag %v plus service time", s.lat, s.lag)
		}
		lags = append(lags, s.lag)
	}
	// A late timer wake-up (a busy host, the race detector) may delay one
	// request; most must go out on time.
	if p := percentile(lags, 90); p > 5*time.Millisecond {
		t.Errorf("lag p90 = %v on an idle generator", p)
	}
	if st.maxBacklog > 2 {
		t.Errorf("max backlog = %d on an idle generator", st.maxBacklog)
	}
}

// An overloaded server must not make the generator drop or delay-and-
// forget ticks: every request is sent, and the wait shows in latency
// measured from the due time.
func TestOpenLoopOverloadedCountsWaitFromDueTime(t *testing.T) {
	const (
		n       = 20
		step    = 2 * time.Millisecond
		service = 6 * time.Millisecond
	)
	sched := syntheticSchedule(n, step)
	st := openLoop(sched, 1, func(int, query) error {
		time.Sleep(service)
		return nil
	})
	if len(st.samples) != n {
		t.Fatalf("%d samples, want %d: a tick was dropped", len(st.samples), n)
	}
	last := st.samples[n-1]
	// One worker: request i starts no earlier than i*service.
	minLag := time.Duration(n-1)*service - time.Duration(n-1)*step
	if last.lag < minLag {
		t.Errorf("last lag = %v, want >= %v", last.lag, minLag)
	}
	if last.lat < minLag+service {
		t.Errorf("last latency = %v, want >= %v", last.lat, minLag+service)
	}
	if st.maxBacklog < n/2 {
		t.Errorf("max backlog = %d, want >= %d", st.maxBacklog, n/2)
	}
}

func TestScheduleRatesAndPeerBalance(t *testing.T) {
	g := newGen(7)
	names := []string{netPeer, "N1", "N2"}
	g.setUpInputs(names)
	sched := buildSchedule(g.querier(names), 3*time.Second, 30, 3)
	if len(sched) != 99 {
		t.Fatalf("%d requests scheduled, want 90 local + 9 network", len(sched))
	}
	// The benchmark's own shapes: 30 s and 15 s at the serve rates, and the
	// after-run check.
	for _, c := range []struct {
		d          time.Duration
		local, net float64
		total      int
	}{{30 * time.Second, localQPS, netQPS, 594 + 150}, {15 * time.Second, localQPS, netQPS, 297 + 75}, {time.Second, checkLocal, checkNet, checkLocal + checkNet}} {
		g := newGen(8)
		names := []string{"N0", "N1", "N2", "N3", netPeer, "N5", "N6", "N7", "N8"}
		g.setUpInputs(names)
		if got := len(buildSchedule(g.querier(names), c.d, c.local, c.net)); got != c.total {
			t.Errorf("schedule over %v at %v/%v: %d requests, want %d", c.d, c.local, c.net, got, c.total)
		}
	}
	local, net := map[string]int{}, map[string]int{}
	for i, s := range sched {
		if i > 0 && s.due < sched[i-1].due {
			t.Fatalf("schedule out of due order at %d", i)
		}
		if i > 0 && s.q.net && sched[i-1].q.net {
			t.Fatalf("network queries back to back at %d: not spread between local ones", i)
		}
		if s.q.net {
			net[s.q.node]++
		} else {
			local[s.q.node]++
		}
	}
	for _, n := range names {
		if local[n] != 30 {
			t.Errorf("peer %s: %d local queries, want 30", n, local[n])
		}
	}
	if len(net) != 1 || net[netPeer] != 9 {
		t.Errorf("network queries %v, want 9 at %s", net, netPeer)
	}
	again := buildSchedule(func() *querier { g := newGen(7); g.setUpInputs(names); return g.querier(names) }(), 3*time.Second, 30, 3)
	for i := range sched {
		if sched[i] != again[i] {
			t.Fatalf("same seed, different schedule at %d: %+v vs %+v", i, sched[i], again[i])
		}
	}
}

func TestZipfSkew(t *testing.T) {
	z := newZipf(100)
	rng := rand.New(rand.NewSource(1))
	counts := make([]int, 100)
	for i := 0; i < 20000; i++ {
		counts[z.rank(rng.Float64())]++
	}
	if !(counts[0] > counts[1] && counts[1] > counts[9] && counts[9] > counts[99]) {
		t.Errorf("ranks not decreasing: %d %d %d %d", counts[0], counts[1], counts[9], counts[99])
	}
	// P(rank 0) = 1/H(100) ~ 0.193.
	if f := float64(counts[0]) / 20000; f < 0.17 || f > 0.22 {
		t.Errorf("rank 0 frequency %.3f, want ~0.193", f)
	}
}

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
		Work     []struct{ Name string }       `json:"workloads"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var ws []string
	for _, w := range spec.Work {
		ws = append(ws, w.Name)
	}
	if !equalSets(ws, workloads) {
		t.Fatalf("BENCHMARK.json workloads %v, program runs %v", ws, workloads)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

func equalSets(a, b []string) bool {
	a, b = append([]string(nil), a...), append([]string(nil), b...)
	sort.Strings(a)
	sort.Strings(b)
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestWorkloadsEmitDeclaredMetrics runs every workload briefly, untraced
// and traced, and checks that each passes its correctness check and
// emits exactly the metrics BENCHMARK.json declares, with their units.
func TestWorkloadsEmitDeclaredMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload end to end")
	}
	endToEnd, perLayer := declared(t)
	root := t.TempDir()
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			res, err := run(params{workload: w, seed: 5, seconds: 1, trace: trace, root: root})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v, %d of %d failed", w, trace, res.Correct, res.Failed, res.Attempted)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			for name, unit := range want {
				m, ok := res.Metrics[name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", w, trace, name)
				} else if m.Unit != unit {
					t.Errorf("%s trace=%v: metric %s unit %q, declared %q", w, trace, name, m.Unit, unit)
				}
			}
			for name, m := range res.Metrics {
				if _, ok := want[name]; !ok {
					t.Errorf("%s trace=%v: metric %s undeclared", w, trace, name)
				}
				if !trace && !(m.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, name, m.Value)
				}
			}
		}
	}
}
