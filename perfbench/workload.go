package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"

	"codb/internal/chase"
	"codb/internal/core"
	"codb/internal/cq"
	"codb/internal/relation"
	"codb/internal/storage"
	"codb/internal/transport"
)

// outcome is everything one workload run observed.
type outcome struct {
	d       *deployment
	qr      *querier
	setups  []time.Duration
	rounds  []roundStats
	commits []time.Duration
	// roundsWall is the wall time of the phase the rounds ran in.
	roundsWall time.Duration
	local, net []time.Duration
	lags       []time.Duration
	maxBacklog int
	attempted  int
	failed     int
	failures   []string
	cache      core.QueryCacheStats // deltas over the query traffic
	outbox     transport.OutboxStats
	walCommits uint64
	walSyncs   uint64
	gcFrac     float64
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.failures) < 8 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

// runWorkload sets a deployment up setUps times, timing each. The
// workload's secondary phase runs for d/2 on the second-to-last deployment
// and its measured phase for d on the last one. Each phase starts from the
// set-up state, so neither inherits the other's caches, garbage or data
// growth. Each deployment is verified after its phase. The returned outcome
// keeps the last deployment open; the caller closes it.
func runWorkload(ctx context.Context, p params, dir string, tr *tracer, d time.Duration) (*outcome, error) {
	o := &outcome{}
	n := setUps
	if p.trace {
		n = 2
	}
	clients := make([]*http.Client, runtime.NumCPU())
	for i := range clients {
		clients[i] = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	}
	defer func() {
		for _, c := range clients {
			c.CloseIdleConnections()
		}
	}()
	var gcUsed gcSample // GC and total CPU seconds over the phases
	for i := 0; i < n; i++ {
		g := newGen(p.seed)
		start := time.Now()
		dep, err := setUp(ctx, filepath.Join(dir, fmt.Sprintf("deploy-%d", i)), g, false)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		o.setups = append(o.setups, time.Since(start))
		if i < n-2 {
			dep.close()
			continue
		}
		o.d, o.qr = dep, g.querier(dep.names)
		// The measured phase runs the workload's own driver for d, the
		// secondary phase the other workload's driver for d/2.
		serves, span := p.workload == "query-serve", d
		if i < n-1 {
			serves, span = !serves, d/2
		}
		runtime.GC() // keep earlier garbage out of the phase
		s0 := gcCPU()
		if serves {
			o.record(o.serve(clients, o.qr, tr, span))
		} else {
			o.measureRounds(ctx, tr, g, span)
		}
		s1 := gcCPU()
		gcUsed.gc += s1.gc - s0.gc
		gcUsed.total += s1.total - s0.total
		if err := ctx.Err(); err != nil {
			dep.close()
			return nil, err
		}
		o.queryPass(clients[0], buildSchedule(o.qr, time.Second, checkLocal, checkNet), tr)
		o.checkFixpoint()
		if i < n-1 {
			dep.close()
		}
	}
	o.gcFrac = ratio(gcUsed.gc, gcUsed.total)
	for _, f := range o.failures {
		fmt.Fprintln(os.Stderr, "perfbench: failure:", f)
	}
	return o, nil
}

// setUp starts a deployment and commits the set-up inputs (more than
// storage.DefaultChangelogLimit tuples end up in every peer), then runs
// the materialising global update.
func setUp(ctx context.Context, dir string, g *gen, bus bool) (*deployment, error) {
	d, err := newDeployment(dir, bus)
	if err != nil {
		return nil, err
	}
	inputs := g.setUpInputs(d.names)
	for _, n := range d.names {
		ts := inputs[n]
		for len(ts) > 0 {
			k := min(len(ts), 512)
			if err := d.commit(n, ts[:k]); err != nil {
				d.close()
				return nil, err
			}
			ts = ts[k:]
		}
	}
	if _, err := d.update(ctx); err != nil {
		d.close()
		return nil, err
	}
	for _, n := range d.names {
		if c := d.peers[n].Count("data"); c <= storage.DefaultChangelogLimit {
			d.close()
			return nil, fmt.Errorf("set-up left %s with %d tuples, want more than %d", n, c, storage.DefaultChangelogLimit)
		}
	}
	return d, nil
}

// measureRounds runs update rounds: every peer commits a burst of fresh
// tuples, then N0 runs a global update. Rounds start until d has passed.
func (o *outcome) measureRounds(ctx context.Context, tr *tracer, g *gen, d time.Duration) {
	ob0, wal0 := o.d.outboxStats(), o.d.walStats()
	start := time.Now()
	for time.Since(start) < d && ctx.Err() == nil {
		round := tr.begin("round", -1)
		for _, n := range o.d.names {
			burst := g.burst(burstTuples)
			sp := tr.begin("commit "+n, round)
			t0 := time.Now()
			err := o.d.commit(n, burst)
			o.commits = append(o.commits, time.Since(t0))
			tr.end(sp)
			o.attempted++
			if err != nil {
				o.fail("commit at %s: %v", n, err)
			}
		}
		sp := tr.begin("update "+originPeer, round)
		rs, err := o.d.update(ctx)
		tr.end(sp)
		tr.end(round)
		o.attempted++
		if err != nil {
			o.fail("update: %v", err)
			continue
		}
		o.rounds = append(o.rounds, rs)
	}
	o.roundsWall = time.Since(start)
	ob1, wal1 := o.d.outboxStats(), o.d.walStats()
	o.outbox = transport.OutboxStats{Frames: ob1.Frames - ob0.Frames, Payloads: ob1.Payloads - ob0.Payloads}
	o.walCommits, o.walSyncs = wal1.Commits-wal0.Commits, wal1.Syncs-wal0.Syncs
}

// serve runs the open-loop schedule for d against the HTTP gateway and
// records the query cache's counters over it.
func (o *outcome) serve(clients []*http.Client, qr *querier, tr *tracer, d time.Duration) loadStats {
	sched := buildSchedule(qr, d, localQPS, netQPS)
	c0 := o.d.cacheStats()
	st := openLoop(sched, len(clients), func(w int, q query) error {
		sp := tr.begin(spanName(q), -1)
		_, err := o.d.httpQuery(clients[w], q, false)
		tr.end(sp)
		return err
	})
	c1 := o.d.cacheStats()
	o.cache = core.QueryCacheStats{Hits: c1.Hits - c0.Hits, Misses: c1.Misses - c0.Misses, Stale: c1.Stale - c0.Stale}
	return st
}

// record adds the open-loop samples to the outcome.
func (o *outcome) record(st loadStats) {
	o.maxBacklog = st.maxBacklog
	for _, s := range st.samples {
		o.attempted++
		if s.err != nil {
			o.fail("query: %v", s.err)
			continue
		}
		o.lags = append(o.lags, s.lag)
		if s.net {
			o.net = append(o.net, s.lat)
		} else {
			o.local = append(o.local, s.lat)
		}
	}
}

func spanName(q query) string {
	if q.net {
		return "query.net " + q.node
	}
	return "query.local " + q.node
}

// queryPass sends the queries one at a time over HTTP and compares every
// answer with direct evaluation over a snapshot of the answering peer.
func (o *outcome) queryPass(client *http.Client, sched []slot, tr *tracer) {
	for _, s := range sched {
		q := s.q
		sp := tr.begin(spanName(q), -1)
		got, err := o.d.httpQuery(client, q, true)
		tr.end(sp)
		o.attempted++
		if err == nil {
			err = o.d.checkAnswer(q, got)
		}
		if err != nil {
			o.fail("%s at %s: %v", q.text(), q.node, err)
		}
	}
}

// checkFixpoint compares every peer's data with the chase oracle's
// fixpoint over the same rules and committed inputs.
func (o *outcome) checkFixpoint() {
	start := make(map[string]relation.Instance, len(o.d.names))
	for _, n := range o.d.names {
		in := relation.NewInstance()
		for _, t := range o.d.inputs[n] {
			in.Insert("data", t)
		}
		start[n] = in
	}
	want, _, err := chase.Fixpoint(o.d.rules, start, chase.Options{})
	for _, n := range o.d.names {
		o.attempted++
		if err != nil {
			o.fail("fixpoint: %v", err)
			continue
		}
		if err := sameTuples(o.d.peers[n].Tuples("data"), want[n].Tuples("data")); err != nil {
			o.fail("%s data differs from the chase fixpoint: %v", n, err)
		}
	}
}

func sameTuples(got, want []relation.Tuple) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d tuples, want %d", len(got), len(want))
	}
	g, w := sortedTuples(got), sortedTuples(want)
	for i := range g {
		if !g[i].Equal(w[i]) {
			return fmt.Errorf("tuple %d is %v, want %v", i, g[i], w[i])
		}
	}
	return nil
}

// httpQuery posts one query to the gateway. With decode it returns the
// answers; otherwise it only checks the status and drains the body.
func (d *deployment) httpQuery(client *http.Client, q query, decode bool) ([]relation.Tuple, error) {
	body, _ := json.Marshal(map[string]any{"query": q.text(), "local": !q.net})
	resp, err := client.Post("http://"+d.gw.Addr()+"/v1/query?node="+q.node, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		return nil, fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(b)))
	}
	if !decode {
		_, err := io.Copy(io.Discard, resp.Body)
		return nil, err
	}
	var out struct {
		Answers [][]json.Number `json:"answers"`
	}
	dec := json.NewDecoder(resp.Body)
	dec.UseNumber()
	if err := dec.Decode(&out); err != nil {
		return nil, err
	}
	ts := make([]relation.Tuple, len(out.Answers))
	for i, row := range out.Answers {
		t := make(relation.Tuple, len(row))
		for j, v := range row {
			n, err := strconv.ParseInt(string(v), 10, 64)
			if err != nil {
				return nil, err
			}
			t[j] = relation.Int(int(n))
		}
		ts[i] = t
	}
	return ts, nil
}

// checkAnswer compares answers with cq.Eval of the query over a snapshot
// of the peer's database. After a completed global update every relevant
// remote tuple is materialised locally, so network answers must match too.
func (d *deployment) checkAnswer(q query, got []relation.Tuple) error {
	want, err := cq.Eval(cq.MustParseQuery(q.text()), d.dbs[q.node].Snapshot(), cq.EvalOptions{})
	if err != nil {
		return err
	}
	return sameTuples(got, want)
}

func (d *deployment) cacheStats() core.QueryCacheStats {
	var s core.QueryCacheStats
	for _, n := range d.names {
		if c, ok := d.peers[n].ReadStats(); ok {
			s.Hits += c.Hits
			s.Misses += c.Misses
			s.Stale += c.Stale
		}
	}
	return s
}

func (d *deployment) outboxStats() transport.OutboxStats {
	var s transport.OutboxStats
	for _, n := range d.names {
		if o, ok := d.peers[n].OutboxStats(); ok {
			s.Frames += o.Frames
			s.Payloads += o.Payloads
		}
	}
	return s
}

func (d *deployment) walStats() (s struct{ Commits, Syncs uint64 }) {
	for _, n := range d.names {
		g := d.dbs[n].DetailedStats().GroupCommit
		s.Commits += g.Commits
		s.Syncs += g.Syncs
	}
	return s
}

// gcSample reads the runtime's cumulative GC and total CPU time.
type gcSample struct{ gc, total float64 }

func gcCPU() gcSample {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return gcSample{gc: s[0].Value.Float64(), total: s[1].Value.Float64()}
}

// rssPeakMB is the process's peak resident set (VmHWM).
func rssPeakMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// endToEnd turns the outcome into the untraced result.
func (o *outcome) endToEnd() *result {
	var walls []time.Duration
	var msgs, vol, fresh int
	for _, r := range o.rounds {
		walls = append(walls, r.wall)
		msgs += r.msgs
		vol += r.bytes
		fresh += r.newTuples
	}
	nr := float64(max(len(o.rounds), 1))
	m := map[string]metric{
		"setup_s":                   {percentile(o.setups, 50).Seconds(), "s"},
		"update_p50_ms":             {ms(percentile(walls, 50)), "ms"},
		"update_p90_ms":             {ms(percentile(walls, 90)), "ms"},
		"materialised_tuples_per_s": {float64(fresh) / o.roundsWall.Seconds(), "1/s"},
		"commit_p25_ms":             {ms(percentile(o.commits, 25)), "ms"},
		"commit_p90_ms":             {ms(percentile(o.commits, 90)), "ms"},
		"local_query_p50_ms":        {ms(percentile(o.local, 50)), "ms"},
		"local_query_p75_ms":        {ms(percentile(o.local, 75)), "ms"},
		"net_query_p50_ms":          {ms(percentile(o.net, 50)), "ms"},
		"net_query_p75_ms":          {ms(percentile(o.net, 75)), "ms"},
		"msgs_per_update":           {float64(msgs) / nr, "count"},
		"wire_bytes_per_update":     {float64(vol) / nr, "B"},
		"rss_peak_mb":               {rssPeakMB(), "MB"},
	}
	return &result{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: m}
}
