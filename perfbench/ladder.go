package main

import (
	"context"
	"fmt"
	"net/http"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"codb/internal/chase"
	"codb/internal/core"
	"codb/internal/cq"
	"codb/internal/msg"
	"codb/internal/relation"
	"codb/internal/storage"
	"codb/internal/topo"
	"codb/internal/transport"
	"codb/internal/wire"
)

// rungTime is how long each timed ladder rung runs; rungOps caps its
// operations (rungs that grow state stay near the measured state).
const (
	rungTime = 400 * time.Millisecond
	rungOps  = 200
)

// cost is one timed rung's per-operation cost: wall time, heap
// allocations and heap bytes.
type cost struct{ ns, allocs, bytes float64 }

// bench calls op(0), op(1), ... until rungTime has passed or rungOps
// operations ran (at least 3), timing only op; prep(i), when given, runs
// untimed before op(i) but its allocations are counted.
func bench(prep, op func(i int)) cost {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var timed time.Duration
	start := time.Now()
	n := 0
	for n < 3 || n < rungOps && time.Since(start) < rungTime {
		if prep != nil {
			prep(n)
		}
		t0 := time.Now()
		op(n)
		timed += time.Since(t0)
		n++
	}
	runtime.ReadMemStats(&m1)
	return cost{
		ns:     float64(timed) / float64(n),
		allocs: float64(m1.Mallocs-m0.Mallocs) / float64(n),
		bytes:  float64(m1.TotalAlloc-m0.TotalAlloc) / float64(n),
	}
}

// ladder collects per-layer metrics; every timed rung is a span.
type ladder struct {
	tr   *tracer
	root int
	m    map[string]metric
}

func (l *ladder) set(name string, v float64, unit string) { l.m[name] = metric{v, unit} }

// rung times one layer entry point as a span and records
// name_<unit><per> (time per unit, scaled by n units per operation) with
// its name_allocs<per> and name_bytes<per> siblings.
func (l *ladder) rung(name, unit, per string, n float64, prep, op func(i int)) cost {
	var c cost
	l.tr.measure("ladder "+name, l.root, func() { c = bench(prep, op) })
	scale := map[string]float64{"ns": 1, "us": 1e3, "ms": 1e6}[unit]
	l.set(name+"_"+unit+per, c.ns/n/scale, unit)
	l.set(name+"_allocs"+per, c.allocs/n, "count")
	l.set(name+"_bytes"+per, c.bytes/n, "B")
	return c
}

// traced runs the workload's slice with spans recorded, then the per-layer
// ladder, and returns the per-layer metrics.
func traced(ctx context.Context, p params, dir string) (*result, error) {
	tr := newTracer(fmt.Sprintf("%s-seed%d-%d", p.workload, p.seed, time.Now().UnixNano()))
	slice := time.Duration(min(p.seconds, 10)) * time.Second
	sliceStart := time.Now()
	o, err := runWorkload(ctx, p, dir, tr, slice)
	if err != nil {
		return nil, err
	}
	sliceWall := time.Since(sliceStart)
	traceCost, _ := tr.overhead()
	l := &ladder{tr: tr, m: make(map[string]metric)}
	l.root = tr.begin("ladder", -1)
	l.fromSlice(o)
	g := newGen(p.seed + 1)
	g.setUpInputs(o.d.names) // join partners for the ladder's batches
	err = l.queryRungs(o)
	o.d.close()
	if err != nil {
		return nil, err
	}
	batches := make([][]relation.Tuple, rungOps+3)
	for i := range batches {
		batches[i] = g.burst(burstTuples)
	}
	if err := l.codecRungs(batches[0]); err != nil {
		return nil, err
	}
	if err := l.storageRungs(filepath.Join(dir, "ladder-db"), g, batches, o.d.rules[0]); err != nil {
		return nil, err
	}
	if err := l.coreRung(g, batches); err != nil {
		return nil, err
	}
	if err := l.transportRung(batches); err != nil {
		return nil, err
	}
	if err := l.busRung(ctx, filepath.Join(dir, "bus"), p); err != nil {
		return nil, err
	}
	tr.end(l.root)
	_, spans := tr.overhead()
	l.set("trace.overhead_frac", traceCost.Seconds()/sliceWall.Seconds(), "ratio")
	l.set("trace.spans", float64(spans), "count")
	if err := tr.write(filepath.Join(p.root, ".bench_build", "traces", tr.run+".jsonl")); err != nil {
		return nil, err
	}
	return &result{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: l.m}, nil
}

// fromSlice derives the metrics the traced slice itself observed: session
// reports, query-cache and outbox counters, GC share, the query latency
// tails and generator lag.
func (l *ladder) fromSlice(o *outcome) {
	var suppressed, attempted, skipped, longest int
	var span time.Duration
	for _, r := range o.rounds {
		suppressed += r.suppressed
		attempted += r.attempted
		skipped += r.skipped
		longest = max(longest, r.longestPath)
		span = max(span, r.span)
	}
	lookups := float64(o.cache.Hits + o.cache.Misses)
	l.set("core.query_cache_hit_ratio", ratio(float64(o.cache.Hits), lookups), "ratio")
	l.set("core.query_cache_stale_ratio", ratio(float64(o.cache.Stale), lookups), "ratio")
	l.set("core.suppressed_per_attempted", ratio(float64(suppressed), float64(attempted)), "ratio")
	l.set("core.skipped_by_watermark_per_update", ratio(float64(skipped), float64(len(o.rounds))), "count")
	l.set("core.session_span_max_ms", ms(span), "ms")
	l.set("core.longest_path", float64(longest), "count")
	l.set("transport.payloads_per_frame", ratio(float64(o.outbox.Payloads), float64(o.outbox.Frames)), "count")
	l.set("transport.frames_per_update", ratio(float64(o.outbox.Frames), float64(len(o.rounds))), "count")
	l.set("wal.commits_per_fsync", ratio(float64(o.walCommits), float64(o.walSyncs)), "count")
	l.set("runtime.gc_cpu_frac", o.gcFrac, "ratio")
	l.set("http.local_query_p90_ms", ms(percentile(o.local, 90)), "ms")
	l.set("http.local_query_p99_ms", ms(percentile(o.local, 99)), "ms")
	l.set("http.net_query_p90_ms", ms(percentile(o.net, 90)), "ms")
	l.set("http.net_query_p99_ms", ms(percentile(o.net, 99)), "ms")
	l.set("loadgen.lag_p99_ms", ms(percentile(o.lags, 99)), "ms")
	l.set("loadgen.max_inflight", float64(o.maxBacklog), "count")
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// queryRungs time the read path on the slice's deployment: cq.Eval of the
// serve query over a snapshot, a direct LocalQuery (cache misses), and the
// gateway's overhead over LocalQuery for the same cached queries.
func (l *ladder) queryRungs(o *outcome) error {
	d := o.d
	qs := o.qr.plan(63, false)
	snaps := make(map[string]*storage.Snapshot)
	for _, n := range d.names {
		snaps[n] = d.dbs[n].Snapshot()
	}
	parsed := make([]*cq.Query, len(qs))
	for i, q := range qs {
		parsed[i] = cq.MustParseQuery(q.text())
	}
	var evalErr error
	l.rung("cq.query_eval", "us", "", 1, nil, func(i int) {
		if _, err := cq.Eval(parsed[i%len(qs)], snaps[qs[i%len(qs)].node], cq.EvalOptions{}); err != nil {
			evalErr = err
		}
	})
	// Every LocalQuery below uses a threshold no earlier query used, so
	// each one misses the query cache and evaluates.
	var missErr error
	l.rung("peer.local_query", "us", "", 1, nil, func(i int) {
		q := qs[i%len(qs)]
		q.c -= int64(1 + i)
		if _, err := d.peers[q.node].LocalQuery(cq.MustParseQuery(q.text()), core.AllAnswers); err != nil {
			missErr = err
		}
	})
	for i, q := range qs {
		d.peers[q.node].LocalQuery(parsed[i], core.AllAnswers) // warm the cache
	}
	cached := l.rung("peer.local_query_cached", "us", "", 1, nil, func(i int) {
		q := qs[i%len(qs)]
		d.peers[q.node].LocalQuery(cq.MustParseQuery(q.text()), core.AllAnswers)
	})
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	defer client.CloseIdleConnections()
	var httpErr error
	viaHTTP := l.rung("http.query", "us", "", 1, nil, func(i int) {
		if _, err := d.httpQuery(client, qs[i%len(qs)], false); err != nil {
			httpErr = err
		}
	})
	l.set("http.query_overhead_us", (viaHTTP.ns-cached.ns)/1e3, "us")
	for _, err := range []error{evalErr, missErr, httpErr} {
		if err != nil {
			return err
		}
	}
	return nil
}

// sessionData is one SessionData batch of an update session from N1 to N0.
func sessionData(seq int, bindings []relation.Tuple) msg.Envelope {
	return msg.Envelope{From: "N1", Payload: &msg.SessionData{
		SID: "u-N0-1", Kind: msg.KindUpdate, Origin: originPeer, RuleID: "e0",
		Bindings: bindings, Path: []string{"N0", "N1"}, Seq: seq, Mode: msg.ExportIncremental,
	}}
}

// codecRungs time the tuple codec and the envelope codec + wire framing on
// a round-sized batch.
func (l *ladder) codecRungs(batch []relation.Tuple) error {
	n := float64(len(batch))
	var buf []byte
	enc := l.rung("relation.encode", "ns", "_per_tuple", n, nil, func(int) {
		for _, t := range batch {
			buf = relation.EncodeTuple(buf[:0], t)
		}
	})
	encoded := make([][]byte, len(batch))
	for i, t := range batch {
		encoded[i] = relation.EncodeTuple(nil, t)
	}
	var decErr error
	dec := l.rung("relation.decode", "ns", "_per_tuple", n, nil, func(int) {
		for _, b := range encoded {
			if _, err := relation.DecodeTuple(b, 2); err != nil {
				decErr = err
			}
		}
	})
	l.set("relation.allocs_per_tuple", (enc.allocs+dec.allocs)/n, "count")
	env := sessionData(1, batch)
	var body, frame []byte
	var tag msg.Tag
	var encErr error
	l.rung("msg.encode", "ns", "_per_batch", 1, nil, func(int) {
		var err error
		if body, tag, err = msg.AppendEnvelope(body[:0], env); err != nil {
			encErr = err
		}
		frame = wire.AppendFrame(frame[:0], wire.MaxVersion, byte(tag), body)
	})
	l.set("wire.bytes_per_tuple", float64(len(frame))/n, "B")
	l.rung("msg.decode", "ns", "_per_batch", 1, nil, func(int) {
		back, err := msg.DecodeEnvelope(tag, body)
		if err == nil && len(back.Payload.(*msg.SessionData).Bindings) != len(batch) {
			err = fmt.Errorf("msg: decoded batch lost bindings")
		}
		if err != nil {
			decErr = err
		}
	})
	if encErr != nil {
		return encErr
	}
	return decErr
}

// dataSchema is the grid's shared schema.
func dataSchema() *relation.Schema {
	cfg, _ := topo.Build(topo.Grid, 1, topo.Options{})
	return cfg.Nodes[0].Schema
}

// fill commits the set-up volume into db, past the changelog bound.
func fill(db *storage.DB, g *gen) error {
	ts := g.burst(fillTuples)
	for len(ts) > 0 {
		k := min(len(ts), 512)
		if _, err := db.InsertMany("data", ts[:k]); err != nil {
			return err
		}
		ts = ts[k:]
	}
	return nil
}

// storageRungs time the durable engine past its changelog bound —
// InsertMany of round-sized batches, a snapshot pin after a commit, a
// checkpoint — plus the WAL volume per tuple, then cq.EvalDelta and
// chase.Applier.Facts on the copy rule.
func (l *ladder) storageRungs(dir string, g *gen, batches [][]relation.Tuple, rule *cq.Rule) error {
	db, err := storage.Open(storage.Options{Dir: dir, SyncOnCommit: true})
	if err != nil {
		return err
	}
	defer db.Close()
	if err := db.DefineSchema(dataSchema()); err != nil {
		return err
	}
	if err := fill(db, g); err != nil {
		return err
	}
	wal0 := db.DetailedStats().WALBytes
	var inserted int
	var insErr error
	l.rung("storage.insert_many", "ns", "_per_tuple", burstTuples, nil, func(i int) {
		if _, err := db.InsertMany("data", batches[i]); err != nil {
			insErr = err
		}
		inserted += len(batches[i])
	})
	if insErr != nil {
		return insErr
	}
	l.set("wal.bytes_per_tuple", float64(db.DetailedStats().WALBytes-wal0)/float64(inserted), "B")
	one := g.burst(2 * rungOps)
	commitOne := func(i int) {
		if _, err := db.Insert("data", one[i]); err != nil {
			insErr = err
		}
	}
	l.rung("storage.snapshot_pin", "ns", "", 1, commitOne, func(int) { db.Snapshot() })
	var ckptErr error
	l.rung("storage.checkpoint", "ms", "", 1, func(i int) { commitOne(rungOps + i) }, func(int) {
		if err := db.Checkpoint(); err != nil {
			ckptErr = err
		}
	})
	if insErr != nil || ckptErr != nil {
		return fmt.Errorf("storage ladder: %v %v", insErr, ckptErr)
	}
	snap := db.Snapshot()
	frontier := rule.Frontier()
	var evalErr error
	l.rung("cq.eval_delta", "ns", "_per_binding", burstTuples, nil, func(i int) {
		if _, err := cq.EvalDelta(rule.Body, rule.Cmps, frontier, snap, "data", batches[i], cq.EvalOptions{}); err != nil {
			evalErr = err
		}
	})
	c := l.rung("chase.facts", "ns", "_per_binding", burstTuples, nil, func(i int) {
		a, err := chase.NewApplier(rule, chase.Options{})
		if err != nil {
			evalErr = err
			return
		}
		a.Facts(batches[i])
	})
	// The chase rung reports its allocations as chase.allocs_per_binding.
	l.set("chase.allocs_per_binding", c.allocs/burstTuples, "count")
	delete(l.m, "chase.facts_allocs_per_binding")
	return evalErr
}

// coreRung times Node.Handle on SessionData batches over a StoreWrapper
// (in-memory database past its changelog bound): the importer's chase,
// insert and acknowledgement for one batch.
func (l *ladder) coreRung(g *gen, batches [][]relation.Tuple) error {
	db, err := storage.Open(storage.Options{})
	if err != nil {
		return err
	}
	defer db.Close()
	if err := db.DefineSchema(dataSchema()); err != nil {
		return err
	}
	if err := fill(db, g); err != nil {
		return err
	}
	node, err := core.NewNode(core.Config{Self: originPeer, Wrapper: core.NewStoreWrapper(db)})
	if err != nil {
		return err
	}
	if err := node.AddRule("e0", "N0.data(x, y) <- N1.data(x, y)"); err != nil {
		return err
	}
	var handled int
	var hErr error
	l.rung("core.handle_data", "us", "_per_batch", 1, nil, func(i int) {
		r := node.Handle(sessionData(i, batches[i]))
		if len(r.Errors) > 0 {
			hErr = r.Errors[0]
		}
		handled += len(batches[i])
	})
	if hErr != nil {
		return hErr
	}
	if got := db.Count("data"); got != fillTuples+handled {
		return fmt.Errorf("core ladder: %d tuples after handling, want %d", got, fillTuples+handled)
	}
	return nil
}

// transportRung times Outbox.Send plus Flush of one SessionData batch over
// a loopback TCP pair: one frame per operation.
func (l *ladder) transportRung(batches [][]relation.Tuple) error {
	a, err := transport.NewTCP("N1", "127.0.0.1:0")
	if err != nil {
		return err
	}
	b, err := transport.NewTCP("N0", "127.0.0.1:0")
	if err != nil {
		a.Close()
		return err
	}
	defer b.Close()
	var got atomic.Int64
	b.SetHandler(func(msg.Envelope) { got.Add(1) })
	a.SetHandler(func(msg.Envelope) {})
	ob := transport.NewOutbox(a, transport.OutboxOptions{})
	defer ob.Close()
	if err := ob.Connect("N0", b.Addr()); err != nil {
		return err
	}
	var sent int64
	var sendErr error
	l.rung("transport.send_flush", "us", "_per_frame", 1, nil, func(i int) {
		if err := ob.Send("N0", sessionData(i, batches[i]).Payload); err != nil {
			sendErr = err
		}
		ob.Flush()
		sent++
	})
	if sendErr != nil {
		return sendErr
	}
	deadline := time.Now().Add(5 * time.Second)
	for got.Load() < sent && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got.Load() != sent {
		return fmt.Errorf("transport ladder: %d of %d payloads arrived", got.Load(), sent)
	}
	return nil
}

// busRung runs update rounds on the same grid over the in-process bus:
// subtracting its median from update_p50_ms gives the TCP transport's
// share.
func (l *ladder) busRung(ctx context.Context, dir string, p params) error {
	g := newGen(p.seed)
	d, err := setUp(ctx, dir, g, true)
	if err != nil {
		return err
	}
	defer d.close()
	const rounds = 9
	var walls []time.Duration
	var allocs, heap uint64
	for i := 0; i < rounds; i++ {
		for _, n := range d.names {
			if err := d.commit(n, g.burst(burstTuples)); err != nil {
				return err
			}
		}
		// Allocations are process-wide: every peer's share of the round.
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		var rs roundStats
		l.tr.measure("ladder peer.update_bus", l.root, func() { rs, err = d.update(ctx) })
		runtime.ReadMemStats(&m1)
		if err != nil {
			return err
		}
		walls = append(walls, rs.wall)
		allocs += m1.Mallocs - m0.Mallocs
		heap += m1.TotalAlloc - m0.TotalAlloc
	}
	l.set("peer.update_bus_ms", ms(percentile(walls, 50)), "ms")
	l.set("peer.update_bus_allocs", float64(allocs)/rounds, "count")
	l.set("peer.update_bus_bytes", float64(heap)/rounds, "B")
	return nil
}
