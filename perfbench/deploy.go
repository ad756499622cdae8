package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	httpapi "codb/internal/api/http"
	"codb/internal/core"
	"codb/internal/cq"
	"codb/internal/peer"
	"codb/internal/relation"
	"codb/internal/storage"
	"codb/internal/topo"
	"codb/internal/transport"
)

// deployment is the paper's 3×3 grid of durable peers: copy rules flow data
// toward N0, every peer has its own TCP listener, and one HTTP gateway
// fronts all of them (requests name their peer with ?node=).
type deployment struct {
	rules []*cq.Rule
	names []string
	peers map[string]*peer.Peer
	dbs   map[string]*storage.DB
	gw    *httpapi.Server
	dir   string
	// inputs records every tuple the benchmark committed at each peer:
	// the chase oracle's starting instance.
	inputs map[string][]relation.Tuple
}

// newDeployment starts the grid with empty databases under dir, on TCP
// loopback or, with bus, on the in-process bus.
func newDeployment(dir string, bus bool) (*deployment, error) {
	cfg, err := topo.Build(topo.Grid, gridPeers, topo.Options{})
	if err != nil {
		return nil, err
	}
	d := &deployment{
		peers:  make(map[string]*peer.Peer),
		dbs:    make(map[string]*storage.DB),
		dir:    dir,
		inputs: make(map[string][]relation.Tuple),
	}
	transports := make(map[string]transport.Transport)
	directory := make(map[string]string)
	var b *transport.Bus
	if bus {
		b = transport.NewBus()
	}
	for _, node := range cfg.Nodes {
		d.names = append(d.names, node.Name)
		if bus {
			transports[node.Name] = b.MustJoin(node.Name)
			continue
		}
		tr, err := transport.NewTCP(node.Name, "127.0.0.1:0")
		if err != nil {
			closeTransports(transports)
			return nil, err
		}
		transports[node.Name] = tr
		directory[node.Name] = tr.Addr()
	}
	for _, node := range cfg.Nodes {
		db, err := storage.Open(storage.Options{
			Dir:          filepath.Join(dir, node.Name),
			SyncOnCommit: true,
		})
		if err == nil {
			err = db.DefineSchema(node.Schema)
		}
		if err != nil {
			if db != nil {
				db.Close()
			}
			d.close()
			closeTransports(transports)
			return nil, err
		}
		d.dbs[node.Name] = db
		p, err := peer.New(peer.Options{
			Name:      node.Name,
			Transport: transports[node.Name],
			Wrapper:   core.NewStoreWrapper(db),
			Directory: directory,
		})
		if err != nil {
			d.close()
			closeTransports(transports)
			return nil, err
		}
		d.peers[node.Name] = p
		delete(transports, node.Name)
	}
	for _, r := range cfg.Rules {
		rule, err := cq.ParseRule(r.ID, r.Text)
		if err != nil {
			d.close()
			return nil, err
		}
		d.rules = append(d.rules, rule)
		for _, end := range []string{rule.Target, rule.Source} {
			if err := d.peers[end].AddRule(r.ID, r.Text); err != nil {
				d.close()
				return nil, err
			}
		}
	}
	gw, err := httpapi.New(httpapi.Options{Addr: "127.0.0.1:0", Resolve: d.resolve})
	if err != nil {
		d.close()
		return nil, err
	}
	d.gw = gw
	return d, nil
}

func closeTransports(trs map[string]transport.Transport) {
	for _, tr := range trs {
		tr.Close()
	}
}

func (d *deployment) resolve(node string) (*peer.Peer, error) {
	if p := d.peers[node]; p != nil {
		return p, nil
	}
	return nil, fmt.Errorf("%w: %q", httpapi.ErrUnknownNode, node)
}

// close stops the gateway and every peer, closes the databases and removes
// the deployment's directory.
func (d *deployment) close() {
	if d.gw != nil {
		d.gw.Close()
	}
	for _, p := range d.peers {
		p.Stop()
	}
	for _, db := range d.dbs {
		db.Close()
	}
	os.RemoveAll(d.dir)
}

// commit inserts tuples at one peer through its public Insert entry point
// and records them as oracle inputs.
func (d *deployment) commit(node string, tuples []relation.Tuple) error {
	if err := d.peers[node].Insert("data", tuples...); err != nil {
		return err
	}
	d.inputs[node] = append(d.inputs[node], tuples...)
	return nil
}

// roundStats is what one global update did, summed over the per-peer
// session reports of the paper's statistical module.
type roundStats struct {
	wall        time.Duration
	msgs, bytes int
	newTuples   int
	suppressed  int
	attempted   int // bindings shipped plus bindings suppressed
	skipped     int
	longestPath int
	span        time.Duration // earliest peer start to latest peer end
	evalErrors  int
}

// update runs one global update from N0 and collects every peer's report
// for the session. Collection waits for the completion flood and is not
// part of the update's wall time.
func (d *deployment) update(ctx context.Context) (roundStats, error) {
	start := time.Now()
	rep, err := d.peers[originPeer].RunUpdate(ctx)
	rs := roundStats{wall: time.Since(start)}
	if err != nil {
		return rs, err
	}
	pending := make(map[string]bool, len(d.names))
	for _, n := range d.names {
		pending[n] = true
	}
	var first, last int64
	deadline := time.Now().Add(5 * time.Second)
	for len(pending) > 0 && time.Now().Before(deadline) {
		for n := range pending {
			for _, r := range d.peers[n].Reports() {
				if r.SID != rep.SID {
					continue
				}
				delete(pending, n)
				rs.msgs += r.SentMsgs
				rs.bytes += r.SentBytes
				rs.newTuples += r.NewTuples
				rs.suppressed += r.SuppressedBindings
				rs.skipped += r.SkippedByWatermark
				rs.evalErrors += r.EvalErrors
				for _, t := range r.TuplesPerRule {
					rs.attempted += t
				}
				rs.longestPath = max(rs.longestPath, r.LongestPath)
				if first == 0 || r.StartUnixNano < first {
					first = r.StartUnixNano
				}
				last = max(last, r.EndUnixNano)
				break
			}
		}
		if len(pending) > 0 {
			time.Sleep(100 * time.Microsecond)
		}
	}
	rs.attempted += rs.suppressed
	rs.span = time.Duration(last - first)
	if len(pending) > 0 {
		return rs, fmt.Errorf("update %s: no report from %d peers", rep.SID, len(pending))
	}
	if rs.evalErrors > 0 {
		return rs, fmt.Errorf("update %s: %d evaluation errors", rep.SID, rs.evalErrors)
	}
	return rs, nil
}

// sortedTuples returns a copy of ts in tuple order.
func sortedTuples(ts []relation.Tuple) []relation.Tuple {
	out := append([]relation.Tuple(nil), ts...)
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}
