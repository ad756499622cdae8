package core

import (
	"codb/internal/cq"
	"codb/internal/msg"
	"codb/internal/relation"
)

// session is this node's state for one global update or distributed query.
type session struct {
	sid    string
	kind   msg.Kind
	origin string

	// joined is set once this node has performed its join actions
	// (initial exports and flood forwarding).
	joined bool
	// flooded is set once the session has been propagated to the
	// acquaintances (duplicate suppression of the update flood).
	flooded bool

	// evaluated marks incoming links whose initial full evaluation has
	// run in this session.
	evaluated map[string]bool
	// sent holds, per incoming link, the frontier-binding keys already
	// shipped (the paper's "we delete from Ri those tuples which have
	// been already sent").
	sent map[string]map[string]bool
	// seqOut numbers outgoing data batches per rule.
	seqOut map[string]int
	// hinted marks pull-policy links whose lazy invalidation hint has been
	// flooded in this session (one hint per link per session).
	hinted map[string]bool

	// Query-mode state.
	query *cq.Query // non-nil at the origin of a query session
	// overlay is the per-session sink for query sessions (never committed
	// to the LDB); nil for update sessions.
	overlay relation.Instance
	// activeIncoming maps incoming rule IDs to the requesting importer,
	// for query sessions (updates push to every incoming link's target).
	activeIncoming map[string]string
	// requestedOut marks outgoing links this node has already requested
	// in a query session.
	requestedOut map[string]bool
	// answerKeys dedups streamed answers at a query origin.
	answerKeys map[string]bool
	certain    bool // drop answers containing nulls
	// extra holds rules learned from query requests, session-locally (they
	// belong to the requester's topology, not ours).
	extra map[string]*cq.Rule

	// pinned is the storage snapshot the session currently evaluates over
	// (nil when the wrapper has no snapshot capability or session snapshots
	// are disabled). It is re-pinned by sessionView whenever the storage
	// LSN has moved past it — in particular after each insertMany that
	// lands in the LDB — so later rule evaluations in the same session
	// observe the session's own writes. finalize releases it.
	pinned ReadView

	// Link-state protocol (reporting; see close.go).
	outClosed map[string]bool // outgoing links closed (exporter notified us)
	inClosed  map[string]bool // incoming links we have closed

	// Stats under construction.
	rep msg.UpdateReport

	done bool
}

func (n *Node) newSession(sid string, kind msg.Kind, origin string) *session {
	s := &session{
		sid:            sid,
		kind:           kind,
		origin:         origin,
		evaluated:      make(map[string]bool),
		sent:           make(map[string]map[string]bool),
		seqOut:         make(map[string]int),
		activeIncoming: make(map[string]string),
		requestedOut:   make(map[string]bool),
		outClosed:      make(map[string]bool),
		inClosed:       make(map[string]bool),
		rep: msg.UpdateReport{
			SID:           sid,
			Kind:          kind,
			Origin:        origin,
			StartUnixNano: n.cfg.Clock(),
			MsgsPerRule:   make(map[string]int),
			BytesPerRule:  make(map[string]int),
			TuplesPerRule: make(map[string]int),
		},
	}
	if kind == msg.KindQuery {
		s.overlay = relation.NewInstance()
	}
	n.sessions[sid] = s
	return s
}

// getSession returns (creating if needed) the session, reporting whether it
// already existed.
func (n *Node) getSession(sid string, kind msg.Kind, origin string) (*session, bool) {
	if s, ok := n.sessions[sid]; ok {
		return s, true
	}
	return n.newSession(sid, kind, origin), false
}

// sentSet returns the sent cache for one incoming link.
func (s *session) sentSet(ruleID string) map[string]bool {
	m := s.sent[ruleID]
	if m == nil {
		m = make(map[string]bool)
		s.sent[ruleID] = m
	}
	return m
}

// noteQueried records an acquaintance this node requested data from.
func (s *session) noteQueried(node string) {
	for _, q := range s.rep.Queried {
		if q == node {
			return
		}
	}
	s.rep.Queried = append(s.rep.Queried, node)
}

// noteSentTo records a node this node shipped results to.
func (s *session) noteSentTo(node string) {
	for _, q := range s.rep.SentTo {
		if q == node {
			return
		}
	}
	s.rep.SentTo = append(s.rep.SentTo, node)
}

// view is what rule evaluation reads: the LDB for update sessions, the LDB
// plus the session overlay for query sessions. When the wrapper can take
// snapshots (and session snapshots are enabled), the LDB half is a pinned
// immutable snapshot instead of the live wrapper: evaluation then runs
// without storage locks, the CQ evaluator's hash-join builds fan out per
// shard (the view forwards cq.ShardedSource), and constant pushdown probes
// the snapshot's lazy secondary views (cq.EqScanner). Writes still go to
// the live wrapper (or the overlay), never to the snapshot.
type view struct {
	base    Wrapper
	snap    ReadView          // nil: evaluation falls back to the live wrapper
	overlay relation.Instance // nil for update sessions
}

// sessionView returns the session's evaluation view, (re)pinning its
// snapshot first: a fresh snapshot is taken whenever the session has none
// yet or the storage has committed past the pinned LSN — which is exactly
// what happens when the session's own insertMany lands in the LDB, so the
// next evaluation observes those writes.
func (n *Node) sessionView(s *session) view {
	v := view{base: n.cfg.Wrapper, overlay: s.overlay}
	if n.snapshotter != nil && n.tracker != nil && !s.done {
		if s.pinned == nil || s.pinned.LSN() != n.tracker.LSN() {
			s.pinned = n.snapshotter.ReadSnapshot()
		}
		v.snap = s.pinned
	}
	return v
}

// baseScan iterates the LDB half of the view (snapshot if pinned).
func (v view) baseScan(rel string, fn func(relation.Tuple) bool) {
	if v.snap != nil {
		v.snap.Scan(rel, fn)
		return
	}
	v.base.Scan(rel, fn)
}

// baseHas reports presence in the LDB half of the view (snapshot if
// pinned). The overlay shadow checks use this rather than the live
// wrapper so that one evaluation reads one consistent state.
func (v view) baseHas(rel string, t relation.Tuple) bool {
	if v.snap != nil {
		return v.snap.Has(rel, t)
	}
	return v.base.Has(rel, t)
}

// Scan implements cq.Source over base ∪ overlay.
func (v view) Scan(rel string, fn func(relation.Tuple) bool) {
	stopped := false
	v.baseScan(rel, func(t relation.Tuple) bool {
		if !fn(t) {
			stopped = true
			return false
		}
		return true
	})
	if stopped || v.overlay == nil {
		return
	}
	for _, t := range v.overlay.Tuples(rel) {
		if v.baseHas(rel, t) {
			continue // shadowed: already visited via base
		}
		if !fn(t) {
			return
		}
	}
}

// ScanEq implements cq.EqScanner over base ∪ overlay: the snapshot probes
// its lazy secondary view, the live wrapper its secondary index (or a
// filtered scan when it has neither); overlay tuples are filtered inline.
func (v view) ScanEq(rel string, pos int, val relation.Value, fn func(relation.Tuple) bool) {
	stopped := false
	scan := func(t relation.Tuple) bool {
		if !fn(t) {
			stopped = true
			return false
		}
		return true
	}
	if v.snap != nil {
		if es, ok := v.snap.(cq.EqScanner); ok {
			es.ScanEq(rel, pos, val, scan)
		} else {
			v.snap.Scan(rel, func(t relation.Tuple) bool {
				if pos < len(t) && t[pos] == val {
					return scan(t)
				}
				return true
			})
		}
	} else if es, ok := v.base.(cq.EqScanner); ok {
		es.ScanEq(rel, pos, val, scan)
	} else {
		v.base.Scan(rel, func(t relation.Tuple) bool {
			if pos < len(t) && t[pos] == val {
				return scan(t)
			}
			return true
		})
	}
	if stopped || v.overlay == nil {
		return
	}
	for _, t := range v.overlay.Tuples(rel) {
		if pos >= len(t) || t[pos] != val || v.baseHas(rel, t) {
			continue
		}
		if !fn(t) {
			return
		}
	}
}

// EqIndexed implements cq.IndexProber through the pinned snapshot only:
// without one, or with overlay tuples for the relation (which ScanEq
// filters by a sort and scan on every call), per-binding ScanEq probes
// would not be index lookups.
func (v view) EqIndexed(rel string, pos int) bool {
	if v.snap == nil || len(v.overlay[rel]) > 0 {
		return false
	}
	ix, ok := v.snap.(cq.IndexProber)
	return ok && ix.EqIndexed(rel, pos)
}

// Count implements cq.IndexProber: the relation's cardinality in base ∪
// overlay, counting overlay tuples that shadow base ones twice (the
// evaluator only weighs it against a binding-set size).
func (v view) Count(rel string) int {
	n := len(v.overlay[rel])
	if v.snap != nil {
		return n + v.snap.Count(rel)
	}
	return n + v.base.Count(rel)
}

var _ cq.IndexProber = view{}

// ShardCount implements cq.ShardedSource by forwarding the pinned
// snapshot's sharding. It reports 0 (no fan-out) when the view has no
// snapshot or the overlay holds tuples for the relation — the contract
// requires the union of shards to equal Scan, and overlay tuples live in
// no shard.
func (v view) ShardCount(rel string) int {
	if v.snap == nil {
		return 0
	}
	if len(v.overlay[rel]) > 0 {
		return 0
	}
	if ss, ok := v.snap.(cq.ShardedSource); ok {
		return ss.ShardCount(rel)
	}
	return 0
}

// ScanShard implements cq.ShardedSource (see ShardCount).
func (v view) ScanShard(rel string, shard int, fn func(relation.Tuple) bool) {
	if v.snap == nil {
		return
	}
	if ss, ok := v.snap.(cq.ShardedSource); ok {
		ss.ScanShard(rel, shard, fn)
	}
}

// has reports presence in base ∪ overlay.
func (v view) has(rel string, t relation.Tuple) bool {
	if v.baseHas(rel, t) {
		return true
	}
	return v.overlay != nil && v.overlay.Has(rel, t)
}

// insertMany inserts into the session sink (LDB or overlay) and returns the
// genuinely new tuples.
func (v view) insertMany(rel string, ts []relation.Tuple) ([]relation.Tuple, error) {
	if v.overlay == nil {
		return v.base.InsertMany(rel, ts)
	}
	var fresh []relation.Tuple
	for _, t := range ts {
		if v.baseHas(rel, t) {
			continue
		}
		if v.overlay.Insert(rel, t) {
			fresh = append(fresh, t)
		}
	}
	return fresh, nil
}
