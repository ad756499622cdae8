package cq

import (
	"fmt"
	"sort"
	"sync"

	"codb/internal/relation"
)

// Source is any provider of relation scans: the storage engine, a
// relation.Instance, or a peer's overlay view all satisfy it.
type Source interface {
	Scan(rel string, fn func(relation.Tuple) bool)
}

// EqScanner is optionally implemented by sources that can enumerate the
// tuples with a fixed value at one position, in tuple-key order, more
// cheaply than a full scan (the storage engine's secondary indexes do).
// The evaluator scans an atom that carries a constant through it, on the
// atom's first constant position; sources that also implement IndexProber
// additionally serve join-key probes through it.
type EqScanner interface {
	ScanEq(rel string, pos int, v relation.Value, fn func(relation.Tuple) bool)
}

// IndexProber is optionally implemented by EqScanners that can tell, per
// position, whether ScanEq is a real index lookup — O(log n + matches) —
// rather than a filtered full scan. At a join step whose key is bound, the
// hash-join pipeline then calls ScanEq once per partial binding on an
// indexed key position instead of hashing the whole relation, provided
// the binding set is small next to the relation's Count (see
// indexProbeShare).
type IndexProber interface {
	EqScanner
	EqIndexed(rel string, pos int) bool
	Count(rel string) int
}

// ShardedSource is optionally implemented by sources whose relations are
// hash-partitioned into independently scannable shards (the storage
// engine's snapshots are). With EvalOptions.Parallelism > 1 the hash-join
// build phase fans its scan out across shards — safe only because such
// sources are immutable views, so per-shard scans at different times still
// observe one consistent state. Per-shard iteration must be in key order;
// the union of all shards must equal Scan's tuples.
type ShardedSource interface {
	ShardCount(rel string) int
	ScanShard(rel string, shard int, fn func(relation.Tuple) bool)
}

// Strategy selects the join algorithm.
type Strategy uint8

const (
	// HashJoin builds hash tables on shared variables (default).
	HashJoin Strategy = iota
	// NestedLoop re-scans each atom per partial binding; kept for the A3
	// ablation and as a correctness reference.
	NestedLoop
)

// EvalOptions tunes evaluation.
type EvalOptions struct {
	Strategy Strategy
	// Parallelism caps the worker fan-out of the hash-join probe phase:
	// once the partial-binding set is large enough (it originates from the
	// partitions of the outermost atom's scan), each join stage probes its
	// partitions on up to this many goroutines. 0 or 1 evaluates serially;
	// the nested-loop strategy (a correctness reference) is always serial.
	// Results are identical to serial evaluation, in the same order.
	Parallelism int
}

// parallelMinBindings is the binding-set size below which a probe stays
// serial: fan-out overhead (goroutines, per-worker slices) only pays off
// against relations large enough to matter.
const parallelMinBindings = 256

// indexProbeShare bounds the index-probe access path: a join step probes
// the source's index once per partial binding only while the binding set
// holds at most 1/indexProbeShare of the relation's tuples. Past that, one
// hash build over the relation is cheaper than that many index probes.
const indexProbeShare = 8

// Eval evaluates a conjunctive query over src and returns the deduplicated
// head tuples.
func Eval(q *Query, src Source, opts EvalOptions) ([]relation.Tuple, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	return evalProject(q.Head.Terms, q.Body, q.Cmps, src, nil, nil, opts)
}

// EvalBindings evaluates the body and projects the bindings onto outVars.
// Every outVar must be bound by the body.
func EvalBindings(body []Atom, cmps []Comparison, outVars []string, src Source, opts EvalOptions) ([]relation.Tuple, error) {
	terms := make([]Term, len(outVars))
	for i, v := range outVars {
		terms[i] = V(v)
	}
	var bodyVars []string
	for _, a := range body {
		bodyVars = a.Vars(bodyVars)
	}
	for _, v := range outVars {
		if !contains(bodyVars, v) {
			return nil, fmt.Errorf("cq: output variable %s not bound by the body", v)
		}
	}
	return evalProject(terms, body, cmps, src, nil, nil, opts)
}

// EvalDelta performs the semi-naive step: it evaluates the body with one
// occurrence of deltaRel at a time restricted to the delta tuples (all other
// atoms over the full source), unioning the projections. Sound and complete
// for "results that use at least one delta tuple".
func EvalDelta(body []Atom, cmps []Comparison, outVars []string, src Source, deltaRel string, delta []relation.Tuple, opts EvalOptions) ([]relation.Tuple, error) {
	terms := make([]Term, len(outVars))
	for i, v := range outVars {
		terms[i] = V(v)
	}
	seen := make(map[string]bool)
	var out []relation.Tuple
	for i := range body {
		if body[i].Rel != deltaRel {
			continue
		}
		idx := i
		res, err := evalProject(terms, body, cmps, src, &idx, delta, opts)
		if err != nil {
			return nil, err
		}
		for _, t := range res {
			k := t.Key()
			if !seen[k] {
				seen[k] = true
				out = append(out, t)
			}
		}
	}
	return out, nil
}

// FilterCertain drops tuples containing marked nulls: the certain-answer
// semantics for unions of conjunctive queries over naive tables.
func FilterCertain(ts []relation.Tuple) []relation.Tuple {
	out := ts[:0:0]
	for _, t := range ts {
		if !t.HasNull() {
			out = append(out, t)
		}
	}
	return out
}

// binding is a partial assignment: values parallel to the compiled variable
// list. Which variables it binds follows from the plan — once atoms[0:i]
// are joined, exactly their variables are — so it carries no bound mask.
type binding []relation.Value

func (p *plan) newBinding() binding { return make(binding, len(p.vars)) }

func (b binding) clone() binding {
	nb := make(binding, len(b))
	copy(nb, b)
	return nb
}

// compiled plan over one body.
type plan struct {
	vars     []string
	varIdx   map[string]int
	bodyVars int // vars[:bodyVars] occur in atoms; the rest only in comparisons
	atoms    []patom
	cmps     []pcmp
}

type patom struct {
	rel    string
	varPos []int            // per term: variable index, or -1 for constant
	consts []relation.Value // per term: constant when varPos == -1
	binds  []bool           // per term: first occurrence of its variable in plan order
	delta  bool             // scan the delta slice instead of src
}

type pcmp struct {
	op           CmpOp
	lVar, rVar   int // variable index or -1
	lConst       relation.Value
	rConst       relation.Value
	lastVarAtoms int // applicable once atoms[0:lastVarAtoms] are joined
}

// compile builds the plan: atom order chosen greedily (delta atom first,
// then most-constants, then max shared bound variables).
func compile(body []Atom, cmps []Comparison, deltaAtom *int) *plan {
	p := &plan{varIdx: make(map[string]int)}
	intern := func(v string) int {
		if i, ok := p.varIdx[v]; ok {
			return i
		}
		i := len(p.vars)
		p.vars = append(p.vars, v)
		p.varIdx[v] = i
		return i
	}

	// Greedy ordering over original indices.
	remaining := make([]int, len(body))
	for i := range remaining {
		remaining[i] = i
	}
	atomVars := make([][]string, len(body))
	for i, a := range body {
		atomVars[i] = a.Vars(nil)
	}
	boundVars := make(map[string]bool)
	var order []int
	for len(remaining) > 0 {
		best, bestScore := -1, -1<<30
		for ri, ai := range remaining {
			score := 0
			if deltaAtom != nil && ai == *deltaAtom {
				score += 1 << 20 // delta atom leads
			}
			for _, t := range body[ai].Terms {
				if !t.IsVar() {
					score += 4
				}
			}
			shared := 0
			for _, v := range atomVars[ai] {
				if boundVars[v] {
					shared++
				}
			}
			if len(order) > 0 && shared == 0 && score < 1<<20 {
				score -= 1 << 10 // discourage cartesian products
			}
			score += shared * 16
			if score > bestScore {
				bestScore, best = score, ri
			}
		}
		ai := remaining[best]
		remaining = append(remaining[:best], remaining[best+1:]...)
		order = append(order, ai)
		for _, v := range atomVars[ai] {
			boundVars[v] = true
		}
	}

	for _, ai := range order {
		a := body[ai]
		pa := patom{rel: a.Rel, varPos: make([]int, len(a.Terms)), consts: make([]relation.Value, len(a.Terms)), binds: make([]bool, len(a.Terms))}
		for ti, t := range a.Terms {
			if t.IsVar() {
				n := len(p.vars)
				pa.varPos[ti] = intern(t.Var)
				pa.binds[ti] = pa.varPos[ti] == n
			} else {
				pa.varPos[ti] = -1
				pa.consts[ti] = t.Const
			}
		}
		if deltaAtom != nil && ai == *deltaAtom {
			pa.delta = true
		}
		p.atoms = append(p.atoms, pa)
	}
	p.bodyVars = len(p.vars)

	// Compile comparisons and find the earliest prefix after which each is
	// fully bound.
	for _, c := range cmps {
		pc := pcmp{op: c.Op, lVar: -1, rVar: -1}
		if c.L.IsVar() {
			pc.lVar = intern(c.L.Var)
		} else {
			pc.lConst = c.L.Const
		}
		if c.R.IsVar() {
			pc.rVar = intern(c.R.Var)
		} else {
			pc.rConst = c.R.Const
		}
		need := make(map[int]bool)
		if pc.lVar >= 0 {
			need[pc.lVar] = true
		}
		if pc.rVar >= 0 {
			need[pc.rVar] = true
		}
		bound := make(map[int]bool)
		pc.lastVarAtoms = len(p.atoms) // default: apply at the very end
		for i, pa := range p.atoms {
			for _, vp := range pa.varPos {
				if vp >= 0 {
					bound[vp] = true
				}
			}
			all := true
			for v := range need {
				if !bound[v] {
					all = false
					break
				}
			}
			if all {
				pc.lastVarAtoms = i + 1
				break
			}
		}
		if len(need) == 0 {
			// All-constant comparison: check after the first atom (there
			// is always at least one; empty bodies are rejected earlier).
			pc.lastVarAtoms = 1
		}
		p.cmps = append(p.cmps, pc)
	}
	return p
}

func (c *pcmp) eval(b binding) bool {
	l, r := c.lConst, c.rConst
	if c.lVar >= 0 {
		l = b[c.lVar]
	}
	if c.rVar >= 0 {
		r = b[c.rVar]
	}
	return c.op.Eval(l, r)
}

// unify extends b, which binds the variables of the atoms before pa, with
// tuple t against pa. It writes only pa's binding positions (all of them
// when it succeeds) and returns false on mismatch.
func unify(pa *patom, t relation.Tuple, b binding) bool {
	if len(t) != len(pa.varPos) {
		return false
	}
	for i, vp := range pa.varPos {
		switch {
		case vp < 0:
			if t[i] != pa.consts[i] {
				return false
			}
		case pa.binds[i]:
			b[vp] = t[i]
		case b[vp] != t[i]:
			return false
		}
	}
	return true
}

// evalProject compiles the body, evaluates it, and projects the bindings
// through the given head terms (variables or constants), deduplicating the
// result. deltaAtom (an index into body) and delta restrict one atom
// occurrence to the delta tuples.
func evalProject(terms []Term, body []Atom, cmps []Comparison, src Source, deltaAtom *int, delta []relation.Tuple, opts EvalOptions) ([]relation.Tuple, error) {
	if len(body) == 0 {
		return nil, fmt.Errorf("cq: empty body")
	}
	p := compile(body, cmps, deltaAtom)
	var bindings []binding
	switch opts.Strategy {
	case NestedLoop:
		bindings = p.evalNested(src, delta)
	default:
		bindings = p.evalHash(src, delta, opts.Parallelism)
	}
	seen := make(map[string]bool, len(bindings))
	var out []relation.Tuple
	for _, b := range bindings {
		t := make(relation.Tuple, len(terms))
		for i, term := range terms {
			if !term.IsVar() {
				t[i] = term.Const
				continue
			}
			vi, ok := p.varIdx[term.Var]
			if !ok || vi >= p.bodyVars {
				return nil, fmt.Errorf("cq: projection variable %s not bound", term.Var)
			}
			t[i] = b[vi]
		}
		k := t.Key()
		if !seen[k] {
			seen[k] = true
			out = append(out, t)
		}
	}
	return out, nil
}

func (p *plan) scanAtom(src Source, pa *patom, delta []relation.Tuple, fn func(relation.Tuple) bool) {
	if pa.delta {
		for _, t := range delta {
			if !fn(t) {
				return
			}
		}
		return
	}
	// Constant pushdown: let an index-capable source enumerate only the
	// tuples matching the atom's first constant. unify re-checks every
	// constant, so this is purely an access-path optimisation.
	if eq, ok := src.(EqScanner); ok {
		for ti, vp := range pa.varPos {
			if vp < 0 {
				eq.ScanEq(pa.rel, ti, pa.consts[ti], fn)
				return
			}
		}
	}
	src.Scan(pa.rel, fn)
}

// evalNested is the nested-loop strategy: depth-first over atoms.
func (p *plan) evalNested(src Source, delta []relation.Tuple) []binding {
	var out []binding
	var rec func(i int, b binding)
	rec = func(i int, b binding) {
		if i == len(p.atoms) {
			out = append(out, b.clone())
			return
		}
		pa := &p.atoms[i]
		p.scanAtom(src, pa, delta, func(t relation.Tuple) bool {
			nb := b.clone()
			if !unify(pa, t, nb) {
				return true
			}
			for ci := range p.cmps {
				if p.cmps[ci].lastVarAtoms == i+1 && !p.cmps[ci].eval(nb) {
					return true
				}
			}
			rec(i+1, nb)
			return true
		})
	}
	rec(0, p.newBinding())
	return out
}

// evalHash is the hash-join strategy: a pipeline of partial-binding sets,
// extended one atom at a time. Each step picks its access path:
//
//   - index probe: the atom's join key is bound, the source's ScanEq is an
//     index lookup on a key position (IndexProber), and the binding set is
//     small next to the relation — one ScanEq per binding (probeIndex);
//   - stream: the binding set is a single binding (the first atom, or a
//     step after a one-row prefix) — the atom is scanned straight into
//     bindings, constant pushdown included, with no bucket (stream);
//   - hash build: otherwise — bucket the atom's tuples by join key
//     (buildBuckets) and probe the buckets (probe).
//
// All three enumerate each binding's partners in tuple-key order (ScanEq
// and every scan deliver it, and buckets are filled by such a scan), so
// the answers are identical, in the same order, whichever path a step
// takes. With parallelism > 1, once the binding set is large a hash step's
// probe fans out over partitions of it (the build phase — one scan per
// atom — and the other paths stay serial, so sources only ever see
// sequential access).
func (p *plan) evalHash(src Source, delta []relation.Tuple, parallelism int) []binding {
	cur := []binding{p.newBinding()}
	boundSoFar := make([]bool, len(p.vars))
	for i := range p.atoms {
		pa := &p.atoms[i]
		// Join key: positions of atom terms whose variable is already bound.
		var keyTermIdx []int
		for ti, vp := range pa.varPos {
			if vp >= 0 && boundSoFar[vp] {
				keyTermIdx = append(keyTermIdx, ti)
			}
		}
		if ix, pos := indexProbe(src, pa, keyTermIdx, len(cur)); ix != nil {
			cur = p.probeIndex(ix, cur, pa, i, pos)
		} else if len(cur) == 1 {
			cur = p.stream(src, pa, i, delta, cur[0])
		} else {
			buckets := p.buildBuckets(src, pa, delta, keyTermIdx, parallelism)
			cur = p.probe(cur, pa, i, keyTermIdx, buckets, parallelism)
		}
		for _, vp := range pa.varPos {
			if vp >= 0 {
				boundSoFar[vp] = true
			}
		}
		if len(cur) == 0 {
			return nil
		}
	}
	return cur
}

// extend unifies t into scratch — a copy of the partial binding being
// extended — and applies the comparisons decidable once atom atomIdx is
// joined. unify writes only the atom's binding positions, all of them on
// success, so scratch stays a copy of that binding everywhere else and
// needs no reset between candidates: every probe path matches its
// candidates into one scratch binding this way and clones only survivors.
func (p *plan) extend(pa *patom, atomIdx int, scratch binding, t relation.Tuple) bool {
	if !unify(pa, t, scratch) {
		return false
	}
	for ci := range p.cmps {
		if p.cmps[ci].lastVarAtoms == atomIdx+1 && !p.cmps[ci].eval(scratch) {
			return false
		}
	}
	return true
}

// stream joins an atom onto a single partial binding by scanning it
// straight into bindings: the scan is scanAtom's (delta slice or constant
// pushdown), so its order is the order a bucket filled by that scan has.
func (p *plan) stream(src Source, pa *patom, atomIdx int, delta []relation.Tuple, b binding) []binding {
	var next []binding
	scratch := b.clone()
	p.scanAtom(src, pa, delta, func(t relation.Tuple) bool {
		if p.extend(pa, atomIdx, scratch, t) {
			next = append(next, scratch.clone())
		}
		return true
	})
	return next
}

// indexProbe picks the index-probe access path for a join step: it returns
// the source and the atom position to probe, or nil to keep the hash
// build. The step qualifies when the atom reads the source (not the delta
// slice), some bound key position is indexed, and the binding set holds at
// most 1/indexProbeShare of the relation.
func indexProbe(src Source, pa *patom, keyTermIdx []int, nBindings int) (IndexProber, int) {
	ix, ok := src.(IndexProber)
	if !ok || pa.delta {
		return nil, -1
	}
	for _, ti := range keyTermIdx {
		if ix.EqIndexed(pa.rel, ti) {
			if nBindings*indexProbeShare > ix.Count(pa.rel) {
				return nil, -1
			}
			return ix, ti
		}
	}
	return nil, -1
}

// probeIndex extends every partial binding through one ScanEq on the
// bound key position pos; unify re-checks the rest of the atom. ScanEq
// yields the matches in tuple-key order, the order of the bucket a hash
// build would have filled.
func (p *plan) probeIndex(ix EqScanner, cur []binding, pa *patom, atomIdx, pos int) []binding {
	var next []binding
	scratch := p.newBinding()
	fn := func(t relation.Tuple) bool {
		if p.extend(pa, atomIdx, scratch, t) {
			next = append(next, scratch.clone())
		}
		return true
	}
	vp := pa.varPos[pos]
	for _, b := range cur {
		copy(scratch, b)
		ix.ScanEq(pa.rel, pos, b[vp], fn)
	}
	return next
}

// buildBuckets is the build phase of a hash step — taken when neither an
// index probe nor streaming applies: bucket the atom's tuples by join key
// (also filtering constants; intra-atom repeated variables are re-checked
// via unify at probe time). When the source
// exposes hash-sharded relations (ShardedSource — storage snapshots do)
// and parallelism allows, the scan fans out across shards on a worker
// pool; each bucket is then re-sorted into tuple order, so the bucket
// contents are bit-identical to the serial scan's (tuple keys are unique
// and serial scans deliver global key order).
func (p *plan) buildBuckets(src Source, pa *patom, delta []relation.Tuple, keyTermIdx []int, parallelism int) map[string][]relation.Tuple {
	collect := func(buckets map[string][]relation.Tuple) func(relation.Tuple) bool {
		return func(t relation.Tuple) bool {
			if len(t) != len(pa.varPos) {
				return true
			}
			for ti, vp := range pa.varPos {
				if vp < 0 && t[ti] != pa.consts[ti] {
					return true
				}
			}
			var kb []byte
			for _, ti := range keyTermIdx {
				kb = relation.EncodeValue(kb, t[ti])
			}
			k := string(kb)
			buckets[k] = append(buckets[k], t.Clone())
			return true
		}
	}
	if ss, ok := shardableScan(src, pa, delta, parallelism); ok {
		n := ss.ShardCount(pa.rel)
		workers := parallelism
		if workers > n {
			workers = n
		}
		parts := make([]map[string][]relation.Tuple, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				m := make(map[string][]relation.Tuple)
				fn := collect(m)
				for sh := w; sh < n; sh += workers {
					ss.ScanShard(pa.rel, sh, fn)
				}
				parts[w] = m
			}(w)
		}
		wg.Wait()
		buckets := parts[0]
		for _, m := range parts[1:] {
			for k, ts := range m {
				buckets[k] = append(buckets[k], ts...)
			}
		}
		for _, ts := range buckets {
			if len(ts) > 1 {
				sort.Slice(ts, func(i, j int) bool { return ts[i].Compare(ts[j]) < 0 })
			}
		}
		return buckets
	}
	buckets := make(map[string][]relation.Tuple)
	p.scanAtom(src, pa, delta, collect(buckets))
	return buckets
}

// shardableScan reports whether the atom's build scan may fan out per
// shard: a non-delta atom, no constant-pushdown access path in play
// (scanAtom would prefer ScanEq), a sharded source, more than one shard,
// and parallelism enabled.
func shardableScan(src Source, pa *patom, delta []relation.Tuple, parallelism int) (ShardedSource, bool) {
	if pa.delta || parallelism <= 1 {
		return nil, false
	}
	if _, eq := src.(EqScanner); eq {
		for _, vp := range pa.varPos {
			if vp < 0 {
				return nil, false // constant pushdown wins
			}
		}
	}
	ss, ok := src.(ShardedSource)
	if !ok || ss.ShardCount(pa.rel) <= 1 {
		return nil, false
	}
	return ss, true
}

// probe extends every partial binding with the matching tuples of one atom.
// Large binding sets are probed by a worker pool over contiguous partitions;
// buckets and the plan are read-only during the probe, each worker appends
// to its own output, and outputs concatenate in partition order, so the
// result is bit-identical to the serial probe.
func (p *plan) probe(cur []binding, pa *patom, atomIdx int, keyTermIdx []int, buckets map[string][]relation.Tuple, parallelism int) []binding {
	workers := parallelism
	if limit := len(cur) / parallelMinBindings; workers > limit {
		workers = limit
	}
	if workers <= 1 {
		return p.probeRange(cur, pa, atomIdx, keyTermIdx, buckets)
	}
	parts := make([][]binding, workers)
	var wg sync.WaitGroup
	chunk := (len(cur) + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > len(cur) {
			hi = len(cur)
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			parts[w] = p.probeRange(cur[lo:hi], pa, atomIdx, keyTermIdx, buckets)
		}(w, lo, hi)
	}
	wg.Wait()
	total := 0
	for _, part := range parts {
		total += len(part)
	}
	next := make([]binding, 0, total)
	for _, part := range parts {
		next = append(next, part...)
	}
	return next
}

// probeRange is the serial probe over one partition of the binding set.
func (p *plan) probeRange(cur []binding, pa *patom, atomIdx int, keyTermIdx []int, buckets map[string][]relation.Tuple) []binding {
	var next []binding
	scratch := p.newBinding()
	var kb []byte
	for _, b := range cur {
		kb = kb[:0]
		for _, ti := range keyTermIdx {
			kb = relation.EncodeValue(kb, b[pa.varPos[ti]])
		}
		copy(scratch, b)
		for _, t := range buckets[string(kb)] {
			if p.extend(pa, atomIdx, scratch, t) {
				next = append(next, scratch.clone())
			}
		}
	}
	return next
}
