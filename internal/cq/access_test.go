package cq

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"codb/internal/relation"
	"codb/internal/storage"
)

var (
	_ IndexProber = (*storage.Snapshot)(nil)
	_ IndexProber = (*storage.DB)(nil)
)

// accessRels is the schema the access-path tests draw from (randomQuery's
// relations): p is small (a selective first atom), q and r are large
// enough that a join after a selective prefix takes the index probe.
var accessRels = []struct {
	name  string
	arity int
}{{"p", 1}, {"q", 2}, {"r", 3}}

// accessValue draws a small-domain value: mostly ints, sometimes a marked
// null (nulls join by label).
func accessValue(rnd *rand.Rand) relation.Value {
	if rnd.Intn(8) == 0 {
		return relation.Null(fmt.Sprintf("n%d", rnd.Intn(2)))
	}
	return relation.Int(rnd.Intn(8))
}

// accessData draws the tuples of one random database.
func accessData(rnd *rand.Rand) map[string][]relation.Tuple {
	sizes := map[string]int{"p": 2 + rnd.Intn(6), "q": 16 + rnd.Intn(48), "r": 16 + rnd.Intn(48)}
	data := make(map[string][]relation.Tuple)
	for _, rel := range accessRels {
		for i := 0; i < sizes[rel.name]; i++ {
			t := make(relation.Tuple, rel.arity)
			for j := range t {
				t[j] = accessValue(rnd)
			}
			data[rel.name] = append(data[rel.name], t)
		}
	}
	return data
}

// openAccessDB loads data into a fresh in-memory engine; indexed adds a
// secondary index on every attribute.
func openAccessDB(t *testing.T, data map[string][]relation.Tuple, shards int, indexed bool) *storage.DB {
	t.Helper()
	db, err := storage.Open(storage.Options{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	for _, rel := range accessRels {
		def := &relation.RelDef{Name: rel.name}
		for j := 0; j < rel.arity; j++ {
			def.Attrs = append(def.Attrs, relation.Attr{Name: fmt.Sprintf("a%d", j), Type: relation.TInt})
		}
		if err := db.DefineRelation(def); err != nil {
			t.Fatal(err)
		}
		if indexed {
			for _, a := range def.Attrs {
				if err := db.IndexOn(rel.name, a.Name); err != nil {
					t.Fatal(err)
				}
			}
		}
		if _, err := db.InsertMany(rel.name, data[rel.name]); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// indexedSource is what the storage engine and its snapshots offer.
type indexedSource interface {
	Source
	IndexProber
}

// probeCount forwards an indexedSource and counts its ScanEq calls.
type probeCount struct {
	indexedSource
	scanEqs int
}

func (c *probeCount) ScanEq(rel string, pos int, v relation.Value, fn func(relation.Tuple) bool) {
	c.scanEqs++
	c.indexedSource.ScanEq(rel, pos, v, fn)
}

// mustSameOrder fails unless got equals want tuple for tuple, in order.
func mustSameOrder(t *testing.T, what string, want, got []relation.Tuple) bool {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d answers, nested loop %d\n got  %v\n want %v", what, len(got), len(want), got, want)
		return false
	}
	for i := range want {
		if !got[i].Equal(want[i]) {
			t.Errorf("%s: answer %d = %v, nested loop %v", what, i, got[i], want[i])
			return false
		}
	}
	return true
}

// TestQuickAccessPathsMatchNestedLoop is the differential property of the
// per-step access paths (stream, index probe, hash build): on random
// queries over random data, the hash-join pipeline returns the nested-loop
// reference's answers in the same order, over storage snapshots at 1 and
// 4 shards and over the live engine with and without secondary indexes.
// It also checks that the index probe actually fired on indexed sources.
func TestQuickAccessPathsMatchNestedLoop(t *testing.T) {
	probed := make(map[string]int)
	f := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		data := accessData(rnd)
		sources := []struct {
			name string
			src  indexedSource
		}{
			{"snapshot/1", openAccessDB(t, data, 1, false).Snapshot()},
			{"snapshot/4", openAccessDB(t, data, 4, false).Snapshot()},
			{"live", openAccessDB(t, data, 1+3*rnd.Intn(2), false)},
			{"live-indexed", openAccessDB(t, data, 1+3*rnd.Intn(2), true)},
		}
		ok := true
		for i := 0; i < 4; i++ {
			q := randomQuery(rnd, accessValue)
			for _, s := range sources {
				want, err := Eval(q, s.src, EvalOptions{Strategy: NestedLoop})
				if err != nil {
					t.Fatalf("%s: nested loop: %v", q, err)
				}
				spy := &probeCount{indexedSource: s.src}
				got, err := Eval(q, spy, EvalOptions{})
				if err != nil {
					t.Fatalf("%s: hash join: %v", q, err)
				}
				ok = mustSameOrder(t, fmt.Sprintf("seed %d, %s, %s", seed, s.name, q), want, got) && ok
				// Constant pushdown issues at most one ScanEq per atom;
				// more means a join step probed the index.
				if spy.scanEqs > len(q.Body) {
					probed[s.name]++
				}
			}
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
	for _, name := range []string{"snapshot/1", "snapshot/4", "live-indexed"} {
		if probed[name] == 0 {
			t.Errorf("%s: no query took the index-probe path", name)
		}
	}
	if probed["live"] != 0 {
		t.Errorf("live engine without indexes took the index-probe path %d times", probed["live"])
	}
}

// serveData returns n data(k, v) tuples with distinct keys and values
// drawn from the keys — the shape of the gateway's serve workload — and
// the threshold c for which the serve query's x >= c selects 64 keys.
func serveData(n int, seed int64) ([]relation.Tuple, int) {
	rnd := rand.New(rand.NewSource(seed))
	seen := make(map[int]bool, n)
	keys := make([]int, 0, n)
	for len(keys) < n {
		if k := rnd.Intn(1 << 30); !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	tuples := make([]relation.Tuple, n)
	for i, k := range keys {
		tuples[i] = relation.Tuple{relation.Int(k), relation.Int(keys[rnd.Intn(n)])}
	}
	sort.Ints(keys)
	return tuples, keys[n-64]
}

func serveQuery(c int) *Query {
	return MustParseQuery(fmt.Sprintf(`ans(x, z) :- data(x, y), data(y, z), x >= %d`, c))
}

// TestAccessPathServeQuery pins the plan of the gateway's serve query
// ans(x,z) :- data(x,y), data(y,z), x >= c: one full scan streams the
// first atom, then the second atom is probed with one ScanEq per surviving
// binding on its join position — no second full scan. Without an index on
// the join position the second atom falls back to one hash build. The
// answers match the nested-loop reference in both cases.
func TestAccessPathServeQuery(t *testing.T) {
	tuples, c := serveData(1000, 1)
	in := relation.NewInstance()
	for _, tp := range tuples {
		in.Insert("data", tp)
	}
	q := serveQuery(c)
	want, err := Eval(q, in, EvalOptions{Strategy: NestedLoop})
	if err != nil {
		t.Fatal(err)
	}

	spy := &eqSpy{Instance: in, indexed: map[int]bool{0: true}}
	got, err := Eval(q, spy, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mustSameOrder(t, "index probe", want, got)
	if spy.scans != 1 {
		t.Errorf("index probe: %d full scans, want 1", spy.scans)
	}
	if len(spy.eqPos) != 64 {
		t.Errorf("index probe: %d ScanEq calls, want one per binding (64)", len(spy.eqPos))
	}
	for _, pos := range spy.eqPos {
		if pos != 0 {
			t.Fatalf("index probe on position %d, want the join position 0", pos)
		}
	}

	noIndex := &eqSpy{Instance: in, indexed: map[int]bool{1: true}}
	got, err = Eval(q, noIndex, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mustSameOrder(t, "hash build", want, got)
	if noIndex.scans != 2 || len(noIndex.eqPos) != 0 {
		t.Errorf("unindexed join position: %d scans and %d ScanEq calls, want 2 and 0", noIndex.scans, len(noIndex.eqPos))
	}

	// A binding set that is not small next to the relation keeps the hash
	// build even on an index: with x >= 0 every tuple survives atom 1.
	all := &eqSpy{Instance: in, indexed: map[int]bool{0: true}}
	if _, err := Eval(serveQuery(0), all, EvalOptions{}); err != nil {
		t.Fatal(err)
	}
	if all.scans != 2 || len(all.eqPos) != 0 {
		t.Errorf("large binding set: %d scans and %d ScanEq calls, want 2 and 0", all.scans, len(all.eqPos))
	}

	// Streaming the first atom and probing the second allocate per answer,
	// not per tuple of the relation: a whole-relation hash build clones
	// every tuple.
	big, bigC := serveData(4000, 3)
	snap := openServeDB(t, big, 4).Snapshot()
	bigQ := serveQuery(bigC)
	Eval(bigQ, snap, EvalOptions{}) // build the secondary views
	if allocs := testing.AllocsPerRun(5, func() { Eval(bigQ, snap, EvalOptions{}) }); allocs > float64(len(big))/2 {
		t.Errorf("serve query over a snapshot: %.0f allocations for %d tuples", allocs, len(big))
	}
}

// TestAccessPathLiveDBNeedsIndex checks that the live engine is probed
// through ScanEq only on an attribute it holds a secondary index for: its
// unindexed ScanEq is a filtered full scan, so one per binding would be
// quadratic.
func TestAccessPathLiveDBNeedsIndex(t *testing.T) {
	tuples, c := serveData(1000, 2)
	db := openServeDB(t, tuples, 2)
	q := serveQuery(c)
	want, err := Eval(q, db, EvalOptions{Strategy: NestedLoop})
	if err != nil {
		t.Fatal(err)
	}
	spy := &probeCount{indexedSource: db}
	got, err := Eval(q, spy, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mustSameOrder(t, "live, no index", want, got)
	if spy.scanEqs != 0 {
		t.Errorf("live engine without an index on the join attribute: %d ScanEq probes", spy.scanEqs)
	}

	if err := db.IndexOn("data", "v"); err != nil {
		t.Fatal(err)
	}
	spy.scanEqs = 0
	Eval(q, spy, EvalOptions{})
	if spy.scanEqs != 0 {
		t.Errorf("live engine indexed off the join attribute: %d ScanEq probes", spy.scanEqs)
	}

	if err := db.IndexOn("data", "k"); err != nil {
		t.Fatal(err)
	}
	spy.scanEqs = 0
	got, err = Eval(q, spy, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mustSameOrder(t, "live, indexed", want, got)
	if spy.scanEqs != 64 {
		t.Errorf("live engine indexed on the join attribute: %d ScanEq probes, want 64", spy.scanEqs)
	}
}

// openServeDB loads data(k, v) tuples into a fresh in-memory engine.
func openServeDB(t testing.TB, tuples []relation.Tuple, shards int) *storage.DB {
	t.Helper()
	db, err := storage.Open(storage.Options{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	def := &relation.RelDef{Name: "data", Attrs: []relation.Attr{{Name: "k", Type: relation.TInt}, {Name: "v", Type: relation.TInt}}}
	if err := db.DefineRelation(def); err != nil {
		t.Fatal(err)
	}
	if _, err := db.InsertMany("data", tuples); err != nil {
		t.Fatal(err)
	}
	return db
}

// BenchmarkServeSelfJoin evaluates the gateway's serve query over a
// snapshot of n data tuples whose values are drawn from the keys; x >= c
// selects 64 keys. The first atom streams and the second is probed through
// the snapshot's secondary view, so the cost follows the answers, not n.
func BenchmarkServeSelfJoin(b *testing.B) {
	for _, n := range []int{6400, 20000} {
		b.Run(fmt.Sprintf("tuples=%d", n), func(b *testing.B) {
			tuples, c := serveData(n, 1)
			snap := openServeDB(b, tuples, 1).Snapshot()
			q := serveQuery(c)
			want, err := Eval(q, snap, EvalOptions{Strategy: NestedLoop})
			if err != nil {
				b.Fatal(err)
			}
			got, err := Eval(q, snap, EvalOptions{})
			if err != nil {
				b.Fatal(err)
			}
			if len(got) != len(want) {
				b.Fatalf("%d answers, nested loop %d", len(got), len(want))
			}
			for i := range want {
				if !got[i].Equal(want[i]) {
					b.Fatalf("answer %d = %v, nested loop %v", i, got[i], want[i])
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Eval(q, snap, EvalOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
