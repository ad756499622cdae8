package core

import (
	"fmt"
	"math/rand"
	"testing"

	"codb/internal/cq"
	"codb/internal/relation"
	"codb/internal/storage"
)

// TestQuickViewAccessPathsMatchNestedLoop is the session-view leg of the
// access-path property (cq's TestQuickAccessPathsMatchNestedLoop covers
// the storage sources): random queries over a snapshot-pinned view with a
// query-session overlay return the nested-loop reference's answers in the
// same order. The overlay holds tuples for some relations — both new ones
// and ones shadowing the base — so joins over overlay-free relations take
// the snapshot's index probe while the others keep the hash build.
func TestQuickViewAccessPathsMatchNestedLoop(t *testing.T) {
	arity := map[string]int{"p": 1, "q": 2, "r": 3}
	rels := []string{"p", "q", "r"}
	value := func(rnd *rand.Rand) relation.Value {
		if rnd.Intn(8) == 0 {
			return relation.Null(fmt.Sprintf("n%d", rnd.Intn(2)))
		}
		return relation.Int(rnd.Intn(8))
	}
	tuple := func(rnd *rand.Rand, rel string) relation.Tuple {
		t := make(relation.Tuple, arity[rel])
		for j := range t {
			t[j] = value(rnd)
		}
		return t
	}
	probed := 0
	for seed := int64(0); seed < 60; seed++ {
		rnd := rand.New(rand.NewSource(seed))
		db, err := storage.Open(storage.Options{Shards: 1 + 3*rnd.Intn(2)})
		if err != nil {
			t.Fatal(err)
		}
		overlay := relation.NewInstance()
		for _, rel := range rels {
			def := &relation.RelDef{Name: rel}
			for j := 0; j < arity[rel]; j++ {
				def.Attrs = append(def.Attrs, relation.Attr{Name: fmt.Sprintf("a%d", j), Type: relation.TInt})
			}
			if err := db.DefineRelation(def); err != nil {
				t.Fatal(err)
			}
			n := 16 + rnd.Intn(48)
			if rel == "p" {
				n = 2 + rnd.Intn(6)
			}
			var ts []relation.Tuple
			for i := 0; i < n; i++ {
				ts = append(ts, tuple(rnd, rel))
			}
			if _, err := db.InsertMany(rel, ts); err != nil {
				t.Fatal(err)
			}
			if rnd.Intn(2) == 0 {
				for i := rnd.Intn(6); i >= 0; i-- {
					overlay.Insert(rel, tuple(rnd, rel))
				}
				overlay.Insert(rel, ts[0]) // shadows a base tuple
			}
		}
		v := view{base: NewStoreWrapper(db), snap: db.Snapshot(), overlay: overlay}
		for _, rel := range rels {
			if got, want := v.EqIndexed(rel, 0), len(overlay[rel]) == 0; got != want {
				t.Fatalf("seed %d: EqIndexed(%s) = %v with %d overlay tuples", seed, rel, got, len(overlay[rel]))
			}
		}
		for i := 0; i < 6; i++ {
			q := randomViewQuery(rnd, rels, arity, value)
			want, err := cq.Eval(q, v, cq.EvalOptions{Strategy: cq.NestedLoop})
			if err != nil {
				t.Fatalf("%s: nested loop: %v", q, err)
			}
			spy := &viewProbeCount{view: v}
			got, err := cq.Eval(q, spy, cq.EvalOptions{})
			if err != nil {
				t.Fatalf("%s: hash join: %v", q, err)
			}
			mustEqualTuples(t, fmt.Sprintf("seed %d, %s", seed, q), want, got)
			// Constant pushdown issues at most one ScanEq per atom; more
			// means a join step probed the snapshot's index.
			if spy.scanEqs > len(q.Body) {
				probed++
			}
		}
		db.Close()
	}
	if probed == 0 {
		t.Error("no query took the index-probe path through the view")
	}
}

// viewProbeCount forwards a view and counts its ScanEq calls.
type viewProbeCount struct {
	view
	scanEqs int
}

func (c *viewProbeCount) ScanEq(rel string, pos int, v relation.Value, fn func(relation.Tuple) bool) {
	c.scanEqs++
	c.view.ScanEq(rel, pos, v, fn)
}

// randomViewQuery builds a random safe query: up to four atoms over the
// given relations, variables from a small pool (self-joins and repeated
// variables), constants from value, and up to two comparisons.
func randomViewQuery(rnd *rand.Rand, rels []string, arity map[string]int, value func(*rand.Rand) relation.Value) *cq.Query {
	pool := []string{"a", "b", "c", "d"}
	var body []cq.Atom
	for i := rnd.Intn(4) + 1; i > 0; i-- {
		rel := rels[rnd.Intn(len(rels))]
		terms := make([]cq.Term, arity[rel])
		for j := range terms {
			if rnd.Intn(6) == 0 {
				terms[j] = cq.C(value(rnd))
			} else {
				terms[j] = cq.V(pool[rnd.Intn(len(pool))])
			}
		}
		body = append(body, cq.Atom{Rel: rel, Terms: terms})
	}
	var vars []string
	for _, a := range body {
		vars = a.Vars(vars)
	}
	head := cq.Atom{Rel: "ans", Terms: []cq.Term{cq.C(relation.Int(0))}}
	if len(vars) > 0 {
		head.Terms = nil
		for i := rnd.Intn(len(vars)) + 1; i > 0; i-- {
			head.Terms = append(head.Terms, cq.V(vars[rnd.Intn(len(vars))]))
		}
	}
	var cmps []cq.Comparison
	ops := []cq.CmpOp{cq.OpEq, cq.OpNe, cq.OpLt, cq.OpLe, cq.OpGt, cq.OpGe}
	for i := rnd.Intn(3); i > 0 && len(vars) > 0; i-- {
		r := cq.C(relation.Int(rnd.Intn(8)))
		if rnd.Intn(2) == 0 {
			r = cq.V(vars[rnd.Intn(len(vars))])
		}
		cmps = append(cmps, cq.Comparison{Op: ops[rnd.Intn(len(ops))], L: cq.V(vars[rnd.Intn(len(vars))]), R: r})
	}
	return &cq.Query{Head: head, Body: body, Cmps: cmps}
}
