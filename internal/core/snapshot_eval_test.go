package core

import (
	"fmt"
	"math/rand"
	"testing"

	"codb/internal/chase"
	"codb/internal/cq"
	"codb/internal/msg"
	"codb/internal/relation"
	"codb/internal/storage"
)

// snapshotEvalTemplates are the rule shapes the snapshot-vs-serial property
// runs: copy, projection with an existential head, self-join, constant
// pushdown (ScanEq), and a join whose first atom is constant-restricted.
// All are incoming links of node "exp" (Source == Self), as exportSince
// evaluates them.
var snapshotEvalTemplates = []string{
	`imp.out(x, y) <- exp.data(x, y)`,
	`imp.out(x, z) <- exp.data(x, y)`,
	`imp.out(x, z) <- exp.data(x, y), exp.data(y, z)`,
	`imp.big(x, y) <- exp.big(x, y, 7)`,
	`imp.out(x, z) <- exp.big(x, y, 7), exp.data(y, z)`,
}

// TestSessionSnapshotBindingsMatchSerial is the write-path parallelism
// property: evaluating a session's incoming link over a pinned snapshot
// view (shard-parallel hash-join builds, secondary-view ScanEq pushdown)
// yields bindings bit-identical — same tuples, same order — to the serial
// live-wrapper path, across randomized rules, shard counts, parallelism,
// data, and the semi-naive delta entry point.
func TestSessionSnapshotBindingsMatchSerial(t *testing.T) {
	shardChoices := []int{1, 2, 8}
	parChoices := []int{2, 4}
	for seed := int64(0); seed < 24; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rnd := rand.New(rand.NewSource(seed))
			shards := shardChoices[rnd.Intn(len(shardChoices))]
			par := parChoices[rnd.Intn(len(parChoices))]
			ruleText := snapshotEvalTemplates[rnd.Intn(len(snapshotEvalTemplates))]
			rule, err := cq.ParseRule("r1", ruleText)
			if err != nil {
				t.Fatal(err)
			}

			db, err := storage.Open(storage.Options{Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			defs := []*relation.RelDef{
				{Name: "data", Attrs: []relation.Attr{
					{Name: "a", Type: relation.TInt}, {Name: "b", Type: relation.TInt},
				}},
				{Name: "big", Attrs: []relation.Attr{
					{Name: "a", Type: relation.TInt}, {Name: "b", Type: relation.TInt},
					{Name: "c", Type: relation.TInt},
				}},
			}
			for _, def := range defs {
				if err := db.DefineRelation(def); err != nil {
					t.Fatal(err)
				}
			}
			// Small domain so joins and the constant (7) actually match.
			var dataTuples []relation.Tuple
			for i := 0; i < 300; i++ {
				dataTuples = append(dataTuples, relation.Tuple{
					relation.Int(rnd.Intn(24)), relation.Int(rnd.Intn(24)),
				})
			}
			if _, err := db.InsertMany("data", dataTuples); err != nil {
				t.Fatal(err)
			}
			var bigTuples []relation.Tuple
			for i := 0; i < 300; i++ {
				bigTuples = append(bigTuples, relation.Tuple{
					relation.Int(rnd.Intn(24)), relation.Int(rnd.Intn(24)),
					relation.Int(rnd.Intn(12)),
				})
			}
			if _, err := db.InsertMany("big", bigTuples); err != nil {
				t.Fatal(err)
			}

			// Two nodes over the same database: the serial baseline reads
			// the live wrapper, the other evaluates over pinned snapshots
			// with parallel fan-out.
			serial, err := NewNode(Config{
				Self: "exp", Wrapper: NewStoreWrapper(db),
				DisableSessionSnapshots: true,
				Eval:                    cq.EvalOptions{Parallelism: 1},
			})
			if err != nil {
				t.Fatal(err)
			}
			snapped, err := NewNode(Config{
				Self: "exp", Wrapper: NewStoreWrapper(db),
				Eval: cq.EvalOptions{Parallelism: par},
			})
			if err != nil {
				t.Fatal(err)
			}
			sSerial := serial.newSession("s1", msg.KindUpdate, "exp")
			sSnap := snapped.newSession("s1", msg.KindUpdate, "exp")

			vSerial := serial.sessionView(sSerial)
			vSnap := snapped.sessionView(sSnap)
			if vSerial.snap != nil {
				t.Fatal("serial baseline unexpectedly snapshot-backed")
			}
			if vSnap.snap == nil {
				t.Fatal("session view did not pin a snapshot")
			}

			want, err := chase.Bindings(rule, vSerial, serial.chaseOpts())
			if err != nil {
				t.Fatal(err)
			}
			got, err := chase.Bindings(rule, vSnap, snapped.chaseOpts())
			if err != nil {
				t.Fatal(err)
			}
			mustEqualTuples(t, "full evaluation", want, got)

			// Delta entry point: re-evaluate semi-naively over a random
			// subset of one body relation, as the in-session and
			// cross-session incremental steps do.
			deltaRel := "data"
			pool := dataTuples
			if rnd.Intn(2) == 0 && ruleText != snapshotEvalTemplates[0] {
				deltaRel, pool = "big", bigTuples
			}
			var delta []relation.Tuple
			for _, tup := range pool {
				if rnd.Intn(4) == 0 {
					delta = append(delta, tup)
				}
			}
			wantD, err := chase.BindingsDelta(rule, vSerial, deltaRel, delta, serial.chaseOpts())
			if err != nil {
				t.Fatal(err)
			}
			gotD, err := chase.BindingsDelta(rule, vSnap, deltaRel, delta, snapped.chaseOpts())
			if err != nil {
				t.Fatal(err)
			}
			mustEqualTuples(t, "delta evaluation", wantD, gotD)
		})
	}
}

func mustEqualTuples(t *testing.T, what string, want, got []relation.Tuple) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d bindings, want %d", what, len(got), len(want))
	}
	for i := range want {
		if want[i].Key() != got[i].Key() {
			t.Fatalf("%s: binding %d = %v, want %v", what, i, got[i], want[i])
		}
	}
}

// TestSessionViewRepinsAfterInsert asserts the re-pin contract: an
// insertMany that lands in the LDB advances the storage LSN, so the next
// sessionView call pins a fresh snapshot that observes the session's own
// writes; with no intervening commit the pin is reused.
func TestSessionViewRepinsAfterInsert(t *testing.T) {
	db := storage.MustOpenMem()
	defer db.Close()
	if err := db.DefineRelation(&relation.RelDef{Name: "data", Attrs: []relation.Attr{
		{Name: "a", Type: relation.TInt}, {Name: "b", Type: relation.TInt},
	}}); err != nil {
		t.Fatal(err)
	}
	n, err := NewNode(Config{Self: "exp", Wrapper: NewStoreWrapper(db)})
	if err != nil {
		t.Fatal(err)
	}
	s := n.newSession("s1", msg.KindUpdate, "exp")
	v1 := n.sessionView(s)
	if v1.snap == nil {
		t.Fatal("no snapshot pinned")
	}
	if v2 := n.sessionView(s); v2.snap != v1.snap {
		t.Fatal("pin not reused with no intervening commit")
	}
	tup := relation.Tuple{relation.Int(1), relation.Int(2)}
	if _, err := v1.insertMany("data", []relation.Tuple{tup}); err != nil {
		t.Fatal(err)
	}
	v3 := n.sessionView(s)
	if v3.snap == v1.snap {
		t.Fatal("pin not refreshed after an LDB insert")
	}
	if !v3.snap.Has("data", tup) {
		t.Fatal("re-pinned snapshot misses the session's own write")
	}
	n.finalize(s, true, &Result{})
	if s.pinned != nil {
		t.Fatal("finalize did not release the pinned snapshot")
	}
}
