package storage

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"codb/internal/relation"
)

func openShards(t *testing.T, shards int) *DB {
	t.Helper()
	db, err := Open(Options{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	if err := db.DefineRelation(empDef()); err != nil {
		t.Fatal(err)
	}
	return db
}

// scanKeys returns the merged scan's keys, asserting global key order.
func scanKeys(t *testing.T, db *DB, rel string) []string {
	t.Helper()
	var keys []string
	db.Scan(rel, func(tp relation.Tuple) bool {
		keys = append(keys, tp.Key())
		return true
	})
	for i := 1; i < len(keys); i++ {
		if keys[i-1] >= keys[i] {
			t.Fatalf("merged scan out of order at %d: %q >= %q", i, keys[i-1], keys[i])
		}
	}
	return keys
}

// TestShardedOpsAgainstModel is the storage property test: a randomized
// insert/delete/reinsert trace runs against every shard count and a model
// map; after every batch of ops the shard-merged scan must equal the
// model's sorted keys, and the secondary index must agree with a filtered
// model scan — the delete-then-reinsert hazard across shard boundaries.
func TestShardedOpsAgainstModel(t *testing.T) {
	for _, shards := range []int{1, 2, 3, 8} {
		shards := shards
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			t.Parallel()
			db := openShards(t, shards)
			if err := db.IndexOn("emp", "name"); err != nil {
				t.Fatal(err)
			}
			rnd := rand.New(rand.NewSource(int64(shards) * 7919))
			model := make(map[string]relation.Tuple)
			for step := 0; step < 40; step++ {
				tx := db.Begin()
				staged := make(map[string]bool) // key -> present after tx
				for k := range model {
					staged[k] = true
				}
				for op := 0; op < 25; op++ {
					tp := emp(rnd.Intn(60), fmt.Sprintf("n%d", rnd.Intn(7)))
					k := tp.Key()
					if rnd.Intn(3) == 2 {
						existed, err := tx.Delete("emp", tp)
						if err != nil {
							t.Fatal(err)
						}
						if existed != staged[k] {
							t.Fatalf("step %d: Delete existed=%v, model %v", step, existed, staged[k])
						}
						delete(staged, k)
					} else {
						fresh, err := tx.Insert("emp", tp)
						if err != nil {
							t.Fatal(err)
						}
						if fresh == staged[k] {
							t.Fatalf("step %d: Insert fresh=%v, model present=%v", step, fresh, staged[k])
						}
						staged[k] = true
					}
				}
				if err := tx.Commit(); err != nil {
					t.Fatal(err)
				}
				model = make(map[string]relation.Tuple)
				for k := range staged {
					tp, err := relation.DecodeTuple([]byte(k), 2)
					if err != nil {
						t.Fatal(err)
					}
					model[k] = tp
				}

				// Merged scan == sorted model.
				keys := scanKeys(t, db, "emp")
				if len(keys) != len(model) {
					t.Fatalf("step %d: scan %d keys, model %d", step, len(keys), len(model))
				}
				for _, k := range keys {
					if _, ok := model[k]; !ok {
						t.Fatalf("step %d: scan surfaced key missing from model", step)
					}
				}
				if db.Count("emp") != len(model) {
					t.Fatalf("step %d: Count = %d, model %d", step, db.Count("emp"), len(model))
				}
				// Secondary index == filtered model (the delete-then-
				// reinsert consistency check).
				for v := 0; v < 7; v++ {
					name := fmt.Sprintf("n%d", v)
					want := 0
					for _, tp := range model {
						if tp[1].Str == name {
							want++
						}
					}
					got := 0
					db.ScanEq("emp", 1, relation.Str(name), func(tp relation.Tuple) bool {
						if tp[1].Str != name {
							t.Fatalf("step %d: ScanEq(%s) surfaced %v", step, name, tp)
						}
						got++
						return true
					})
					if got != want {
						t.Fatalf("step %d: ScanEq(%s) = %d rows, model %d", step, name, got, want)
					}
				}
			}
		})
	}
}

// TestShardCountsAgree runs one deterministic trace at every shard count:
// scans, counts, tuples, instances and range scans must be identical.
func TestShardCountsAgree(t *testing.T) {
	build := func(shards int) *DB {
		db := openShards(t, shards)
		rnd := rand.New(rand.NewSource(99))
		for i := 0; i < 400; i++ {
			tp := emp(rnd.Intn(150), fmt.Sprintf("p%d", rnd.Intn(10)))
			if rnd.Intn(4) == 3 {
				db.Delete("emp", tp)
			} else {
				db.Insert("emp", tp)
			}
		}
		return db
	}
	ref := build(1)
	refKeys := scanKeys(t, ref, "emp")
	lo, hi := relation.Int(20), relation.Int(90)
	var refRange []string
	ref.ScanRange("emp", 0, &lo, &hi, func(tp relation.Tuple) bool {
		refRange = append(refRange, tp.Key())
		return true
	})
	for _, shards := range []int{2, 5, 16} {
		db := build(shards)
		keys := scanKeys(t, db, "emp")
		if len(keys) != len(refKeys) {
			t.Fatalf("shards=%d: %d keys, ref %d", shards, len(keys), len(refKeys))
		}
		for i := range keys {
			if keys[i] != refKeys[i] {
				t.Fatalf("shards=%d: key %d diverges", shards, i)
			}
		}
		db.IndexOn("emp", "id")
		var got []string
		db.ScanRange("emp", 0, &lo, &hi, func(tp relation.Tuple) bool {
			got = append(got, tp.Key())
			return true
		})
		if len(got) != len(refRange) {
			t.Fatalf("shards=%d: indexed range %d rows, ref %d", shards, len(got), len(refRange))
		}
		for i := range got {
			if got[i] != refRange[i] {
				t.Fatalf("shards=%d: range row %d diverges", shards, i)
			}
		}
	}
}

// TestShardedRecoveryByteIdentical checks the acceptance criterion:
// shards > 1 recovery (snapshot v3 + WAL replay) produces scans byte-
// identical to the shards=1 reference, and the snapshot bytes after the
// shard-count field do not depend on the shard count.
func TestShardedRecoveryByteIdentical(t *testing.T) {
	seedData := func(db *DB) {
		for i := 0; i < 120; i++ {
			db.Insert("emp", emp(i, fmt.Sprintf("p%d", i%11)))
		}
		db.Checkpoint()
		// Post-checkpoint commits exercise WAL replay on top of the
		// snapshot.
		for i := 200; i < 260; i++ {
			db.Insert("emp", emp(i, "wal"))
		}
		db.Delete("emp", emp(3, "p3"))
	}
	dirs := map[int]string{}
	var refKeys []string
	for _, shards := range []int{1, 4, 16} {
		dir := t.TempDir()
		dirs[shards] = dir
		db, err := Open(Options{Dir: dir, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		if err := db.DefineRelation(empDef()); err != nil {
			t.Fatal(err)
		}
		seedData(db)
		// No Close checkpoint for the crash-like path: sync the WAL and
		// reopen over snapshot + log.
		db.log.Sync()

		re, err := Open(Options{Dir: dir, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		keys := scanKeys(t, re, "emp")
		if shards == 1 {
			refKeys = keys
		} else {
			if len(keys) != len(refKeys) {
				t.Fatalf("shards=%d: recovered %d keys, ref %d", shards, len(keys), len(refKeys))
			}
			for i := range keys {
				if keys[i] != refKeys[i] {
					t.Fatalf("shards=%d: recovered key %d diverges", shards, i)
				}
			}
		}
		if re.LSN() == 0 {
			t.Fatalf("shards=%d: LSN lost in recovery", shards)
		}
		re.Close()
		db.Close()
	}

	// Snapshot files: identical bytes after the leading shard-count field.
	tail := func(shards int) []byte {
		data, err := os.ReadFile(filepath.Join(dirs[shards], snapshotName))
		if err != nil {
			t.Fatal(err)
		}
		body := data[12:]
		_, n := binary.Uvarint(body)
		return body[n:]
	}
	if !bytes.Equal(tail(1), tail(4)) || !bytes.Equal(tail(1), tail(16)) {
		t.Fatal("snapshot bodies depend on the shard count")
	}

	// Resharding on load: an explicit Shards option overrides the recorded
	// count (and the next checkpoint records the new one), while
	// Shards=0 adopts whatever the snapshot recorded. Contents never
	// change.
	for _, c := range []struct{ opt, want int }{{16, 16}, {0, 16}} {
		re, err := Open(Options{Dir: dirs[4], Shards: c.opt})
		if err != nil {
			t.Fatal(err)
		}
		if re.Shards() != c.want {
			t.Fatalf("Shards=%d: opened with %d shards, want %d", c.opt, re.Shards(), c.want)
		}
		keys := scanKeys(t, re, "emp")
		if len(keys) != len(refKeys) {
			t.Fatalf("Shards=%d: recovered %d keys, ref %d", c.opt, len(keys), len(refKeys))
		}
		for i := range keys {
			if keys[i] != refKeys[i] {
				t.Fatalf("Shards=%d: recovered key %d diverges", c.opt, i)
			}
		}
		if err := re.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		re.Close()
		data, err := os.ReadFile(filepath.Join(dirs[4], snapshotName))
		if err != nil {
			t.Fatal(err)
		}
		if recorded, _ := binary.Uvarint(data[12:]); recorded != uint64(c.want) {
			t.Fatalf("Shards=%d: snapshot records %d shards, want %d", c.opt, recorded, c.want)
		}
	}
}

// TestConcurrentMultiShardCommits hammers the commit protocol under -race:
// concurrent multi-shard transactions, snapshot readers and a Changes
// consumer. Every snapshot must be a consistent cut (multi-tuple commits
// are all-or-nothing across shards) and watermark-chained Changes must
// lose no committed tuple (the protocol is at-least-once; set semantics
// absorb re-fetches, as the export layer does).
func TestConcurrentMultiShardCommits(t *testing.T) {
	db, err := Open(Options{Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.DefineRelation(empDef()); err != nil {
		t.Fatal(err)
	}
	const writers, per, batch = 4, 60, 5
	stop := make(chan struct{})
	var observers sync.WaitGroup
	// Snapshot readers: every view must hold a multiple of `batch` tuples.
	for r := 0; r < 2; r++ {
		observers.Add(1)
		go func() {
			defer observers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := db.Snapshot()
				if n := snap.Count("emp"); n%batch != 0 {
					t.Errorf("snapshot saw %d tuples: torn multi-shard commit", n)
					return
				}
			}
		}()
	}
	// Watermark chaser, following the export layer's protocol: read the
	// visible LSN first, fetch the delta since the previous watermark,
	// advance the watermark to the pre-fetch LSN.
	seen := make(map[string]bool)
	observers.Add(1)
	go func() {
		defer observers.Done()
		var w uint64
		for {
			select {
			case <-stop:
				return
			default:
			}
			cur := db.LSN()
			delta, ok := db.Changes("emp", w)
			if !ok {
				t.Error("history lost without deletes or truncation")
				return
			}
			for _, tp := range delta {
				seen[tp.Key()] = true
			}
			w = cur
		}
	}()
	var writersWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writersWG.Add(1)
		go func(w int) {
			defer writersWG.Done()
			for i := 0; i < per; i++ {
				tx := db.Begin()
				for j := 0; j < batch; j++ {
					if _, err := tx.Insert("emp", emp(w*100_000+i*batch+j, "x")); err != nil {
						t.Error(err)
						return
					}
				}
				if err := tx.Commit(); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	writersWG.Wait()
	close(stop)
	observers.Wait()
	// Quiescent drain: everything not yet chased arrives now.
	delta, ok := db.Changes("emp", 0)
	if !ok {
		t.Fatal("history lost at quiescence")
	}
	for _, tp := range delta {
		seen[tp.Key()] = true
	}
	if len(seen) != writers*per*batch {
		t.Fatalf("Changes chain saw %d tuples, want %d", len(seen), writers*per*batch)
	}
	if got := db.Count("emp"); got != writers*per*batch {
		t.Fatalf("Count = %d, want %d", got, writers*per*batch)
	}
	if got := db.LSN(); got != uint64(1+writers*per) { // DDL + commits
		t.Fatalf("visible LSN = %d, want %d", got, 1+writers*per)
	}
}

// TestGroupCommitDurableMultiWriter commits from many goroutines with
// SyncOnCommit and verifies recovery sees everything, batching occurred,
// and the WAL replays in LSN order.
func TestGroupCommitDurableMultiWriter(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir, SyncOnCommit: true, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.DefineRelation(empDef()); err != nil {
		t.Fatal(err)
	}
	const writers, per = 6, 30
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if _, err := db.Insert("emp", emp(w*1000+i, "d")); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	st := db.DetailedStats()
	if !st.GroupCommitEnabled {
		t.Fatal("group commit not enabled on a durable database")
	}
	if st.GroupCommit.Commits < writers*per {
		t.Fatalf("group commits = %d, want >= %d", st.GroupCommit.Commits, writers*per)
	}
	lsn := db.LSN()
	// Crash-style reopen: every sync-on-commit transaction is already
	// durable, no checkpoint.
	re, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if re.Count("emp") != writers*per {
		t.Fatalf("recovered %d tuples, want %d", re.Count("emp"), writers*per)
	}
	if re.LSN() != lsn {
		t.Fatalf("recovered LSN %d, want %d", re.LSN(), lsn)
	}
	re.Close()
	db.Close()
}

// TestDetailedStats sanity-checks the per-shard report.
func TestDetailedStats(t *testing.T) {
	db := openShards(t, 4)
	for i := 0; i < 40; i++ {
		db.Insert("emp", emp(i, "s"))
	}
	st := db.DetailedStats()
	if st.Shards != 4 {
		t.Fatalf("Shards = %d", st.Shards)
	}
	if len(st.Relations) != 1 || st.Relations[0].Name != "emp" {
		t.Fatalf("Relations = %+v", st.Relations)
	}
	total, bytes := 0, int64(0)
	for _, sh := range st.Relations[0].Shards {
		total += sh.Tuples
		bytes += sh.Bytes
	}
	if total != 40 || bytes == 0 {
		t.Fatalf("per-shard totals: %d tuples, %d bytes", total, bytes)
	}
	if st.GroupCommitEnabled {
		t.Fatal("memory-only database claims a group committer")
	}
}
