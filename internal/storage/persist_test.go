package storage

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"codb/internal/relation"
)

func openDurable(t *testing.T, dir string, opts Options) *DB {
	t.Helper()
	opts.Dir = dir
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestDurableRecoveryFromWAL(t *testing.T) {
	dir := t.TempDir()
	db := openDurable(t, dir, Options{})
	if err := db.DefineRelation(empDef()); err != nil {
		t.Fatal(err)
	}
	db.Insert("emp", emp(1, "ann"))
	db.Insert("emp", emp(2, "bob"))
	db.Delete("emp", emp(1, "ann"))
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2 := openDurable(t, dir, Options{})
	defer db2.Close()
	if db2.Rel("emp") == nil {
		t.Fatal("schema lost")
	}
	if db2.Has("emp", emp(1, "ann")) {
		t.Error("deleted tuple recovered")
	}
	if !db2.Has("emp", emp(2, "bob")) {
		t.Error("inserted tuple lost")
	}
	if db2.Count("emp") != 1 {
		t.Errorf("Count = %d", db2.Count("emp"))
	}
}

func TestCheckpointAndRecovery(t *testing.T) {
	dir := t.TempDir()
	db := openDurable(t, dir, Options{})
	db.DefineRelation(empDef())
	for i := 0; i < 50; i++ {
		db.Insert("emp", emp(i, fmt.Sprintf("p%d", i)))
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Post-checkpoint writes land in the (reset) WAL.
	db.Insert("emp", emp(100, "late"))
	db.Close()

	// Snapshot exists and WAL is small.
	if _, err := os.Stat(filepath.Join(dir, snapshotName)); err != nil {
		t.Fatalf("snapshot missing: %v", err)
	}

	db2 := openDurable(t, dir, Options{})
	defer db2.Close()
	if db2.Count("emp") != 51 {
		t.Errorf("recovered Count = %d, want 51", db2.Count("emp"))
	}
	if !db2.Has("emp", emp(100, "late")) || !db2.Has("emp", emp(49, "p49")) {
		t.Error("recovered content wrong")
	}
}

func TestAutoCheckpoint(t *testing.T) {
	dir := t.TempDir()
	db := openDurable(t, dir, Options{CheckpointEvery: 5})
	db.DefineRelation(empDef())
	for i := 0; i < 12; i++ {
		db.Insert("emp", emp(i, "x"))
	}
	db.Close()
	if _, err := os.Stat(filepath.Join(dir, snapshotName)); err != nil {
		t.Fatalf("auto checkpoint did not produce a snapshot: %v", err)
	}
	db2 := openDurable(t, dir, Options{})
	defer db2.Close()
	if db2.Count("emp") != 12 {
		t.Errorf("recovered Count = %d", db2.Count("emp"))
	}
}

func TestRecoveryWithNullsAndAllTypes(t *testing.T) {
	dir := t.TempDir()
	db := openDurable(t, dir, Options{SyncOnCommit: true})
	def := &relation.RelDef{Name: "mix", Attrs: []relation.Attr{
		{Name: "i", Type: relation.TInt},
		{Name: "f", Type: relation.TFloat},
		{Name: "s", Type: relation.TString},
		{Name: "b", Type: relation.TBool},
	}}
	db.DefineRelation(def)
	rows := []relation.Tuple{
		{relation.Int(1), relation.Float(2.5), relation.Str("x"), relation.Bool(true)},
		{relation.Null("p:1"), relation.Float(-1), relation.Null("p:2"), relation.Bool(false)},
	}
	for _, r := range rows {
		if _, err := db.Insert("mix", r); err != nil {
			t.Fatal(err)
		}
	}
	db.Close()

	db2 := openDurable(t, dir, Options{})
	defer db2.Close()
	for _, r := range rows {
		if !db2.Has("mix", r) {
			t.Errorf("tuple %v lost", r)
		}
	}
}

// walSegments returns the segment file paths in dir, in index order
// (zero-padded names sort lexicographically); possibly empty.
func walSegments(t *testing.T, dir string) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "wal.*"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(paths)
	return paths
}

func TestTornWALTailRecovers(t *testing.T) {
	dir := t.TempDir()
	db := openDurable(t, dir, Options{SyncOnCommit: true})
	db.DefineRelation(empDef())
	db.Insert("emp", emp(1, "a"))
	db.Insert("emp", emp(2, "b"))
	// No Close: a crash never checkpoints, the synced WAL is all there is.

	// Tear the final bytes of the WAL (crash mid-commit).
	segs := walSegments(t, dir)
	if len(segs) == 0 {
		t.Fatal("no wal segments")
	}
	logPath := segs[len(segs)-1]
	info, err := os.Stat(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(logPath, info.Size()-2); err != nil {
		t.Fatal(err)
	}

	db2 := openDurable(t, dir, Options{})
	defer db2.Close()
	if !db2.Has("emp", emp(1, "a")) {
		t.Error("intact commit lost")
	}
	if db2.Has("emp", emp(2, "b")) {
		t.Error("torn commit partially applied")
	}
}

func TestCorruptSnapshotRejected(t *testing.T) {
	setVersion := func(v uint32) func(t *testing.T, dir string) {
		return func(t *testing.T, dir string) {
			path := filepath.Join(dir, snapshotName)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			binary.LittleEndian.PutUint32(data[4:8], v)
			os.WriteFile(path, data, 0o644)
		}
	}
	cases := []struct {
		name    string
		damage  func(t *testing.T, dir string)
		wantErr string
	}{
		{"flipped-body-byte", func(t *testing.T, dir string) {
			path := filepath.Join(dir, snapshotName)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			data[len(data)-1] ^= 0xFF
			os.WriteFile(path, data, 0o644)
		}, "checksum mismatch"},
		// Older snapshot formats are refused, not read.
		{"snapshot-v1", setVersion(1), "unsupported snapshot version"},
		{"snapshot-v2", setVersion(2), "unsupported snapshot version"},
		{"snapshot-v3", setVersion(3), "unsupported snapshot version"},
		// A pre-segment single-file log would open with its records
		// missing; it must be refused by name instead.
		{"legacy-log-wal", func(t *testing.T, dir string) {
			if err := os.WriteFile(filepath.Join(dir, "log.wal"), []byte("cdbW\x01\x00\x00\x00"), 0o644); err != nil {
				t.Fatal(err)
			}
		}, "log.wal"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			db := openDurable(t, dir, Options{})
			db.DefineRelation(empDef())
			db.Insert("emp", emp(1, "a"))
			db.Checkpoint()
			db.Close()

			tc.damage(t, dir)
			_, err := Open(Options{Dir: dir})
			if err == nil {
				t.Fatal("damaged or legacy state accepted")
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Open = %v, want an error mentioning %q", err, tc.wantErr)
			}
		})
	}
}

func TestCheckpointIsNoopInMemory(t *testing.T) {
	db := MustOpenMem()
	db.DefineRelation(empDef())
	if err := db.Checkpoint(); err != nil {
		t.Errorf("memory checkpoint: %v", err)
	}
}

func TestRecoveryIdempotence(t *testing.T) {
	// Open/close repeatedly without writes; state must be stable.
	dir := t.TempDir()
	db := openDurable(t, dir, Options{})
	db.DefineRelation(empDef())
	db.Insert("emp", emp(7, "seven"))
	db.Close()
	for i := 0; i < 3; i++ {
		db = openDurable(t, dir, Options{})
		if db.Count("emp") != 1 {
			t.Fatalf("pass %d: Count = %d", i, db.Count("emp"))
		}
		db.Close()
	}
}
