package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// openSeg opens a segmented WAL collecting replayed records.
func openSeg(t *testing.T, dir string, base uint64, opts SegmentedOptions) (*Segmented, map[uint64]string) {
	t.Helper()
	got := make(map[uint64]string)
	g, err := OpenSegmented(dir, base, opts, func(lsn uint64, p []byte) error {
		got[lsn] = string(p)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return g, got
}

func segFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		if _, ok := parseSegName(e.Name()); ok {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names
}

func TestSegmentedAppendReplayLSNs(t *testing.T) {
	dir := t.TempDir()
	g, _ := openSeg(t, dir, 0, SegmentedOptions{})
	for i := 1; i <= 5; i++ {
		if err := g.Append([]byte(fmt.Sprintf("rec-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.Sync(); err != nil {
		t.Fatal(err)
	}
	g.Close()

	g2, got := openSeg(t, dir, 0, SegmentedOptions{})
	defer g2.Close()
	if len(got) != 5 {
		t.Fatalf("replayed %d records, want 5", len(got))
	}
	for i := 1; i <= 5; i++ {
		if got[uint64(i)] != fmt.Sprintf("rec-%d", i) {
			t.Errorf("lsn %d = %q", i, got[uint64(i)])
		}
	}
	if st := g2.Stats(); st.NextLSN != 6 {
		t.Errorf("NextLSN = %d, want 6", st.NextLSN)
	}
}

func TestSegmentedRotation(t *testing.T) {
	dir := t.TempDir()
	g, _ := openSeg(t, dir, 0, SegmentedOptions{SegmentBytes: 64})
	payload := make([]byte, 40)
	for i := 0; i < 6; i++ {
		if err := g.Append(payload); err != nil {
			t.Fatal(err)
		}
	}
	st := g.Stats()
	if st.Segments < 3 {
		t.Fatalf("Segments = %d after 6 oversized appends, want >= 3", st.Segments)
	}
	if st.Rotations == 0 {
		t.Fatal("no rotations recorded")
	}
	g.Close()

	// Recovery across segments preserves LSNs and contiguity.
	g2, got := openSeg(t, dir, 0, SegmentedOptions{SegmentBytes: 64})
	defer g2.Close()
	if len(got) != 6 {
		t.Fatalf("replayed %d of 6", len(got))
	}
	for i := uint64(1); i <= 6; i++ {
		if _, ok := got[i]; !ok {
			t.Errorf("lsn %d missing from replay", i)
		}
	}
}

func TestSegmentedBatchNeverSplits(t *testing.T) {
	dir := t.TempDir()
	g, _ := openSeg(t, dir, 0, SegmentedOptions{SegmentBytes: 64})
	batch := [][]byte{make([]byte, 30), make([]byte, 30), make([]byte, 30)}
	if err := g.AppendBatch(batch); err != nil {
		t.Fatal(err)
	}
	if st := g.Stats(); st.Segments != 1 {
		t.Fatalf("batch split across %d segments", st.Segments)
	}
	// The next batch rotates first.
	if err := g.AppendBatch(batch); err != nil {
		t.Fatal(err)
	}
	if st := g.Stats(); st.Segments != 2 {
		t.Fatalf("Segments = %d, want 2", st.Segments)
	}
	g.Close()
	g2, got := openSeg(t, dir, 0, SegmentedOptions{SegmentBytes: 64})
	defer g2.Close()
	if len(got) != 6 {
		t.Fatalf("replayed %d of 6", len(got))
	}
}

func TestSegmentedTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	g, _ := openSeg(t, dir, 0, SegmentedOptions{SegmentBytes: 64})
	payload := make([]byte, 40)
	for i := 0; i < 4; i++ {
		g.Append(payload)
	}
	g.Close()
	names := segFiles(t, dir)
	last := filepath.Join(dir, names[len(names)-1])
	info, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(last, info.Size()-3); err != nil {
		t.Fatal(err)
	}

	g2, got := openSeg(t, dir, 0, SegmentedOptions{SegmentBytes: 64})
	if len(got) != 3 {
		t.Fatalf("replayed %d records after torn tail, want 3", len(got))
	}
	// Appending after truncation reuses the torn record's LSN.
	if err := g2.Append([]byte("fresh")); err != nil {
		t.Fatal(err)
	}
	g2.Close()
	_, got = openSeg(t, dir, 0, SegmentedOptions{SegmentBytes: 64})
	if got[4] != "fresh" {
		t.Fatalf("lsn 4 = %q, want the re-appended record", got[4])
	}
}

func TestSegmentedTornMiddleSegmentIsCorrupt(t *testing.T) {
	dir := t.TempDir()
	g, _ := openSeg(t, dir, 0, SegmentedOptions{SegmentBytes: 64})
	payload := make([]byte, 40)
	for i := 0; i < 4; i++ {
		g.Append(payload)
	}
	g.Close()
	names := segFiles(t, dir)
	if len(names) < 2 {
		t.Fatal("test needs at least two segments")
	}
	first := filepath.Join(dir, names[0])
	info, _ := os.Stat(first)
	if err := os.Truncate(first, info.Size()-3); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSegmented(dir, 0, SegmentedOptions{}, nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open = %v, want ErrCorrupt", err)
	}
}

func TestSegmentedCrashMidRotationDiscardsHeaderlessTail(t *testing.T) {
	dir := t.TempDir()
	g, _ := openSeg(t, dir, 0, SegmentedOptions{})
	g.Append([]byte("kept"))
	g.Close()
	// Simulate a crash between creating the next segment and writing its
	// header.
	if err := os.WriteFile(filepath.Join(dir, segName(2)), []byte("cd"), 0o644); err != nil {
		t.Fatal(err)
	}
	g2, got := openSeg(t, dir, 0, SegmentedOptions{})
	defer g2.Close()
	if len(got) != 1 || got[1] != "kept" {
		t.Fatalf("replay = %v", got)
	}
	if err := g2.Append([]byte("after")); err != nil {
		t.Fatal(err)
	}
}

func TestSegmentedReplaySkipGap(t *testing.T) {
	// Records covered by the checkpoint may be missing (pruned segments);
	// recovery accepts the gap only below base.
	dir := t.TempDir()
	g, _ := openSeg(t, dir, 0, SegmentedOptions{SegmentBytes: 64})
	payload := make([]byte, 40)
	for i := 0; i < 4; i++ {
		g.Append(payload)
	}
	g.Close()
	names := segFiles(t, dir)
	os.Remove(filepath.Join(dir, names[0]))

	// The first segment held lsn 1; with base >= 1 the gap is legal.
	if _, err := OpenSegmented(dir, 1, SegmentedOptions{}, nil); err != nil {
		t.Fatalf("open with covered gap: %v", err)
	}
	// Without checkpoint coverage the gap is a hole in acknowledged data.
	os.Remove(filepath.Join(dir, names[1]))
	if _, err := OpenSegmented(dir, 1, SegmentedOptions{}, nil); err == nil {
		t.Fatal("uncovered lsn gap accepted")
	}
}

func TestSegmentedPruneAndReadRange(t *testing.T) {
	dir := t.TempDir()
	g, _ := openSeg(t, dir, 0, SegmentedOptions{SegmentBytes: 64})
	for i := 1; i <= 10; i++ {
		if err := g.Append([]byte(fmt.Sprintf("rec-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	defer g.Close()
	if st := g.Stats(); st.Segments < 3 {
		t.Fatalf("want several segments, got %d", st.Segments)
	}

	var got []string
	err := g.ReadRange(3, 7, func(lsn uint64, p []byte) error {
		if want := fmt.Sprintf("rec-%d", lsn); string(p) != want {
			return fmt.Errorf("lsn %d = %q", lsn, p)
		}
		got = append(got, string(p))
		return nil
	})
	if err != nil || len(got) != 5 {
		t.Fatalf("ReadRange(3,7) = %v, %d records", err, len(got))
	}

	// Beyond the written tail is unavailable.
	if err := g.ReadRange(10, 11, nil); !errors.Is(err, ErrRangeUnavailable) {
		t.Fatalf("ReadRange past tail = %v", err)
	}

	// Prune everything below 6, retaining nothing.
	if n := g.Prune(6, 0); n == 0 {
		t.Fatal("nothing pruned")
	}
	if err := g.ReadRange(1, 3, nil); !errors.Is(err, ErrRangeUnavailable) {
		t.Fatalf("pruned range still served: %v", err)
	}
	// The unpruned tail still serves.
	count := 0
	if err := g.ReadRange(g.FirstLSN(), 10, func(uint64, []byte) error { count++; return nil }); err != nil {
		t.Fatalf("tail range: %v", err)
	}
	if count == 0 {
		t.Fatal("tail range served no records")
	}
}

func TestSegmentedPruneRetention(t *testing.T) {
	dir := t.TempDir()
	g, _ := openSeg(t, dir, 0, SegmentedOptions{SegmentBytes: 64})
	for i := 1; i <= 20; i++ {
		g.Append([]byte(fmt.Sprintf("rec-%d", i)))
	}
	defer g.Close()
	before := g.Stats().Segments
	g.Prune(20, 2)
	st := g.Stats()
	if st.Segments >= before {
		t.Fatalf("retention pruned nothing: %d -> %d", before, st.Segments)
	}
	// Two sealed pre-checkpoint segments survive for history serving.
	count := 0
	if err := g.ReadRange(st.FirstLSN, 20, func(uint64, []byte) error { count++; return nil }); err != nil {
		t.Fatalf("retained range: %v", err)
	}
	if count == 0 {
		t.Fatal("retained segments served nothing")
	}
	if st.FirstLSN == 1 {
		t.Fatal("prune with retention kept everything")
	}
}

func TestSegmentedSnapshotAheadOfLogRotates(t *testing.T) {
	// A synced snapshot can outlive an unsynced WAL tail. Reopening with
	// base beyond the log's last record must not renumber new appends.
	dir := t.TempDir()
	g, _ := openSeg(t, dir, 0, SegmentedOptions{})
	g.Append([]byte("r1"))
	g.Append([]byte("r2"))
	g.Close()

	g2, _ := openSeg(t, dir, 5, SegmentedOptions{}) // checkpoint at lsn 5, log ends at 2
	if st := g2.Stats(); st.NextLSN != 6 {
		t.Fatalf("NextLSN = %d, want 6", st.NextLSN)
	}
	g2.Append([]byte("r6"))
	g2.Close()

	_, got := openSeg(t, dir, 5, SegmentedOptions{})
	if got[6] != "r6" {
		t.Fatalf("lsn 6 = %q; replay = %v", got[6], got)
	}
}

func TestSegmentedGroupCommitter(t *testing.T) {
	dir := t.TempDir()
	g, _ := openSeg(t, dir, 0, SegmentedOptions{SegmentBytes: 128})
	gc := NewGroupCommitter(g)
	const n = 60
	// Waiting each commit out forces many small batches, so batches cross
	// rotation boundaries.
	for i := 0; i < n; i++ {
		if err := <-gc.Commit([]byte(fmt.Sprintf("rec-%d", i+1)), i%4 == 0); err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
	}
	if err := gc.Close(); err != nil {
		t.Fatal(err)
	}
	if st := g.Stats(); st.Segments < 2 {
		t.Fatalf("group commits never rotated: %d segments", st.Segments)
	}
	g.Close()

	_, got := openSeg(t, dir, 0, SegmentedOptions{})
	if len(got) != n {
		t.Fatalf("replayed %d of %d", len(got), n)
	}
	for i := 1; i <= n; i++ {
		if got[uint64(i)] != fmt.Sprintf("rec-%d", i) {
			t.Fatalf("lsn %d = %q (order broken)", i, got[uint64(i)])
		}
	}
}

func TestSegmentedCorruptHeaderLSNRefused(t *testing.T) {
	// The first-record LSN decides every record's identity; a bit-flip in
	// it (downward would silently renumber records into the
	// checkpoint-covered range) must fail the header CRC.
	dir := t.TempDir()
	g, _ := openSeg(t, dir, 0, SegmentedOptions{SegmentBytes: 64})
	payload := make([]byte, 40)
	for i := 0; i < 4; i++ {
		g.Append(payload)
	}
	g.Close()
	names := segFiles(t, dir)
	if len(names) < 2 {
		t.Fatal("test needs at least two segments")
	}
	target := filepath.Join(dir, names[1]) // non-last: damage, not mid-rotation
	data, err := os.ReadFile(target)
	if err != nil {
		t.Fatal(err)
	}
	data[8] ^= 0x04 // flip a low bit of the first-LSN field
	if err := os.WriteFile(target, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSegmented(dir, 0, SegmentedOptions{}, nil); err == nil {
		t.Fatal("corrupt segment header LSN accepted")
	}
}

func TestSegmentedEmptyDirCreatesFirstSegment(t *testing.T) {
	dir := t.TempDir()
	g, _ := openSeg(t, dir, 41, SegmentedOptions{})
	defer g.Close()
	st := g.Stats()
	if st.Segments != 1 || st.NextLSN != 42 {
		t.Fatalf("fresh log stats = %+v", st)
	}
	if names := segFiles(t, dir); len(names) != 1 || names[0] != segName(1) {
		t.Fatalf("segment files = %v", names)
	}
}

func TestSegmentedAppendAfterReopen(t *testing.T) {
	dir := t.TempDir()
	g, _ := openSeg(t, dir, 0, SegmentedOptions{})
	g.Append([]byte("a"))
	g.Close()

	g, _ = openSeg(t, dir, 0, SegmentedOptions{})
	g.Append([]byte("b"))
	g.Close()

	g, got := openSeg(t, dir, 0, SegmentedOptions{})
	defer g.Close()
	if len(got) != 2 || got[1] != "a" || got[2] != "b" {
		t.Errorf("replay = %v", got)
	}
}

func TestSegmentedMidSegmentCorruptionDetected(t *testing.T) {
	dir := t.TempDir()
	g, _ := openSeg(t, dir, 0, SegmentedOptions{})
	g.Append([]byte("aaaa"))
	g.Append([]byte("bbbb"))
	g.Close()

	// Flip a payload byte of the FIRST record: a CRC break with intact
	// data after it is corruption, not a torn tail.
	path := filepath.Join(dir, segName(1))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[segHeaderSize+recPrefix] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSegmented(dir, 0, SegmentedOptions{}, nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open = %v, want ErrCorrupt", err)
	}
}

func TestSegmentedApplyErrorPropagates(t *testing.T) {
	dir := t.TempDir()
	g, _ := openSeg(t, dir, 0, SegmentedOptions{})
	g.Append([]byte("x"))
	g.Close()
	boom := errors.New("boom")
	if _, err := OpenSegmented(dir, 0, SegmentedOptions{}, func(uint64, []byte) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("Open = %v, want wrapped boom", err)
	}
}

func TestSegmentedEmptyPayload(t *testing.T) {
	dir := t.TempDir()
	g, _ := openSeg(t, dir, 0, SegmentedOptions{})
	g.Append(nil)
	g.Append([]byte("after-empty"))
	g.Close()
	g, got := openSeg(t, dir, 0, SegmentedOptions{})
	defer g.Close()
	if len(got) != 2 || got[1] != "" || got[2] != "after-empty" {
		t.Errorf("replay = %q", got)
	}
}

func TestSegmentedManyRecords(t *testing.T) {
	dir := t.TempDir()
	g, _ := openSeg(t, dir, 0, SegmentedOptions{SegmentBytes: 16 << 10})
	const n = 5000
	for i := 0; i < n; i++ {
		if err := g.Append([]byte(fmt.Sprintf("record-%d", i+1))); err != nil {
			t.Fatal(err)
		}
	}
	g.Close()
	count := 0
	g, err := OpenSegmented(dir, 0, SegmentedOptions{}, func(lsn uint64, p []byte) error {
		if string(p) != fmt.Sprintf("record-%d", lsn) {
			return fmt.Errorf("lsn %d = %q", lsn, p)
		}
		count++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if count != n {
		t.Errorf("replayed %d of %d", count, n)
	}
}

// fourSegments writes four 40-byte records into 64-byte segments, so each
// record seals its own segment, and returns the segment file names.
func fourSegments(t *testing.T, dir string) []string {
	t.Helper()
	g, _ := openSeg(t, dir, 0, SegmentedOptions{SegmentBytes: 64})
	payload := make([]byte, 40)
	for i := 0; i < 4; i++ {
		if err := g.Append(payload); err != nil {
			t.Fatal(err)
		}
	}
	g.Close()
	names := segFiles(t, dir)
	if len(names) < 3 {
		t.Fatalf("test needs at least three segments, have %v", names)
	}
	return names
}

// rewriteHeader replaces the header of a segment file in place.
func rewriteHeader(t *testing.T, path string, hdr []byte) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	copy(data, hdr)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestSegmentedBadMagicRejected(t *testing.T) {
	// A non-final segment whose magic is wrong is damage, not a crash
	// mid-rotation: acknowledged records follow it, so open refuses.
	dir := t.TempDir()
	names := fourSegments(t, dir)
	path := filepath.Join(dir, names[0])
	hdr := encodeSegHeader(1)
	copy(hdr, "XXXX")
	rewriteHeader(t, path, hdr)
	_, err := OpenSegmented(dir, 0, SegmentedOptions{}, nil)
	if err == nil || !strings.Contains(err.Error(), "bad segment header") {
		t.Fatalf("Open = %v, want bad segment header", err)
	}
	if _, statErr := os.Stat(path); statErr != nil {
		t.Fatalf("damaged segment removed: %v", statErr)
	}
}

func TestSegmentedFutureVersionRefused(t *testing.T) {
	// A well-formed header from another format version is refused even on
	// the last segment, where an unreadable header would be discarded as a
	// crash mid-rotation: the file holds records this build cannot read.
	dir := t.TempDir()
	names := fourSegments(t, dir)
	last := filepath.Join(dir, names[len(names)-1])
	data, err := os.ReadFile(last)
	if err != nil {
		t.Fatal(err)
	}
	first, ok, err := parseSegHeader(data)
	if !ok || err != nil {
		t.Fatalf("intact header: ok=%v err=%v", ok, err)
	}
	hdr := encodeSegHeader(first)
	binary.LittleEndian.PutUint32(hdr[4:8], segVersion+1)
	binary.LittleEndian.PutUint32(hdr[16:], crc32.ChecksumIEEE(hdr[:16]))
	rewriteHeader(t, last, hdr)

	_, err = OpenSegmented(dir, 0, SegmentedOptions{}, nil)
	if err == nil || !strings.Contains(err.Error(), "unsupported segment version") {
		t.Fatalf("Open = %v, want unsupported segment version", err)
	}
	if _, statErr := os.Stat(last); statErr != nil {
		t.Fatalf("future-version segment removed: %v", statErr)
	}
}

func TestSegmentedIndexGapRefused(t *testing.T) {
	// Segment files are chained by index; a missing middle file is a hole
	// in the log whatever the checkpoint covers.
	dir := t.TempDir()
	names := fourSegments(t, dir)
	if err := os.Remove(filepath.Join(dir, names[1])); err != nil {
		t.Fatal(err)
	}
	_, err := OpenSegmented(dir, 100, SegmentedOptions{}, nil)
	if err == nil || !strings.Contains(err.Error(), "segment gap") {
		t.Fatalf("Open = %v, want segment gap", err)
	}
}

func TestSegmentedOverlappingFirstLSNRefused(t *testing.T) {
	// A segment whose (CRC-valid) first LSN lies inside the previous
	// segment's records would give two records one LSN.
	dir := t.TempDir()
	names := fourSegments(t, dir)
	rewriteHeader(t, filepath.Join(dir, names[1]), encodeSegHeader(1))
	_, err := OpenSegmented(dir, 0, SegmentedOptions{}, nil)
	if err == nil || !strings.Contains(err.Error(), "overlaps previous segment") {
		t.Fatalf("Open = %v, want overlap refusal", err)
	}
}

func TestSegmentedStaleEmptyTailHeaderRewritten(t *testing.T) {
	// An empty segment created before the checkpoint advanced carries a
	// stale first LSN; reopening past it rewrites the header in place
	// instead of rotating, so the next record lands at base+1.
	dir := t.TempDir()
	g, _ := openSeg(t, dir, 0, SegmentedOptions{})
	g.Close()

	g2, _ := openSeg(t, dir, 10, SegmentedOptions{})
	if st := g2.Stats(); st.Segments != 1 || st.NextLSN != 11 {
		t.Fatalf("stats after reopen = %+v", st)
	}
	data, err := os.ReadFile(filepath.Join(dir, segName(1)))
	if err != nil {
		t.Fatal(err)
	}
	if first, ok, err := parseSegHeader(data); !ok || err != nil || first != 11 {
		t.Fatalf("header first lsn = %d (ok=%v err=%v), want 11", first, ok, err)
	}
	if err := g2.Append([]byte("r11")); err != nil {
		t.Fatal(err)
	}
	g2.Close()

	g3, got := openSeg(t, dir, 10, SegmentedOptions{})
	defer g3.Close()
	if len(got) != 1 || got[11] != "r11" {
		t.Fatalf("replay = %v, want lsn 11 = r11", got)
	}
	if names := segFiles(t, dir); len(names) != 1 {
		t.Fatalf("segment files = %v, want one", names)
	}
}

func TestSegmentedIgnoresForeignFiles(t *testing.T) {
	// The WAL shares its directory with the snapshot and other files; only
	// names of the exact segment form take part in recovery.
	dir := t.TempDir()
	g, _ := openSeg(t, dir, 0, SegmentedOptions{})
	g.Append([]byte("a"))
	g.Close()
	foreign := []string{"snapshot.db", "wal.", "wal.tmp", "wal.000002x", "log.wal"}
	for _, name := range foreign {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("junk"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	g2, got := openSeg(t, dir, 0, SegmentedOptions{})
	if len(got) != 1 || got[1] != "a" {
		t.Fatalf("replay = %v", got)
	}
	if err := g2.Append([]byte("b")); err != nil {
		t.Fatal(err)
	}
	g2.Close()
	for _, name := range foreign {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil || string(data) != "junk" {
			t.Fatalf("foreign file %s disturbed: %q, %v", name, data, err)
		}
	}
}
