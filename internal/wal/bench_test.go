package wal

import "testing"

func BenchmarkAppendSync(b *testing.B) {
	g, err := OpenSegmented(b.TempDir(), 0, SegmentedOptions{}, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer g.Close()
	payload := make([]byte, 256)
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := g.Append(payload); err != nil {
			b.Fatal(err)
		}
		if err := g.Sync(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSegmentedAppend(b *testing.B) {
	g, err := OpenSegmented(b.TempDir(), 0, SegmentedOptions{}, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer g.Close()
	payload := make([]byte, 256)
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := g.Append(payload); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSegmentedReplay(b *testing.B) {
	dir := b.TempDir()
	g, err := OpenSegmented(dir, 0, SegmentedOptions{SegmentBytes: 1 << 20}, nil)
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 256)
	const records = 10000
	for i := 0; i < records; i++ {
		g.Append(payload)
	}
	g.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		g, err := OpenSegmented(dir, 0, SegmentedOptions{}, func(uint64, []byte) error { n++; return nil })
		if err != nil {
			b.Fatal(err)
		}
		if n != records {
			b.Fatalf("replayed %d", n)
		}
		g.Close()
	}
}

func BenchmarkSegmentedReadRange(b *testing.B) {
	g, err := OpenSegmented(b.TempDir(), 0, SegmentedOptions{SegmentBytes: 1 << 18}, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer g.Close()
	payload := make([]byte, 256)
	const records = 8192
	for i := 0; i < records; i++ {
		g.Append(payload)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		if err := g.ReadRange(records/2, records, func(uint64, []byte) error { n++; return nil }); err != nil {
			b.Fatal(err)
		}
		if n != records/2+1 {
			b.Fatalf("read %d", n)
		}
	}
}
