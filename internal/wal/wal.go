// Package wal implements the segmented write-ahead log the storage engine
// uses for durability (see segment.go): a directory of numbered
// append-only segment files whose headers carry the LSN of their first
// record, rotated at a size threshold and truncated by checkpoints. This
// file holds the record framing the segments share.
//
// Record layout:
//
//	--- segment header (see segHeaderSize) ---
//	--- per record ---
//	length  uint32   payload length
//	crc     uint32   IEEE CRC-32 of payload
//	payload [length]byte
//
// A torn tail (partial final record, e.g. after a crash) is detected by the
// length/CRC and truncated on recovery; a bad record followed by more data
// is corruption and refuses to open.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
)

var magic = [4]byte{'c', 'd', 'b', 'W'}

// recPrefix is the per-record framing length (u32 length + u32 CRC).
const recPrefix = 8

// ErrCorrupt is returned (wrapped) when a log contains a record whose CRC
// does not match in a position other than the tail.
var ErrCorrupt = errors.New("wal: corrupt record")

// frameRecord appends one record's framing and payload to dst.
func frameRecord(dst, payload []byte) []byte {
	var rec [recPrefix]byte
	binary.LittleEndian.PutUint32(rec[:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(rec[4:], crc32.ChecksumIEEE(payload))
	dst = append(dst, rec[:]...)
	return append(dst, payload...)
}

// frameBatch serialises the framing of every payload into one buffer, so a
// group commit of n records costs one write syscall instead of 2n.
func frameBatch(payloads [][]byte) []byte {
	total := 0
	for _, p := range payloads {
		total += recPrefix + len(p)
	}
	buf := make([]byte, 0, total)
	for _, p := range payloads {
		buf = frameRecord(buf, p)
	}
	return buf
}

// scanRecords walks the length-prefixed records in buf, calling fn for each
// intact record. It returns the offset just past the last intact record.
// torn reports whether leftover bytes follow that offset: an incomplete
// length prefix, a short payload, or a CRC-mismatched record that is the
// very last thing in the buffer — the signature of a crash mid-append. A
// CRC mismatch with more data after it is not a torn tail but corruption,
// reported via err (fn errors are also returned through err, with end at
// the offending record). The payload passed to fn aliases buf.
func scanRecords(buf []byte, fn func(payload []byte) error) (end int, torn bool, err error) {
	off := 0
	for {
		if off+recPrefix > len(buf) {
			return off, off != len(buf), nil
		}
		rawLen := binary.LittleEndian.Uint32(buf[off : off+4])
		crc := binary.LittleEndian.Uint32(buf[off+4 : off+recPrefix])
		// The length is garbage-controlled on recovery: bound it by the
		// bytes actually present before converting or slicing (the uint64
		// comparison also keeps a >=2^31 length from going negative on
		// 32-bit builds).
		if uint64(rawLen) > uint64(len(buf)-off-recPrefix) {
			return off, true, nil
		}
		length := int(rawLen)
		payload := buf[off+recPrefix : off+recPrefix+length]
		if crc32.ChecksumIEEE(payload) != crc {
			if off+recPrefix+length == len(buf) {
				return off, true, nil // torn tail: claimed extent ends the buffer
			}
			return off, false, fmt.Errorf("%w at offset %d", ErrCorrupt, off)
		}
		if fn != nil {
			if err := fn(payload); err != nil {
				return off, false, err
			}
		}
		off += recPrefix + length
	}
}

// syncDir fsyncs a directory so entry creation/removal inside it is
// durable (best effort on filesystems without directory sync).
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}
