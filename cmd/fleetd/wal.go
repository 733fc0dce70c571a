package main

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// The write-ahead log closes fleetd's durability gap between
// checkpoints: every accepted event batch is appended and fsynced
// before its HTTP request is acknowledged, so a 202 means the events
// survive a crash. On restart the daemon restores the newest readable
// checkpoint generation and replays the log past the restored
// watermarks.
//
// The log is a flat sequence of length-prefixed records:
//
//	[u32 payload length][u32 CRC32-IEEE of payload][payload]
//
// (both integers little-endian). The payload is one JSON walRecord —
// the batches of a single coalescing tick, each stamped with the
// member tick it produced. Records are only ever appended, each
// followed by one fsync; a crash can therefore leave at most a
// truncated tail, which openWAL detects (short header, short payload,
// or CRC mismatch at end-of-file) and truncates away. The same checks
// guard against bit rot anywhere in the file: a bad record that is
// *not* at the tail means acked events after it would be lost, so
// openWAL refuses with errWALCorrupt rather than replaying a hole.
type wal struct {
	f    *os.File
	path string
	size int64 // committed length (end of last good record)
}

// errWALCorrupt reports a damaged record with intact records after it
// — a hole that replay cannot skip without losing acked events.
var errWALCorrupt = errors.New("fleetd: write-ahead log corrupt mid-file")

// walRecord is one coalescing tick's worth of accepted events.
type walRecord struct {
	Nets []walBatch `json:"nets"`
}

// walBatch is the accepted events one member received in one tick,
// stamped with the member tick the batch produced (the member's
// completed-tick clock after applying it). Replay uses the stamp to
// be idempotent: a batch whose tick the restored member has already
// completed is skipped, one exactly at clock+1 is applied, and any
// gap means the checkpoint and log disagree.
type walBatch struct {
	Net    int         `json:"net"`
	Tick   int         `json:"tick"`
	Events []wireEvent `json:"events"`
}

const walHeaderLen = 8 // u32 length + u32 CRC

// openWAL opens (creating if absent) the log at path, scans every
// record, truncates a torn tail, and leaves the file positioned for
// appending. The scanned records are returned for replay.
func openWAL(path string) (*wal, []walRecord, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, err
	}
	recs, good, err := scanWAL(f)
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	// Drop a torn tail so the next append starts at a record boundary.
	if err := f.Truncate(good); err != nil {
		f.Close()
		return nil, nil, err
	}
	if _, err := f.Seek(good, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, err
	}
	return &wal{f: f, path: path, size: good}, recs, nil
}

// scanWAL reads records from the start of f, returning the decoded
// records and the offset just past the last good one. A damaged
// region at the tail is reported only through the offset (the caller
// truncates it); a damaged region with a good record after it is
// errWALCorrupt.
func scanWAL(f *os.File) ([]walRecord, int64, error) {
	info, err := f.Stat()
	if err != nil {
		return nil, 0, err
	}
	total := info.Size()
	var (
		recs []walRecord
		off  int64
		hdr  [walHeaderLen]byte
	)
	for off < total {
		if total-off < walHeaderLen {
			break // torn header
		}
		if _, err := f.ReadAt(hdr[:], off); err != nil {
			return nil, 0, err
		}
		n := int64(binary.LittleEndian.Uint32(hdr[0:4]))
		sum := binary.LittleEndian.Uint32(hdr[4:8])
		if total-off-walHeaderLen < n {
			break // torn payload
		}
		payload := make([]byte, n)
		if _, err := f.ReadAt(payload, off+walHeaderLen); err != nil {
			return nil, 0, err
		}
		var rec walRecord
		if crc32.ChecksumIEEE(payload) != sum || json.Unmarshal(payload, &rec) != nil {
			// Bad record: tolerable only as the file's final region.
			if restIntact(f, off+walHeaderLen+n, total) {
				return nil, 0, errWALCorrupt
			}
			break
		}
		recs = append(recs, rec)
		off += walHeaderLen + n
	}
	return recs, off, nil
}

// restIntact reports whether [off, total) parses as at least one good
// record — which would make a preceding bad record a mid-file hole
// rather than a torn tail.
func restIntact(f *os.File, off, total int64) bool {
	var hdr [walHeaderLen]byte
	if total-off < walHeaderLen {
		return false
	}
	if _, err := f.ReadAt(hdr[:], off); err != nil {
		return false
	}
	n := int64(binary.LittleEndian.Uint32(hdr[0:4]))
	if total-off-walHeaderLen < n {
		return false
	}
	payload := make([]byte, n)
	if _, err := f.ReadAt(payload, off+walHeaderLen); err != nil {
		return false
	}
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(hdr[4:8]) {
		return false
	}
	var rec walRecord
	return json.Unmarshal(payload, &rec) == nil
}

// Append writes one record and fsyncs. Only after Append returns nil
// may the events in rec be acknowledged.
func (w *wal) Append(rec walRecord) error {
	payload, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	buf := make([]byte, walHeaderLen+len(payload))
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.ChecksumIEEE(payload))
	copy(buf[walHeaderLen:], payload)
	if _, err := w.f.WriteAt(buf, w.size); err != nil {
		return err
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	w.size += int64(len(buf))
	return nil
}

// compact rewrites the log to hold only the records keep selects,
// replacing w: it writes a fresh file, fsyncs, renames it over the
// log, fsyncs the directory so the rename survives power loss, and
// reopens. The caller must not use w afterwards. The keep
// predicate encodes the retention invariant — a record may only be
// dropped once every retained checkpoint generation covers it, or a
// generation-fallback restore would find a hole where its missing
// events should be.
func (w *wal) compact(recs []walRecord, keep func(walRecord) bool) (*wal, error) {
	tmp := w.path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return nil, err
	}
	nw := &wal{f: f, path: tmp}
	for _, rec := range recs {
		if !keep(rec) {
			continue
		}
		if err := nw.Append(rec); err != nil {
			f.Close()
			os.Remove(tmp)
			return nil, err
		}
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return nil, err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return nil, err
	}
	w.f.Close()
	if err := os.Rename(tmp, w.path); err != nil {
		return nil, err
	}
	if err := syncDir(filepath.Dir(w.path)); err != nil {
		return nil, err
	}
	re, _, err := openWAL(w.path)
	return re, err
}

func (w *wal) Close() error { return w.f.Close() }
