package main

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"cbtc/internal/chaos"
)

func walPath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "fleet.ckpt.wal")
}

func walRecs(n int) []walRecord {
	recs := make([]walRecord, n)
	for i := range recs {
		recs[i] = walRecord{Nets: []walBatch{
			{Net: 0, Tick: i + 1, Events: []wireEvent{{Op: "join", Net: 0, X: float64(i), Y: 1}}},
			{Net: 1, Tick: i + 1, Events: []wireEvent{{Op: "move", Net: 1, ID: i, X: 2, Y: 3}}},
		}}
	}
	return recs
}

func TestWALRoundTrip(t *testing.T) {
	path := walPath(t)
	w, recs, err := openWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh log holds %d records", len(recs))
	}
	want := walRecs(5)
	for _, rec := range want {
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w, got, err := openWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, want)
	}
	// The reopened log must keep appending at the right offset.
	extra := walRecord{Nets: []walBatch{{Net: 0, Tick: 6, Events: []wireEvent{{Op: "leave", ID: 4}}}}}
	if err := w.Append(extra); err != nil {
		t.Fatal(err)
	}
	w.Close()
	if _, got, err = openWAL(path); err != nil || len(got) != 6 {
		t.Fatalf("after reopen+append: %d records, err %v", len(got), err)
	}
}

// A crash mid-append leaves a torn tail: a partial header, a partial
// payload, or a complete-but-wrong-CRC record at end of file. All
// three must be truncated away, keeping every record before them.
func TestWALTornTail(t *testing.T) {
	for name, tear := range map[string]func([]byte) []byte{
		"partial-header":  func(b []byte) []byte { return append(b, 0x01, 0x02) },
		"partial-payload": func(b []byte) []byte { return append(b, 0xFF, 0x00, 0x00, 0x00, 0xAB, 0xCD, 0xEF, 0x01, '{') },
		"bad-tail-crc": func(b []byte) []byte {
			// Append a well-framed record whose CRC is wrong.
			payload := []byte(`{"nets":null}`)
			hdr := make([]byte, walHeaderLen)
			binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
			binary.LittleEndian.PutUint32(hdr[4:8], 0xDEADBEEF)
			return append(append(b, hdr...), payload...)
		},
	} {
		t.Run(name, func(t *testing.T) {
			path := walPath(t)
			w, _, err := openWAL(path)
			if err != nil {
				t.Fatal(err)
			}
			want := walRecs(3)
			for _, rec := range want {
				if err := w.Append(rec); err != nil {
					t.Fatal(err)
				}
			}
			w.Close()
			good, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tear(good), 0o644); err != nil {
				t.Fatal(err)
			}
			w, got, err := openWAL(path)
			if err != nil {
				t.Fatalf("openWAL on torn tail: %v", err)
			}
			defer w.Close()
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("torn tail: recovered %d records, want %d intact", len(got), len(want))
			}
			// The tail was truncated: the file is exactly the good prefix
			// again, and appending resumes on a record boundary.
			if info, _ := os.Stat(path); info.Size() != int64(len(good)) {
				t.Fatalf("file is %d bytes after truncation, want %d", info.Size(), len(good))
			}
			if err := w.Append(walRecs(4)[3]); err != nil {
				t.Fatal(err)
			}
			if _, got, err := openWAL(path); err != nil || len(got) != 4 {
				t.Fatalf("append after truncation: %d records, err %v", len(got), err)
			}
		})
	}
}

// Corruption strictly inside the log — with intact records after it —
// is a hole replay cannot skip: acked events would be lost silently.
// openWAL must refuse rather than truncate good records away.
func TestWALMidFileCorruption(t *testing.T) {
	path := walPath(t)
	w, _, err := openWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range walRecs(4) {
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside the first record's payload.
	data[walHeaderLen+2] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := openWAL(path); !errors.Is(err, errWALCorrupt) {
		t.Fatalf("openWAL on mid-file corruption: %v, want errWALCorrupt", err)
	}
}

func TestWALCompact(t *testing.T) {
	path := walPath(t)
	w, _, err := openWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	recs := walRecs(6)
	for _, rec := range recs {
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	// Keep only records past tick 4 — as recovery does for records the
	// oldest checkpoint generation already covers.
	w, err = w.compact(recs, func(rec walRecord) bool { return rec.Nets[0].Tick > 4 })
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(walRecord{Nets: []walBatch{{Net: 0, Tick: 7}}}); err != nil {
		t.Fatal(err)
	}
	w.Close()
	_, got, err := openWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0].Nets[0].Tick != 5 || got[2].Nets[0].Tick != 7 {
		t.Fatalf("after compaction: %+v", got)
	}
}

// The chaos corruption primitive and the scanner agree: a flipped byte
// anywhere in a record makes that record unreadable, never silently
// wrong.
func TestWALChaosFlip(t *testing.T) {
	path := walPath(t)
	w, _, err := openWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(walRecs(1)[0]); err != nil {
		t.Fatal(err)
	}
	w.Close()
	data, _ := os.ReadFile(path)
	chaos.FlipByte(99, data)
	os.WriteFile(path, data, 0o644)
	_, got, err := openWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("corrupted single-record log yielded %d records", len(got))
	}
}

// stubSyncDir replaces syncDir for one test. Each call runs check, then
// returns fail.
func stubSyncDir(t *testing.T, check func(dir string), fail error) *int {
	t.Helper()
	calls := new(int)
	prev := syncDir
	syncDir = func(dir string) error {
		*calls++
		check(dir)
		return fail
	}
	t.Cleanup(func() { syncDir = prev })
	return calls
}

// Compaction fsyncs the log's directory after renaming the rewritten
// log into place, and a failed directory sync fails the compaction.
func TestWALCompactSyncsDirectory(t *testing.T) {
	path := walPath(t)
	recs := walRecs(4)
	keep := func(rec walRecord) bool { return rec.Nets[0].Tick > 2 }
	calls := stubSyncDir(t, func(dir string) {
		if dir != filepath.Dir(path) {
			t.Errorf("synced %s, want the log's directory %s", dir, filepath.Dir(path))
		}
		if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
			t.Errorf("directory synced before the final rename: temp file stat %v", err)
		}
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if got, _, _ := scanWAL(f); len(got) != 2 {
			t.Errorf("directory synced before the compacted log was in place: %d records", len(got))
		}
	}, nil)
	w, _, err := openWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	w, err = w.compact(recs, keep)
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	if *calls != 1 {
		t.Fatalf("compaction synced the directory %d times, want 1", *calls)
	}

	errSync := errors.New("injected directory sync failure")
	stubSyncDir(t, func(string) {}, errSync)
	w, _, err = openWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.compact(recs, keep); !errors.Is(err, errSync) {
		t.Fatalf("compact with a failing directory sync: got %v, want %v", err, errSync)
	}
}
