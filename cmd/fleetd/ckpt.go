package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"cbtc"
)

// ckptFaultHook, when non-nil, is consulted before each checkpoint
// write attempt with the attempt's sequence number; returning an error
// fails the attempt. It exists for the chaos tests (injected
// checkpoint-write failures exercising the retry/backoff path) and is
// nil in production.
var ckptFaultHook func(seq uint64) error

// syncDir fsyncs directory dir. A rename reaches stable storage only
// once its parent directory is synced: without it, checkpoint rotation
// and WAL compaction survive kill -9 but not power loss. Both route the
// sync through this variable so tests can observe it and inject its
// failure.
var syncDir = func(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// ckptStore writes and restores fleet checkpoints with generational
// rotation: the newest checkpoint lives at path, the previous one at
// path.1, and so on up to path.<gens>. Every write is verified before
// it is committed, so a generation on disk was restorable at least
// once; restore still tries newest to oldest so that later disk
// corruption of one generation (or a crash between the rotation
// renames) falls back to the next instead of killing the daemon.
// Combined with the write-ahead log, falling back to an older
// generation loses nothing: the log is only reset after a verified
// checkpoint, so it still holds every acked event past any retained
// generation's watermarks.
//
// Verification (Engine.VerifyFleetCheckpoint) decodes the bytes and
// runs every check a restore runs: the base and member engine
// fingerprints, each member's RNG state, battery vector and node rows.
// It builds no member. A member's grid, N_α, G and G_R are pure
// functions of its positions, liveness and node rows, so building them
// would check nothing more; a checkpoint that verifies restores.
type ckptStore struct {
	eng  *cbtc.Engine
	path string
	gens int    // older generations retained beyond path itself
	seq  uint64 // write attempts, for the fault hook
	size int    // bytes of the last checkpoint encoded, to size the next
	// committed holds the clocks verification returned for the bytes the
	// last Write renamed into path, nil until a Write commits.
	committed *cbtc.FleetWatermarks
}

// gen returns the path of generation i (0 = newest).
func (s *ckptStore) gen(i int) string {
	if i == 0 {
		return s.path
	}
	return fmt.Sprintf("%s.%d", s.path, i)
}

// Write checkpoints the fleet as the new newest generation: encode to
// memory, verify, write and fsync a temp file, rotate the existing
// generations down, rename the temp file into place, and fsync the
// directory so the renames survive power loss. A failure before the
// rotation leaves the previous generations untouched.
func (s *ckptStore) Write(fleet *cbtc.Fleet) error {
	seq := s.seq
	s.seq++
	if ckptFaultHook != nil {
		if err := ckptFaultHook(seq); err != nil {
			return err
		}
	}
	// A fleet's checkpoint size changes only with its node and edge
	// counts, so the previous one sizes the buffer in one allocation.
	var buf bytes.Buffer
	buf.Grow(s.size)
	if err := fleet.Checkpoint(&buf); err != nil {
		return err
	}
	s.size = buf.Len()
	// Verify-on-write: what we are about to commit must restore. This
	// catches encoding bugs and injected corruption before a bad byte
	// stream can shadow the good generations below it.
	wm, err := s.eng.VerifyFleetCheckpoint(bytes.NewReader(buf.Bytes()))
	if err != nil {
		return fmt.Errorf("checkpoint failed verification: %w", err)
	}
	tmp := s.path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	_, err = f.Write(buf.Bytes())
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		_ = os.Remove(tmp)
		return err
	}
	// Rotate: path.(gens-1) → path.gens, …, path → path.1. A missing
	// source (first writes, or a crash mid-rotation) is skipped.
	s.committed = nil
	for i := s.gens - 1; i >= 0; i-- {
		if err := os.Rename(s.gen(i), s.gen(i+1)); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	if err := os.Rename(tmp, s.path); err != nil {
		return err
	}
	s.committed = &wm
	return syncDir(filepath.Dir(s.path))
}

// Restore tries each generation newest to oldest and returns the first
// fleet that decodes, along with the path it came from. A generation
// that is missing or fails to decode falls through to the next; only
// when no generation exists at all does Restore report
// (nil, "", os.ErrNotExist) so the caller can build a fresh fleet.
// When generations exist but none decodes, the accumulated errors are
// returned — starting fresh would silently discard state.
func (s *ckptStore) Restore() (*cbtc.Fleet, string, error) {
	var (
		errs  []error
		found bool
	)
	for i := 0; i <= s.gens; i++ {
		p := s.gen(i)
		f, err := os.Open(p)
		if err != nil {
			if !os.IsNotExist(err) {
				errs = append(errs, err)
				found = true
			}
			continue
		}
		found = true
		fleet, err := s.eng.RestoreFleet(f)
		f.Close()
		if err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", p, err))
			continue
		}
		return fleet, p, nil
	}
	if !found {
		return nil, "", os.ErrNotExist
	}
	return nil, "", fmt.Errorf("no readable checkpoint generation: %w", errors.Join(errs...))
}

// oldestWatermarks verifies the generations oldest first and returns
// the per-member tick clocks of the first that would restore — the
// floor below which no fallback restore can land, and therefore the
// line behind which the write-ahead log may be compacted. It builds no
// fleet. Reaching path itself after a committed Write, it returns the
// clocks that Write verified instead of reading the file again: a fresh
// boot, whose only generation is the one recovery just wrote, verifies
// it once.
func (s *ckptStore) oldestWatermarks() (cbtc.FleetWatermarks, bool) {
	for i := s.gens; i >= 0; i-- {
		if i == 0 && s.committed != nil {
			return *s.committed, true
		}
		f, err := os.Open(s.gen(i))
		if err != nil {
			continue
		}
		wm, err := s.eng.VerifyFleetCheckpoint(f)
		f.Close()
		if err != nil {
			continue
		}
		return wm, true
	}
	return cbtc.FleetWatermarks{}, false
}
