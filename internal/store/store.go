// Package store is a persistent, content-addressed characterization
// store. Entries are keyed by core.Fingerprint — a hash of everything
// that determines the measurement (cluster configuration plus
// normalized characterization parameters) — so a configuration is
// characterized once and every later session, sweep worker or CLI
// invocation that would measure the same thing reads the tables back
// instead. The paper treats characterization as the expensive,
// rarely-repeated phase; the store is what makes "rarely" true across
// process boundaries.
//
// Failure semantics: the store is a cache, never an authority. A
// corrupt, truncated or mismatched entry is treated as a miss, moved
// into a quarantine/ subdirectory for inspection, and recomputed; a
// failed write-back is counted and ignored. No store problem is ever
// fatal to an evaluation.
//
// Determinism: on a miss the computed characterization is encoded,
// persisted, and the *decoded* copy is returned — cold and warm runs
// both see tables that made one round trip through the persistence
// format, so a warm-started run is byte-identical to the cold run
// that filled the store.
package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"ioeval/internal/core"
	"ioeval/internal/telemetry"
)

const (
	entryFormat   = "ioeval-store-entry"
	entryVersion  = 1
	entryExt      = ".json"
	tmpPrefix     = ".tmp-"
	quarantineDir = "quarantine"
)

// entry is the on-disk envelope around one persisted characterization.
// The payload is the core persistence format
// ("ioeval-characterization"); the checksum covers the compacted
// payload bytes — a canonical form, since the envelope encoder re-flows
// the payload's whitespace — so bit rot inside the payload is caught
// before the payload's own decoder runs.
type entry struct {
	Format      string          `json:"format"`
	Version     int             `json:"version"`
	Fingerprint string          `json:"fingerprint"`
	Checksum    string          `json:"checksum_sha256"`
	Payload     json.RawMessage `json:"payload"`
}

// Stats are the store's monotonic counters.
type Stats struct {
	// Hits is the number of lookups served from disk.
	Hits int64
	// Misses counts lookups that had to characterize.
	Misses int64
	// Puts counts successful write-backs.
	Puts int64
	// Quarantined counts corrupt/mismatched entries moved aside.
	Quarantined int64

	BytesRead    int64
	BytesWritten int64
}

// Store is an on-disk characterization store rooted at one directory.
// It is safe for concurrent use. It does not single-flight: callers
// (core.Session, the sweep engine) already ask once per fingerprint,
// and two concurrent fills of one entry would only both measure and
// write the same bytes.
type Store struct {
	dir string

	mu    sync.Mutex
	stats Stats
}

// Open opens (creating if needed) the store rooted at dir. Leftover
// temporary files from a crashed writer are removed.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{dir: dir}
	// Crash recovery: a writer that died between CreateTemp and rename
	// leaves a tmp file no reader will ever match; sweep them.
	if names, err := os.ReadDir(dir); err == nil {
		for _, de := range names {
			if strings.HasPrefix(de.Name(), tmpPrefix) {
				_ = os.Remove(filepath.Join(dir, de.Name()))
			}
		}
	}
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Stats returns a copy of the store's counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// validFingerprint guards the fingerprint's use as a file name.
func validFingerprint(fp string) error {
	if fp == "" {
		return fmt.Errorf("store: empty fingerprint")
	}
	for _, r := range fp {
		ok := r >= '0' && r <= '9' || r >= 'a' && r <= 'f' || r >= 'A' && r <= 'F'
		if !ok {
			return fmt.Errorf("store: fingerprint %q is not hex", fp)
		}
	}
	return nil
}

// GetOrCompute returns the characterization stored under fingerprint,
// filling the entry via compute on a miss: the computed tables are
// encoded, persisted best-effort, and their decoding returned, so the
// caller sees exactly what a warm run will read back. Implements
// core.CharStore.
func (s *Store) GetOrCompute(fp string, compute func() (*core.Characterization, error)) (*core.Characterization, error) {
	if err := validFingerprint(fp); err != nil {
		return nil, err
	}
	if ch, ok := s.load(fp); ok {
		return ch, nil
	}
	s.addStat(func(st *Stats) { st.Misses++ })
	ch, err := compute()
	if err != nil {
		return nil, err
	}
	var payload bytes.Buffer
	if err := ch.WriteJSON(&payload); err != nil {
		// Unencodable tables cannot be stored; serve the computed copy.
		return ch, nil
	}
	rt, err := core.ReadCharacterizationJSON(bytes.NewReader(payload.Bytes()))
	if err != nil {
		return ch, nil
	}
	s.put(fp, payload.Bytes())
	return rt, nil
}

// Get returns the stored characterization for fingerprint, or false
// on a miss. It never computes.
func (s *Store) Get(fp string) (*core.Characterization, bool) {
	if validFingerprint(fp) != nil {
		return nil, false
	}
	return s.load(fp)
}

// load reads and verifies one entry. Every failure mode — unreadable
// file, bad envelope, wrong format/version/fingerprint, checksum
// mismatch, undecodable payload — quarantines the file and reports a
// miss.
func (s *Store) load(fp string) (*core.Characterization, bool) {
	path := filepath.Join(s.dir, fp+entryExt)
	raw, err := os.ReadFile(path)
	if err != nil {
		if !errors.Is(err, fs.ErrNotExist) {
			s.quarantine(path)
		}
		return nil, false
	}
	ch, err := decodeEntry(fp, raw)
	if err != nil {
		s.quarantine(path)
		return nil, false
	}
	s.addStat(func(st *Stats) {
		st.Hits++
		st.BytesRead += int64(len(raw))
	})
	return ch, true
}

func decodeEntry(fp string, raw []byte) (*core.Characterization, error) {
	var e entry
	if err := json.Unmarshal(raw, &e); err != nil {
		return nil, fmt.Errorf("store: entry %s: %w", fp, err)
	}
	if e.Format != entryFormat {
		return nil, fmt.Errorf("store: entry %s: unexpected format %q", fp, e.Format)
	}
	if e.Version != entryVersion {
		return nil, fmt.Errorf("store: entry %s: unsupported version %d", fp, e.Version)
	}
	if e.Fingerprint != fp {
		return nil, fmt.Errorf("store: entry %s: fingerprint mismatch (%s)", fp, e.Fingerprint)
	}
	sum, err := payloadChecksum(e.Payload)
	if err != nil {
		return nil, fmt.Errorf("store: entry %s: %w", fp, err)
	}
	if sum != e.Checksum {
		return nil, fmt.Errorf("store: entry %s: checksum mismatch", fp)
	}
	ch, err := core.ReadCharacterizationJSON(bytes.NewReader(e.Payload))
	if err != nil {
		return nil, fmt.Errorf("store: entry %s: %w", fp, err)
	}
	return ch, nil
}

// payloadChecksum hashes the payload in its compacted (canonical)
// form, so the checksum survives the whitespace re-flow the envelope
// encoder applies to nested raw JSON.
func payloadChecksum(payload []byte) (string, error) {
	var compact bytes.Buffer
	if err := json.Compact(&compact, payload); err != nil {
		return "", err
	}
	sum := sha256.Sum256(compact.Bytes())
	return hex.EncodeToString(sum[:]), nil
}

// put writes one entry atomically (temp file + rename).
// Write failures are dropped: the store is a cache, and a session
// that could not persist its tables still evaluated correctly.
func (s *Store) put(fp string, payload []byte) {
	sum, err := payloadChecksum(payload)
	if err != nil {
		return // non-JSON payloads cannot be stored
	}
	e := entry{
		Format:      entryFormat,
		Version:     entryVersion,
		Fingerprint: fp,
		Checksum:    sum,
		Payload:     json.RawMessage(payload),
	}
	raw, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return
	}
	raw = append(raw, '\n')
	tmp, err := os.CreateTemp(s.dir, tmpPrefix+"*")
	if err != nil {
		return
	}
	if _, err := tmp.Write(raw); err != nil {
		_ = tmp.Close()
		_ = os.Remove(tmp.Name())
		return
	}
	if err := tmp.Close(); err != nil {
		_ = os.Remove(tmp.Name())
		return
	}
	if err := os.Rename(tmp.Name(), filepath.Join(s.dir, fp+entryExt)); err != nil {
		_ = os.Remove(tmp.Name())
		return
	}
	s.addStat(func(st *Stats) {
		st.Puts++
		st.BytesWritten += int64(len(raw))
	})
}

// quarantine moves a bad entry aside (removing it if the move fails)
// so it never shadows a recomputation, while staying available for
// inspection.
func (s *Store) quarantine(path string) {
	qdir := filepath.Join(s.dir, quarantineDir)
	if err := os.MkdirAll(qdir, 0o755); err == nil {
		if err := os.Rename(path, filepath.Join(qdir, filepath.Base(path))); err != nil {
			_ = os.Remove(path)
		}
	} else {
		_ = os.Remove(path)
	}
	s.addStat(func(st *Stats) { st.Quarantined++ })
}

func (s *Store) addStat(f func(*Stats)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	f(&s.stats)
}

// Snapshot exposes the store as a telemetry probe on LevelStore:
// lookups served land in the read class, write-backs in the write
// class, and the cache-behaviour counters (hits, misses, puts,
// quarantined entries) ride in Aux.
func (s *Store) Snapshot() telemetry.Snapshot {
	st := s.Stats()
	return telemetry.Snapshot{
		Component: "char-store",
		Level:     telemetry.LevelStore,
		Units:     1,
		Counters: telemetry.Counters{
			Read:  telemetry.OpCounters{Ops: st.Hits, Bytes: st.BytesRead},
			Write: telemetry.OpCounters{Ops: st.Puts, Bytes: st.BytesWritten},
			Aux: map[string]int64{
				"hits":        st.Hits,
				"misses":      st.Misses,
				"puts":        st.Puts,
				"quarantined": st.Quarantined,
			},
		},
	}
}
