package store

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"ioeval/internal/bench"
	"ioeval/internal/cluster"
	"ioeval/internal/core"
	"ioeval/internal/nfs"
	"ioeval/internal/telemetry"
)

const (
	kb = int64(1) << 10
	mb = int64(1) << 20
	gb = int64(1) << 30
)

// tinyCluster is a minimal platform whose characterization runs in
// milliseconds.
func tinyCluster() *cluster.Cluster {
	return cluster.New(cluster.Config{
		Name:         "store-test",
		ComputeNodes: 2,
		NodeRAM:      256 * mb,
		NodeDiskCap:  10 * gb,
		NodeDiskRate: 90e6,
		IONodeRAM:    256 * mb,
		IODiskCap:    20 * gb,
		IODiskRate:   100e6,
		Org:          cluster.JBOD,
		StripeUnit:   256 * kb,
		RAID5Disks:   5,
		NFSServer:    nfs.DefaultServerParams("store-test-nfs"),
		NFSClient:    nfs.DefaultClientParams("store-test-nfs"),
	})
}

// quickChar keeps the characterization phase minimal.
func quickChar() core.CharacterizeConfig {
	return core.CharacterizeConfig{
		FSBlockSizes:   []int64{64 * kb, mb},
		FSModes:        []bench.Mode{bench.SeqWrite, bench.SeqRead},
		LocalFileSize:  64 * mb,
		GlobalFileSize: 64 * mb,
		LibProcs:       2,
		LibBlockSizes:  []int64{4 * mb},
		LibTransfer:    256 * kb,
		LibFileSize:    16 * mb,
		RandomOps:      128,
	}
}

// testChar computes one real characterization (and its content
// fingerprint) once per test process; every test that needs a payload
// shares it.
var (
	charOnce sync.Once
	charFP   string
	charVal  *core.Characterization
	charErr  error
)

func testChar(t *testing.T) (string, *core.Characterization) {
	t.Helper()
	charOnce.Do(func() {
		charFP, charErr = core.Fingerprint(tinyCluster, quickChar())
		if charErr != nil {
			return
		}
		sess := core.NewSession(tinyCluster, core.WithCharacterizeConfig(quickChar()))
		charVal, charErr = sess.Characterization()
	})
	if charErr != nil {
		t.Fatalf("shared characterization: %v", charErr)
	}
	return charFP, charVal
}

// charBytes is the canonical persisted form of a characterization.
func charBytes(t *testing.T, ch *core.Characterization) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := ch.WriteJSON(&buf); err != nil {
		t.Fatalf("encode characterization: %v", err)
	}
	return buf.Bytes()
}

func open(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatalf("open %s: %v", dir, err)
	}
	return s
}

func TestOpenRejectsEmptyDir(t *testing.T) {
	if _, err := Open(""); err == nil {
		t.Fatal("Open(\"\") must fail")
	}
}

func TestInvalidFingerprintRejected(t *testing.T) {
	s := open(t, t.TempDir())
	if _, err := s.GetOrCompute("../escape", nil); err == nil {
		t.Fatal("non-hex fingerprint must be rejected")
	}
	if _, err := s.GetOrCompute("", nil); err == nil {
		t.Fatal("empty fingerprint must be rejected")
	}
	if _, ok := s.Get("zz"); ok {
		t.Fatal("Get with invalid fingerprint must miss")
	}
}

func TestOpenSweepsTmpFiles(t *testing.T) {
	dir := t.TempDir()
	tmp := filepath.Join(dir, tmpPrefix+"crashed")
	if err := os.WriteFile(tmp, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	open(t, dir)
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("leftover temp file survived Open: %v", err)
	}
}

// TestColdThenWarm pins the store's central contract: the cold call
// computes once, persists, and returns the round-tripped tables; a
// fresh store on the same directory serves the identical bytes from
// disk without computing.
func TestColdThenWarm(t *testing.T) {
	fp, ch := testChar(t)
	dir := t.TempDir()

	cold := open(t, dir)
	var computes atomic.Int64
	got, err := cold.GetOrCompute(fp, func() (*core.Characterization, error) {
		computes.Add(1)
		return ch, nil
	})
	if err != nil {
		t.Fatalf("cold: %v", err)
	}
	if computes.Load() != 1 {
		t.Fatalf("cold computes = %d, want 1", computes.Load())
	}
	if st := cold.Stats(); st.Misses != 1 || st.Puts != 1 || st.Hits != 0 {
		t.Fatalf("cold stats = %+v", st)
	}
	if _, err := os.Stat(filepath.Join(dir, fp+entryExt)); err != nil {
		t.Fatalf("entry file missing after put: %v", err)
	}

	warm := open(t, dir)
	wgot, err := warm.GetOrCompute(fp, func() (*core.Characterization, error) {
		t.Fatal("warm store must not compute")
		return nil, nil
	})
	if err != nil {
		t.Fatalf("warm: %v", err)
	}
	if st := warm.Stats(); st.Hits != 1 || st.Misses != 0 {
		t.Fatalf("warm stats = %+v", st)
	}
	// Byte identity: cold (round-tripped) and warm (loaded) encode the
	// same persisted form.
	if !bytes.Equal(charBytes(t, got), charBytes(t, wgot)) {
		t.Fatal("cold and warm characterizations differ")
	}
}

// TestGetNeverComputes pins Get's read-only contract.
func TestGetNeverComputes(t *testing.T) {
	fp, ch := testChar(t)
	dir := t.TempDir()
	s := open(t, dir)
	if _, ok := s.Get(fp); ok {
		t.Fatal("Get on an empty store must miss")
	}
	if _, err := s.GetOrCompute(fp, func() (*core.Characterization, error) { return ch, nil }); err != nil {
		t.Fatal(err)
	}
	warm := open(t, dir)
	got, ok := warm.Get(fp)
	if !ok || got == nil {
		t.Fatal("Get after a put must hit")
	}
}

// TestFailedComputeRetryable: a compute error must not poison the memo.
func TestFailedComputeRetryable(t *testing.T) {
	fp, ch := testChar(t)
	s := open(t, t.TempDir())
	boom := func() (*core.Characterization, error) { return nil, os.ErrPermission }
	if _, err := s.GetOrCompute(fp, boom); err == nil {
		t.Fatal("compute error must surface")
	}
	got, err := s.GetOrCompute(fp, func() (*core.Characterization, error) { return ch, nil })
	if err != nil || got == nil {
		t.Fatalf("retry after failed compute: %v", err)
	}
}

// TestCorruptEntriesQuarantined covers every on-disk failure mode: the
// damaged entry must read as a miss, move to quarantine/, and be
// transparently recomputed and re-persisted.
func TestCorruptEntriesQuarantined(t *testing.T) {
	fp, ch := testChar(t)
	damage := map[string]func(t *testing.T, path string){
		"truncated": func(t *testing.T, path string) {
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, raw[:len(raw)/2], 0o644); err != nil {
				t.Fatal(err)
			}
		},
		"bit-flip": func(t *testing.T, path string) {
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			// Flip a byte inside the payload body, past the envelope keys.
			i := bytes.Index(raw, []byte(`"payload"`)) + 64
			raw[i] ^= 0xff
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
		},
		"not-json": func(t *testing.T, path string) {
			if err := os.WriteFile(path, []byte("not json at all"), 0o644); err != nil {
				t.Fatal(err)
			}
		},
		"wrong-version": func(t *testing.T, path string) {
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			raw = bytes.Replace(raw, []byte(`"version": 1`), []byte(`"version": 99`), 1)
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
		},
		"empty": func(t *testing.T, path string) {
			if err := os.WriteFile(path, nil, 0o644); err != nil {
				t.Fatal(err)
			}
		},
	}
	for name, corrupt := range damage {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			s := open(t, dir)
			if _, err := s.GetOrCompute(fp, func() (*core.Characterization, error) { return ch, nil }); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, fp+entryExt)
			corrupt(t, path)

			warm := open(t, dir)
			var computes atomic.Int64
			got, err := warm.GetOrCompute(fp, func() (*core.Characterization, error) {
				computes.Add(1)
				return ch, nil
			})
			if err != nil || got == nil {
				t.Fatalf("corrupt entry must never be fatal: %v", err)
			}
			if computes.Load() != 1 {
				t.Fatalf("computes = %d, want 1 (corrupt entry is a miss)", computes.Load())
			}
			st := warm.Stats()
			if st.Quarantined != 1 || st.Hits != 0 || st.Misses != 1 {
				t.Fatalf("stats = %+v", st)
			}
			if _, err := os.Stat(filepath.Join(dir, quarantineDir, fp+entryExt)); err != nil {
				t.Fatalf("damaged entry not quarantined: %v", err)
			}
			// The recompute re-persisted a good entry: the next store hits.
			again := open(t, dir)
			if _, ok := again.Get(fp); !ok {
				t.Fatal("entry not re-persisted after quarantine")
			}
		})
	}
}

// TestFingerprintMismatchQuarantined: an entry stored under the wrong
// name (e.g. a mis-copied store directory) must not be served.
func TestFingerprintMismatchQuarantined(t *testing.T) {
	fp, ch := testChar(t)
	dir := t.TempDir()
	s := open(t, dir)
	if _, err := s.GetOrCompute(fp, func() (*core.Characterization, error) { return ch, nil }); err != nil {
		t.Fatal(err)
	}
	other := strings.Repeat("ab", 32)
	if err := os.Rename(filepath.Join(dir, fp+entryExt), filepath.Join(dir, other+entryExt)); err != nil {
		t.Fatal(err)
	}
	warm := open(t, dir)
	if _, ok := warm.Get(other); ok {
		t.Fatal("entry with mismatched fingerprint must miss")
	}
	if st := warm.Stats(); st.Quarantined != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestSnapshotProbe pins the telemetry mapping.
func TestSnapshotProbe(t *testing.T) {
	fp, ch := testChar(t)
	dir := t.TempDir()
	s := open(t, dir)
	if _, err := s.GetOrCompute(fp, func() (*core.Characterization, error) { return ch, nil }); err != nil {
		t.Fatal(err)
	}
	warm := open(t, dir)
	if _, err := warm.GetOrCompute(fp, nil); err != nil {
		t.Fatal(err)
	}
	snap := warm.Snapshot()
	if snap.Component != "char-store" || snap.Level != telemetry.LevelStore {
		t.Fatalf("snapshot identity = %+v", snap)
	}
	if snap.Counters.Read.Ops != 1 || snap.Counters.Read.Bytes == 0 {
		t.Fatalf("read counters = %+v", snap.Counters.Read)
	}
	aux := snap.Counters.Aux
	if aux["hits"] != 1 || aux["misses"] != 0 || aux["quarantined"] != 0 {
		t.Fatalf("aux = %v", aux)
	}
}
