package synth_test

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"ioeval/internal/cluster"
	"ioeval/internal/sim"
	"ioeval/internal/trace"
	"ioeval/internal/workload"
	"ioeval/internal/workload/btio"
	"ioeval/internal/workload/flashio"
	"ioeval/internal/workload/madbench"
	"ioeval/internal/workload/synth"
)

// workloadDigests pins every application workload to one SHA-256 per
// configuration. The digests were recorded from the hand-coded rank
// loops that BT-IO, MADbench2 and FLASH-IO ran before each became a
// spec generator, so they carry the hand-coded semantics forward.
const workloadDigests = "testdata/workloads.sha256"

// quickClass is the reduced BT-IO class the other workload tests use
// (4 dumps).
var quickClass = btio.Class{Name: "Q", N: 64, Steps: 20, WriteInterval: 5, ComputeTotal: 10 * sim.Second}

func aohyper(org cluster.Organization) func() *cluster.Cluster {
	return func() *cluster.Cluster { return cluster.Aohyper(org) }
}

// runDigest runs app on a fresh cluster under a fresh tracer and
// hashes everything the run reports: the app's identity, the full
// Result (times, bytes, phase rates), every trace event (operation,
// offset, size, timestamps) and the derived Profile. The simulation is
// deterministic, so any drift in the DSL engine or the generator
// changes the digest.
func runDigest(t *testing.T, build func() *cluster.Cluster, app workload.App) string {
	t.Helper()
	tr := trace.New()
	res, err := app.Run(build(), tr)
	if err != nil {
		t.Fatalf("%s: run: %v", app.Name(), err)
	}
	h := sha256.New()
	enc := json.NewEncoder(h)
	put := func(v any) {
		if err := enc.Encode(v); err != nil {
			t.Fatalf("digest: %v", err)
		}
	}
	put(app.Name())
	put(app.Procs())
	put(res)
	for _, ev := range tr.Events() {
		put(ev)
	}
	put(tr.Profile())
	return hex.EncodeToString(h.Sum(nil))
}

// assertDigest checks got against the committed digest named name, or
// rewrites that entry under -update.
func assertDigest(t *testing.T, name, got string) {
	t.Helper()
	digests := readDigests(t)
	if *update {
		digests[name] = got
		names := make([]string, 0, len(digests))
		for n := range digests {
			names = append(names, n)
		}
		sort.Strings(names)
		var b strings.Builder
		for _, n := range names {
			fmt.Fprintf(&b, "%s  %s\n", digests[n], n)
		}
		if err := os.WriteFile(workloadDigests, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, ok := digests[name]
	if !ok {
		t.Fatalf("%s has no entry %q (run with -update to add it)", workloadDigests, name)
	}
	if got != want {
		t.Errorf("%s: digest %s, want %s", name, got, want)
	}
}

func readDigests(t *testing.T) map[string]string {
	t.Helper()
	out := map[string]string{}
	f, err := os.Open(workloadDigests)
	if os.IsNotExist(err) && *update {
		return out
	}
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		sum, name, ok := strings.Cut(sc.Text(), "  ")
		if !ok {
			t.Fatalf("%s: malformed line %q", workloadDigests, sc.Text())
		}
		out[name] = sum
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestSynthConformBTIOFull(t *testing.T) {
	cfg := btio.Config{Class: quickClass, Procs: 4, Subtype: btio.Full}
	assertDigest(t, "btio-full", runDigest(t, aohyper(cluster.RAID5), btio.New(cfg)))
}

func TestSynthConformBTIOSimple(t *testing.T) {
	cfg := btio.Config{Class: quickClass, Procs: 4, Subtype: btio.Simple}
	assertDigest(t, "btio-simple", runDigest(t, aohyper(cluster.JBOD), btio.New(cfg)))
}

func TestSynthConformBTIOComputeComm(t *testing.T) {
	// Compute delays and boundary-exchange messages shift the timeline.
	cfg := btio.Config{Class: quickClass, Procs: 4, Subtype: btio.Full, ComputeScale: 0.1}
	assertDigest(t, "btio-compute-comm", runDigest(t, aohyper(cluster.RAID5), btio.New(cfg)))
}

func TestSynthConformMadbenchShared(t *testing.T) {
	cfg := madbench.Config{Procs: 4, KPix: 1, Bins: 2, FileType: madbench.Shared}
	assertDigest(t, "madbench-shared", runDigest(t, aohyper(cluster.RAID5), madbench.New(cfg)))
}

func TestSynthConformMadbenchUnique(t *testing.T) {
	cfg := madbench.Config{Procs: 4, KPix: 1, Bins: 2, FileType: madbench.Unique, BusyWork: 5 * sim.Millisecond}
	local, err := synth.Remount(madbench.New(cfg), "local")
	if err != nil {
		t.Fatal(err)
	}
	assertDigest(t, "madbench-unique-local", runDigest(t, aohyper(cluster.RAID5), local))
}

func TestSynthConformMadbenchAsync(t *testing.T) {
	cfg := madbench.Config{Procs: 4, KPix: 1, Bins: 2, FileType: madbench.Shared, AsyncWrites: true}
	assertDigest(t, "madbench-async", runDigest(t, aohyper(cluster.RAID5), madbench.New(cfg)))
}

func TestSynthConformFlashIO(t *testing.T) {
	assertDigest(t, "flashio", runDigest(t, aohyper(cluster.RAID5), flashio.New(flashio.Config{Procs: 4})))
}

func TestSynthConformFlashIOCompute(t *testing.T) {
	cfg := flashio.Config{Procs: 4, Compute: sim.Second}
	assertDigest(t, "flashio-compute", runDigest(t, aohyper(cluster.RAID5), flashio.New(cfg)))
}

// TestSynthConformSpecRoundTrip asserts the DSL is lossless through
// its own serialization: generator → JSON → ParseSpec must run just
// like the in-memory spec (the committed example files are this JSON).
func TestSynthConformSpecRoundTrip(t *testing.T) {
	cfg := btio.Config{Class: quickClass, Procs: 4, Subtype: btio.Full}
	var buf strings.Builder
	if err := btio.New(cfg).Spec().WriteJSON(&buf); err != nil {
		t.Fatalf("write: %v", err)
	}
	spec, err := synth.ParseSpec([]byte(buf.String()))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	assertDigest(t, "btio-full-json", runDigest(t, aohyper(cluster.RAID5), synth.MustCompile(spec)))
}
