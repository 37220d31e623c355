package nfs

import (
	"testing"

	"ioeval/internal/fs"
	"ioeval/internal/ioreq"
	"ioeval/internal/sim"
)

// TestRetryBackoffArithmetic pins the retry loop against the injected
// sim clock: a server stalled for 2.5 s with the default 1 s timeout
// and 100 ms → doubling backoff yields exactly three timeout/retry
// rounds (attempts end at 1.0, 2.1, 3.3 s; backoffs land at 1.1, 2.3,
// 3.7 s), and the RPC proceeds at 3.7 s.
func TestRetryBackoffArithmetic(t *testing.T) {
	r := newRig(1, 64*mb)
	c := r.clients[0]

	// Create the file while the server is healthy.
	run(t, r.eng, func(p *sim.Proc) {
		h, err := c.Open(ioreq.Meta(p), "/f", fs.OWrite|fs.OCreate)
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		h.WriteVec(ioreq.Writer(p), []fs.IOVec{{Off: 0, Len: mb}})
		h.Close(ioreq.Meta(p))
	})

	r.srv.Stall(2500 * sim.Millisecond)
	if r.srv.DownUntil() == 0 {
		t.Fatal("DownUntil not set")
	}
	start := r.eng.Now()
	var opened sim.Time
	run(t, r.eng, func(p *sim.Proc) {
		h, err := c.Open(ioreq.Meta(p), "/f", fs.ORead)
		if err != nil {
			t.Errorf("open under stall: %v", err)
			return
		}
		opened = p.Now()
		h.ReadVec(ioreq.Reader(p), []fs.IOVec{{Off: 0, Len: mb}})
		h.Close(ioreq.Meta(p))
	})

	if got := c.Telemetry().AuxVal("timeouts"); got != 3 {
		t.Fatalf("telemetry timeouts = %d", got)
	}
	if got := c.Telemetry().AuxVal("retries"); got != 3 {
		t.Fatalf("telemetry retries = %d", got)
	}
	// Attempt 1: 1 s timeout + 100 ms backoff → 1.1 s.
	// Attempt 2: +1 s + 200 ms → 2.3 s. Attempt 3: +1 s + 400 ms → 3.7 s.
	wantWait := sim.Duration(3700 * sim.Millisecond)
	if got := sim.Duration(opened - start); got < wantWait || got > wantWait+sim.Second/2 {
		t.Fatalf("open completed after %v, want ≥ %v (stall + retries)", got, wantWait)
	}
}

// TestBackoffCapsAtMax verifies the doubling backoff saturates at
// RetryBackoffMax instead of growing unboundedly across a long outage.
func TestBackoffCapsAtMax(t *testing.T) {
	r := newRig(1, 64*mb)
	c := r.clients[0]
	c.params.RetryTimeout = 100 * sim.Millisecond
	c.params.RetryBackoff = 100 * sim.Millisecond
	c.params.RetryBackoffMax = 200 * sim.Millisecond

	r.srv.Stall(2 * sim.Second)
	run(t, r.eng, func(p *sim.Proc) {
		if _, err := c.Open(ioreq.Meta(p), "/g", fs.OWrite|fs.OCreate); err != nil {
			t.Errorf("open: %v", err)
		}
	})
	// Rounds: 0.2, 0.5, 0.8, 1.1, 1.4, 1.7, 2.0, 2.3 s — with the cap,
	// each round after the first costs 0.3 s, so 7 rounds; without it,
	// doubling would finish in 5.
	if got := c.Telemetry().AuxVal("retries"); got != 7 {
		t.Fatalf("retries = %d, want 7 (capped backoff)", got)
	}
}

// TestHealthyPathCountsNothing pins that the retry plane is free when
// no fault is armed.
func TestHealthyPathCountsNothing(t *testing.T) {
	r := newRig(1, 64*mb)
	c := r.clients[0]
	run(t, r.eng, func(p *sim.Proc) {
		h, _ := c.Open(ioreq.Meta(p), "/f", fs.OWrite|fs.OCreate)
		h.WriteVec(ioreq.Writer(p), []fs.IOVec{{Off: 0, Len: 4 * mb}})
		h.Close(ioreq.Meta(p))
	})
	if to, re := c.Telemetry().AuxVal("timeouts"), c.Telemetry().AuxVal("retries"); to != 0 || re != 0 {
		t.Fatalf("healthy run counted timeouts=%d retries=%d", to, re)
	}
}

// TestStallCoversDataPath: reads and writes issued mid-outage wait the
// outage out rather than completing at healthy speed.
func TestStallCoversDataPath(t *testing.T) {
	healthy := func() sim.Duration {
		r := newRig(1, 64*mb)
		var d sim.Duration
		run(t, r.eng, func(p *sim.Proc) {
			h, _ := r.clients[0].Open(ioreq.Meta(p), "/f", fs.OWrite|fs.OCreate)
			t0 := p.Now()
			h.WriteVec(ioreq.Writer(p), []fs.IOVec{{Off: 0, Len: 8 * mb}})
			d = sim.Duration(p.Now() - t0)
			h.Close(ioreq.Meta(p))
		})
		return d
	}()

	r := newRig(1, 64*mb)
	var d sim.Duration
	run(t, r.eng, func(p *sim.Proc) {
		h, _ := r.clients[0].Open(ioreq.Meta(p), "/f", fs.OWrite|fs.OCreate)
		r.srv.Stall(3 * sim.Second)
		t0 := p.Now()
		h.WriteVec(ioreq.Writer(p), []fs.IOVec{{Off: 0, Len: 8 * mb}})
		d = sim.Duration(p.Now() - t0)
		h.Close(ioreq.Meta(p))
	})
	if d < healthy+2*sim.Second {
		t.Fatalf("stalled write took %v, healthy %v — outage not observed", d, healthy)
	}
}

func TestInvalidateCaches(t *testing.T) {
	r := newRig(1, 64*mb)
	c := r.clients[0]
	run(t, r.eng, func(p *sim.Proc) {
		h, _ := c.Open(ioreq.Meta(p), "/f", fs.OWrite|fs.OCreate)
		h.WriteVec(ioreq.Writer(p), []fs.IOVec{{Off: 0, Len: mb}})
		h.Close(ioreq.Meta(p))
		if _, err := c.Stat(ioreq.Meta(p), "/f"); err != nil {
			t.Errorf("stat: %v", err)
		}
	})
	if len(c.attrCache) == 0 {
		t.Fatal("attr cache empty before invalidation")
	}
	c.InvalidateCaches()
	if len(c.attrCache) != 0 || len(c.validGen) != 0 {
		t.Fatal("caches survived InvalidateCaches")
	}
	if got := c.Telemetry().AuxVal("cache_invalidations"); got != 1 {
		t.Fatalf("cache_invalidations = %d", got)
	}
}
