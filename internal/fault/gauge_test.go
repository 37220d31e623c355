package fault_test

import (
	"testing"

	"ioeval/internal/cluster"
	"ioeval/internal/fault"
	"ioeval/internal/sim"
	"ioeval/internal/workload"
	"ioeval/internal/workload/btio"
	"ioeval/internal/workload/madbench"
)

// TestClusterGaugesDrainUnderFaults runs BT-IO class A full and
// MADbench2 shared under every builtin fault plan and checks that every
// component's queue-depth gauge is back at zero once the run drains:
// each Enter on a recorder was matched by an Exit, on every path the
// faults drive (retries, stalls, degraded reads, rebuilds, flaps). Both
// runs outlast every injection, so each plan fires mid-run.
func TestClusterGaugesDrainUnderFaults(t *testing.T) {
	apps := []struct {
		name string
		new  func() workload.App
	}{
		{"btio-A-full", func() workload.App {
			return btio.New(btio.Config{Class: btio.ClassA, Procs: 4, Subtype: btio.Full})
		}},
		{"madbench-shared", func() workload.App {
			return madbench.New(madbench.Config{Procs: 4, KPix: 2, Bins: 4, FileType: madbench.Shared})
		}},
	}
	for _, name := range fault.BuiltinNames() {
		plan, err := fault.Builtin(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, app := range apps {
			t.Run(name+"/"+app.name, func(t *testing.T) {
				c := cluster.Aohyper(cluster.RAID5)
				fault.MustApply(c, plan)
				if _, err := app.new().Run(c, nil); err != nil {
					t.Fatalf("run: %v", err)
				}
				for _, ev := range plan.Events {
					if c.Eng.Now() <= sim.Time(ev.At) {
						t.Fatalf("run ended at %v, before the %v injection at %v", c.Eng.Now(), ev.Kind, ev.At)
					}
				}
				for _, s := range c.Telemetry.Snapshots() {
					if s.Counters.QueueDepth != 0 {
						t.Errorf("%s: queue depth %d after a drained run", s.Component, s.Counters.QueueDepth)
					}
				}
			})
		}
	}
}
