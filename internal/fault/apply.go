package fault

import (
	"fmt"
	"math/rand"

	"ioeval/internal/cluster"
	"ioeval/internal/device"
	"ioeval/internal/raid"
	"ioeval/internal/sim"
	"ioeval/internal/telemetry"
)

var (
	kDiskFailures      = telemetry.NewAuxKey("disk_failures")
	kRebuildsStarted   = telemetry.NewAuxKey("rebuilds_started")
	kRebuildsCompleted = telemetry.NewAuxKey("rebuilds_completed")
	kDiskSlowdowns     = telemetry.NewAuxKey("disk_slowdowns")
	kNetDegrades       = telemetry.NewAuxKey("net_degrades")
	kNetFlaps          = telemetry.NewAuxKey("net_flaps")
	kNfsStalls         = telemetry.NewAuxKey("nfs_stalls")
	kNfsRestarts       = telemetry.NewAuxKey("nfs_restarts")
)

// Injector is an armed fault plan on one cluster. It is a telemetry
// probe: its counters record what was actually injected (failures,
// slowdowns, flaps, stalls, rebuild progress), so degraded-mode
// reports can show the scenario alongside the layer counters it
// perturbed.
type Injector struct {
	plan Plan
	rec  *telemetry.Recorder
}

// Plan returns the armed plan.
func (in *Injector) Plan() Plan { return in.plan }

// Telemetry returns the injector's telemetry probe.
func (in *Injector) Telemetry() *telemetry.Recorder { return in.rec }

// Apply validates the plan against a freshly built cluster and arms
// every event on the cluster's engine, returning the injector probe
// (registered with the cluster's telemetry registry). The cluster
// must not have run yet: fault scenarios are part of a run's initial
// conditions, not something spliced into a half-finished simulation.
func Apply(c *cluster.Cluster, plan Plan) (*Injector, error) {
	if c.Eng.Now() != 0 {
		return nil, fmt.Errorf("fault plan %q: cluster already ran (t=%v); apply to a fresh cluster", plan.Name, c.Eng.Now())
	}
	if err := plan.Validate(c); err != nil {
		return nil, err
	}
	name := plan.Name
	if name == "" {
		name = "plan"
	}
	in := &Injector{
		plan: plan,
		rec:  telemetry.NewRecorder(c.Eng, "fault:"+name, telemetry.LevelFault, 1),
	}
	c.Telemetry.Register(in.Telemetry())

	// All plan randomness flows from this one seeded source, consumed
	// in event order at arm time — never during the run — so the same
	// (plan, seed) always produces the same schedule.
	rng := rand.New(rand.NewSource(plan.Seed))
	for _, ev := range plan.Events {
		in.arm(c, ev, rng)
	}
	return in, nil
}

// MustApply is Apply for pre-validated plans; it panics on error.
func MustApply(c *cluster.Cluster, plan Plan) *Injector {
	in, err := Apply(c, plan)
	if err != nil {
		panic(err)
	}
	return in
}

// arm schedules one event's injection actions.
func (in *Injector) arm(c *cluster.Cluster, ev Event, rng *rand.Rand) {
	at := sim.Time(ev.At)
	switch ev.Kind {
	case DiskFail:
		arr := c.Array.(*raid.Array)
		member := ev.Member
		c.Eng.ScheduleAt(at, func() {
			arr.Fail(member)
			in.rec.Add(kDiskFailures, 1)
		})
		if ev.Rebuild != nil {
			rb := *ev.Rebuild
			// The spare mirrors the failed member's drive model. Built
			// (and registered) at arm time so the telemetry registry
			// order never depends on run-time interleaving.
			params := arr.Members()[member].(*device.Disk).Params()
			params.Name += "-spare"
			spare := device.NewDisk(c.Eng, params)
			c.Telemetry.Register(spare.Telemetry())
			start := at + sim.Time(rb.Delay)
			c.Eng.ScheduleAt(start, func() {
				in.rec.Add(kRebuildsStarted, 1)
				c.Eng.Spawn("rebuild:"+arr.Name(), func(p *sim.Proc) {
					if err := arr.Rebuild(p, spare, raid.RebuildConfig{
						Bytes: rb.Bytes, Chunk: rb.Chunk, Rate: rb.Rate,
					}); err != nil {
						panic(fmt.Sprintf("fault: %v", err)) // validated at Apply
					}
					in.rec.Add(kRebuildsCompleted, 1)
				})
			})
		}
	case DiskSlow:
		d := c.IODisks[ev.Member]
		factor := ev.Factor
		c.Eng.ScheduleAt(at, func() {
			d.SetSlowFactor(factor)
			in.rec.Add(kDiskSlowdowns, 1)
		})
	case NetDegrade:
		node := netNode(c, ev)
		factor := ev.Factor
		c.Eng.ScheduleAt(at, func() {
			c.DataNet.Degrade(node, factor)
			in.rec.Add(kNetDegrades, 1)
		})
	case NetFlap:
		node := netNode(c, ev)
		count := ev.Count
		if count < 1 {
			count = 1
		}
		for i := 0; i < count; i++ {
			start := at + sim.Time(ev.Period)*sim.Time(i)
			if ev.Jitter > 0 {
				start += sim.Time(rng.Int63n(int64(ev.Jitter) + 1))
			}
			until := start + sim.Time(ev.Duration)
			c.Eng.ScheduleAt(start, func() {
				c.DataNet.FailLinkUntil(node, until)
				in.rec.Add(kNetFlaps, 1)
			})
		}
	case NFSStall:
		srv := c.Server
		dur := ev.Duration
		c.Eng.ScheduleAt(at, func() {
			srv.Stall(dur)
			in.rec.Add(kNfsStalls, 1)
		})
		if ev.Restart {
			c.Eng.ScheduleAt(at+sim.Time(dur), func() {
				for _, n := range c.Nodes {
					if n.NFS != nil {
						n.NFS.InvalidateCaches()
					}
				}
				in.rec.Add(kNfsRestarts, 1)
			})
		}
	}
}

// netNode resolves an event's target node ("" means the I/O node).
func netNode(c *cluster.Cluster, ev Event) string {
	if ev.Node == "" {
		return c.IONodeName
	}
	return ev.Node
}
