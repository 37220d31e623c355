// Package netsim models a cluster interconnect: switched full-duplex
// links with bandwidth, latency and contention. Each attached node
// gets a NIC with independent transmit and receive channels; the
// switch fabric is non-blocking (standard for the Gigabit Ethernet
// switches in the paper's clusters), so contention arises at NICs —
// exactly where it arises for NFS servers with many clients.
//
// Large transfers are segmented into quanta so concurrent flows share
// a NIC approximately fairly, like TCP streams on a real link.
package netsim

import (
	"fmt"

	"ioeval/internal/ioreq"
	"ioeval/internal/sim"
	"ioeval/internal/telemetry"
)

var (
	kLinkFlaps    = telemetry.NewAuxKey("link_flaps")
	kFlapWaits    = telemetry.NewAuxKey("flap_waits")
	kFlapWaitNs   = telemetry.NewAuxKey("flap_wait_ns")
	kLoopbackMsgs = telemetry.NewAuxKey("loopback_msgs")
	kDegradedMsgs = telemetry.NewAuxKey("degraded_msgs")
)

// Params describes one network.
type Params struct {
	Name string
	// Bandwidth is the effective per-NIC data rate in bytes/second
	// (wire rate minus protocol overhead; ~117 MB/s for GigE TCP).
	Bandwidth float64
	// Latency is the one-way message latency (propagation + switch +
	// stack traversal).
	Latency sim.Duration
	// Quantum is the segmentation size for bandwidth sharing; zero
	// defaults to 1 MiB.
	Quantum int64
	// PerMessage is a fixed per-message software overhead (syscalls,
	// interrupt handling), charged once per Send.
	PerMessage sim.Duration
}

// GigabitEthernet returns parameters for the paper's Gigabit Ethernet
// data networks.
func GigabitEthernet(name string) Params {
	return Params{
		Name:       name,
		Bandwidth:  117e6,
		Latency:    100 * sim.Microsecond,
		Quantum:    1 << 20,
		PerMessage: 10 * sim.Microsecond,
	}
}

// Stats counts traffic through a network.
type Stats struct {
	Messages int64
	Bytes    int64
}

// Network is a switched interconnect.
type Network struct {
	eng    *sim.Engine
	params Params
	nics   map[string]*NIC

	// Stats accumulates global traffic counters.
	Stats Stats

	rec *telemetry.Recorder
}

// NIC is one node's attachment: independent TX and RX channels.
// Components resolve their NICs once, when they are built, and send
// between them with Transfer.
type NIC struct {
	net  *Network
	node string
	tx   *sim.Resource
	rx   *sim.Resource

	// Fault-injection state: slow is a serialization-time multiplier
	// (0 or 1 healthy, >1 a degraded link — autonegotiation fallback,
	// heavy retransmits); downUntil parks transfers touching this NIC
	// until the link comes back (a flap).
	slow      float64
	downUntil sim.Time

	rec *telemetry.Recorder
}

// New creates a network.
func New(e *sim.Engine, params Params) *Network {
	if params.Bandwidth <= 0 {
		panic(fmt.Sprintf("netsim %q: bandwidth must be positive", params.Name))
	}
	if params.Quantum == 0 {
		params.Quantum = 1 << 20
	}
	if params.Quantum < 0 {
		panic(fmt.Sprintf("netsim %q: negative quantum", params.Name))
	}
	return &Network{
		eng:    e,
		params: params,
		nics:   map[string]*NIC{},
		rec:    telemetry.NewRecorder(e, "net:"+params.Name, telemetry.LevelNetwork, 1),
	}
}

// Telemetry returns the network's aggregate telemetry probe.
func (n *Network) Telemetry() *telemetry.Recorder { return n.rec }

// Params returns the network parameters.
func (n *Network) Params() Params { return n.params }

// Attach adds a node to the network and returns its NIC. Attaching
// the same name twice panics: node names are the address space.
func (n *Network) Attach(node string) *NIC {
	if _, dup := n.nics[node]; dup {
		panic(fmt.Sprintf("netsim %q: node %q attached twice", n.params.Name, node))
	}
	nic := &NIC{
		net:  n,
		node: node,
		tx:   sim.NewResource(n.eng, n.params.Name+":"+node+":tx", 1),
		rx:   sim.NewResource(n.eng, n.params.Name+":"+node+":rx", 1),
		// Two units: independent full-duplex TX and RX channels.
		rec: telemetry.NewRecorder(n.eng, "nic:"+n.params.Name+":"+node, telemetry.LevelNetwork, 2),
	}
	n.nics[node] = nic
	return nic
}

// NIC returns the NIC of an attached node, or panics if unknown.
func (n *Network) NIC(node string) *NIC {
	nic, ok := n.nics[node]
	if !ok {
		panic(fmt.Sprintf("netsim %q: unknown node %q", n.params.Name, node))
	}
	return nic
}

// Attached reports whether a node is attached to the network.
func (n *Network) Attached(node string) bool {
	_, ok := n.nics[node]
	return ok
}

// Degrade scales all subsequent serialization time through a node's
// NIC by factor (>1 slower; 1 restores full speed). Factors below 1
// panic: a fault cannot add bandwidth.
func (n *Network) Degrade(node string, factor float64) {
	if factor < 1 {
		panic(fmt.Sprintf("netsim %q: degrade factor %v below 1", n.params.Name, factor))
	}
	n.NIC(node).slow = factor
}

// FailLinkUntil takes a node's link down until the given absolute
// simulated time (a flap): transfers touching the NIC park until the
// link returns. Later of the current and new deadline wins, so
// overlapping flaps extend the outage.
func (n *Network) FailLinkUntil(node string, until sim.Time) {
	nic := n.NIC(node)
	if until > nic.downUntil {
		nic.downUntil = until
	}
	nic.rec.Add(kLinkFlaps, 1)
}

// awaitLinks parks p until both endpoints' links are up. Re-checks
// after every wait: a new flap may land while waiting out the first.
func (n *Network) awaitLinks(p *sim.Proc, src, dst *NIC) {
	for {
		until := src.downUntil
		if dst.downUntil > until {
			until = dst.downUntil
		}
		if p.Now() >= until {
			return
		}
		d := sim.Duration(until - p.Now())
		for _, nic := range []*NIC{src, dst} {
			if nic.downUntil > p.Now() {
				nic.rec.Add(kFlapWaits, 1)
				nic.rec.Add(kFlapWaitNs, int64(d))
			}
			if src == dst {
				break // loopback: count once
			}
		}
		p.Sleep(d)
	}
}

// slowFactor returns the serialization multiplier for a transfer
// between two NICs: the slower endpoint governs.
func slowFactor(src, dst *NIC) float64 {
	f := src.slow
	if dst.slow > f {
		f = dst.slow
	}
	if f < 1 {
		return 1
	}
	return f
}

// xferTime returns serialization time for nb bytes at link rate.
func (n *Network) xferTime(nb int64) sim.Duration {
	return sim.Duration(float64(nb) / n.params.Bandwidth * 1e9)
}

// Send is Transfer between two nodes named by their attachment names.
// It looks both NICs up per message; components resolve theirs once
// and call Transfer.
func (n *Network) Send(r *ioreq.Request, from, to string, nb int64) {
	n.Transfer(r, n.NIC(from), n.NIC(to), nb)
}

// Transfer moves nb bytes from src to dst, NICs of this network,
// blocking the request's process for the full transfer time. Loopback
// (src == dst) costs only the per-message overhead plus a
// memory-speed copy approximation.
func (n *Network) Transfer(r *ioreq.Request, src, dst *NIC, nb int64) {
	if nb < 0 {
		panic(fmt.Sprintf("netsim %q: negative send size", n.params.Name))
	}
	if src.net != n || dst.net != n {
		panic(fmt.Sprintf("netsim %q: transfer %s -> %s between NICs of another network", n.params.Name, src.node, dst.node))
	}
	r.Enter(n.rec)
	defer r.Exit()
	p := r.Proc()
	n.Stats.Messages++
	n.Stats.Bytes += nb

	// Telemetry convention: a message is a write on the sender's NIC
	// and a read on the receiver's; the network aggregate records it
	// once, as a write. Busy time is the full message span including
	// NIC contention — the receiver-observed transfer latency.
	start := p.Now()
	src.rec.Enter()
	dst.rec.Enter()
	defer func() {
		el := sim.Duration(p.Now() - start)
		r.Observe(telemetry.ClassWrite, 1, nb)
		src.rec.Observe(telemetry.ClassWrite, 1, nb, el)
		dst.rec.Observe(telemetry.ClassRead, 1, nb, el)
		dst.rec.Exit()
		src.rec.Exit()
	}()
	if src == dst {
		n.rec.Add(kLoopbackMsgs, 1)
	}

	p.Sleep(n.params.PerMessage)
	if src == dst {
		// Loopback: no wire, charge a fast memory copy.
		p.Sleep(sim.Duration(float64(nb) / (4 * n.params.Bandwidth) * 1e9))
		return
	}
	if src.downUntil > p.Now() || dst.downUntil > p.Now() {
		r.Tag("link_flap")
	}
	n.awaitLinks(p, src, dst)
	slow := slowFactor(src, dst)
	if slow > 1 {
		n.rec.Add(kDegradedMsgs, 1)
		r.Tag("degraded_link")
	}

	// First quantum carries the one-way latency; the rest pipeline.
	first := true
	remaining := nb
	for {
		q := remaining
		if q > n.params.Quantum {
			q = n.params.Quantum
		}
		src.tx.Acquire(p, 1)
		dst.rx.Acquire(p, 1)
		t := sim.Duration(float64(n.xferTime(q)) * slow)
		if first {
			t += n.params.Latency
			first = false
		}
		p.Sleep(t)
		dst.rx.Release(1)
		src.tx.Release(1)
		remaining -= q
		if remaining <= 0 {
			return
		}
	}
}

// Utilization returns the TX-side utilization of a node's NIC.
func (nic *NIC) Utilization() float64 { return nic.tx.Utilization() }

// Telemetry returns the NIC's telemetry probe.
func (nic *NIC) Telemetry() *telemetry.Recorder { return nic.rec }

// Node returns the NIC's node name.
func (nic *NIC) Node() string { return nic.node }
