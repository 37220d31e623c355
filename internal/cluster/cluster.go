// Package cluster assembles simulated compute clusters out of the
// substrate packages: nodes with local disks, filesystems and page
// caches; one I/O node exporting NFS over a (dedicated or shared)
// Gigabit Ethernet network; and device organizations (JBOD, RAID 1,
// RAID 5) on the I/O node. It provides the paper's two experimental
// platforms — the cluster "Aohyper" and the cluster "A" — plus a
// builder for arbitrary configurations, which is how the methodology's
// "I/O configuration analysis" phase enumerates candidates.
package cluster

import (
	"fmt"

	"ioeval/internal/cache"
	"ioeval/internal/device"
	"ioeval/internal/fs"
	"ioeval/internal/ioreq"
	"ioeval/internal/mpiio"
	"ioeval/internal/netsim"
	"ioeval/internal/nfs"
	"ioeval/internal/pfs"
	"ioeval/internal/raid"
	"ioeval/internal/sim"
	"ioeval/internal/telemetry"
)

// Organization is the I/O-node device organization under test: the
// paper's three configurations.
type Organization int

// The paper's device-level configurations (Fig. 4).
const (
	JBOD  Organization = iota // single disk, no redundancy
	RAID1                     // two disks, mirrored
	RAID5                     // five disks, rotating parity
)

func (o Organization) String() string {
	switch o {
	case JBOD:
		return "JBOD"
	case RAID1:
		return "RAID1"
	case RAID5:
		return "RAID5"
	}
	return fmt.Sprintf("Organization(%d)", int(o))
}

// Config describes a cluster to build.
type Config struct {
	Name         string
	ComputeNodes int

	// Per-compute-node hardware.
	NodeRAM      int64   // bytes
	NodeDiskCap  int64   // bytes
	NodeDiskRate float64 // bytes/s sustained

	// I/O node hardware.
	IONodeRAM    int64
	IODiskCap    int64   // per member disk
	IODiskRate   float64 // per member disk
	Org          Organization
	StripeUnit   int64 // RAID 5 stripe unit
	RAID5Disks   int   // member count for RAID 5 (default 5)
	WriteThrough bool  // page caches in write-through mode (ablation)

	// SeparateDataNet gives the cluster a second Gigabit Ethernet
	// dedicated to storage traffic (the paper's Aohyper setup). When
	// false, NFS and MPI share one network.
	SeparateDataNet bool

	NFSServer nfs.ServerParams
	NFSClient nfs.ClientParams

	// PFSIONodes, when positive, additionally deploys a PVFS-like
	// parallel filesystem striped over that many dedicated I/O nodes
	// (each with its own disk stack) — the "number and placement of
	// I/O nodes" factor of the configuration-analysis phase.
	PFSIONodes int
	PFS        pfs.Params
}

// Node is one compute node.
type Node struct {
	Name  string
	Disk  *device.Disk
	Cache *cache.Cache
	Local *fs.Mount   // node-local filesystem
	NFS   *nfs.Client // mount of the shared storage
	PFS   *pfs.Client // parallel filesystem mount (nil unless deployed)
}

// Cluster is an assembled simulation of a complete platform.
type Cluster struct {
	Eng     *sim.Engine
	Cfg     Config
	CommNet *netsim.Network
	DataNet *netsim.Network // == CommNet when !SeparateDataNet
	Nodes   []*Node

	// I/O node pieces.
	IONodeName string
	Array      device.BlockDev // JBOD disk or RAID array
	IOCache    *cache.Cache
	ServerFS   *fs.Mount
	Server     *nfs.Server
	IODisks    []*device.Disk

	// Parallel filesystem deployment (nil unless Cfg.PFSIONodes > 0).
	PFS        *pfs.System
	PFSDisks   []*device.Disk
	PFSClients []*pfs.Client

	// Telemetry holds every instrumented component's probe, in stack
	// order (library → global FS → local FS → cache → block → device →
	// network). New always builds it: every evaluation snapshots it
	// per phase. LibRec is the shared MPI-IO library recorder installed
	// into worlds built via NewWorld; the library's spans open on it.
	Telemetry *telemetry.Registry
	LibRec    *telemetry.Recorder

	// Path aggregates per-request spans across every world built on
	// this cluster: the span-side counterpart of the Telemetry
	// registry's used-% inputs. New always builds it.
	Path *ioreq.Collector
}

// New builds a cluster from cfg on a fresh engine.
func New(cfg Config) *Cluster {
	if cfg.ComputeNodes <= 0 {
		panic("cluster: need at least one compute node")
	}
	if cfg.RAID5Disks == 0 {
		cfg.RAID5Disks = 5
	}
	if cfg.StripeUnit == 0 {
		cfg.StripeUnit = 256 << 10
	}
	e := sim.NewEngine()
	c := &Cluster{Eng: e, Cfg: cfg, IONodeName: "ionode", Telemetry: telemetry.NewRegistry(), Path: ioreq.NewCollector()}
	c.LibRec = telemetry.NewRecorder(e, "mpiio", telemetry.LevelLibrary, int64(cfg.ComputeNodes))
	c.Telemetry.Register(c.LibRec)

	c.CommNet = netsim.New(e, netsim.GigabitEthernet(cfg.Name+"-comm"))
	if cfg.SeparateDataNet {
		c.DataNet = netsim.New(e, netsim.GigabitEthernet(cfg.Name+"-data"))
	} else {
		c.DataNet = c.CommNet
	}
	c.DataNet.Attach(c.IONodeName)

	// I/O node storage stack: disks -> organization -> page cache -> fs.
	newIODisk := func(i int) *device.Disk {
		return device.NewDisk(e, device.DefaultSATA(fmt.Sprintf("io-d%d", i), cfg.IODiskCap, cfg.IODiskRate))
	}
	switch cfg.Org {
	case JBOD:
		d := newIODisk(0)
		c.IODisks = []*device.Disk{d}
		c.Array = raid.NewJBOD(e, "jbod", d)
	case RAID1:
		d0, d1 := newIODisk(0), newIODisk(1)
		c.IODisks = []*device.Disk{d0, d1}
		c.Array = raid.NewRAID1(e, "raid1", d0, d1)
	case RAID5:
		members := make([]device.BlockDev, cfg.RAID5Disks)
		for i := range members {
			d := newIODisk(i)
			c.IODisks = append(c.IODisks, d)
			members[i] = d
		}
		c.Array = raid.NewRAID5(e, "raid5", cfg.StripeUnit, members...)
	default:
		panic(fmt.Sprintf("cluster: unknown organization %v", cfg.Org))
	}
	ioCacheParams := cache.DefaultParams("io-pagecache", pageCacheSize(cfg.IONodeRAM))
	if cfg.WriteThrough {
		ioCacheParams.Policy = cache.WriteThrough
	}
	c.IOCache = cache.New(e, ioCacheParams, c.Array)
	c.ServerFS = fs.NewMount(e, fs.DefaultMountParams("io-ext4"), c.IOCache)
	c.Server = nfs.NewServer(e, cfg.NFSServer, c.IONodeName, c.DataNet, c.ServerFS)

	c.Telemetry.Register(c.Server.Telemetry(), c.ServerFS.Telemetry(), c.IOCache.Telemetry())
	if a, ok := c.Array.(*raid.Array); ok {
		c.Telemetry.Register(a.Telemetry())
	}
	for _, d := range c.IODisks {
		c.Telemetry.Register(d.Telemetry())
	}

	// Optional PVFS-like deployment over dedicated I/O nodes.
	if cfg.PFSIONodes > 0 {
		if cfg.PFS.Name == "" {
			cfg.PFS = pfs.DefaultParams(cfg.Name + "-pfs")
		}
		nodes := make([]string, cfg.PFSIONodes)
		backends := make([]fs.Interface, cfg.PFSIONodes)
		for i := 0; i < cfg.PFSIONodes; i++ {
			node := fmt.Sprintf("%s-pfs%02d", cfg.Name, i)
			nodes[i] = node
			c.DataNet.Attach(node)
			d := device.NewDisk(e, device.DefaultSATA(node+"-disk", cfg.IODiskCap, cfg.IODiskRate))
			c.PFSDisks = append(c.PFSDisks, d)
			pcParams := cache.DefaultParams(node+"-pagecache", pageCacheSize(cfg.IONodeRAM))
			if cfg.WriteThrough {
				pcParams.Policy = cache.WriteThrough
			}
			pc := cache.New(e, pcParams, d)
			backends[i] = fs.NewMount(e, fs.DefaultMountParams(node+"-ext4"), pc)
			c.Telemetry.Register(backends[i].(*fs.Mount).Telemetry(), pc.Telemetry(), d.Telemetry())
		}
		c.PFS = pfs.NewSystem(e, cfg.PFS, nodes, c.DataNet, backends)
		for _, srv := range c.PFS.Servers() {
			c.Telemetry.Register(srv.Telemetry())
		}
	}

	for i := 0; i < cfg.ComputeNodes; i++ {
		name := fmt.Sprintf("%s-n%02d", cfg.Name, i)
		c.CommNet.Attach(name)
		if cfg.SeparateDataNet {
			c.DataNet.Attach(name)
		}
		d := device.NewDisk(e, device.DefaultSATA(name+"-disk", cfg.NodeDiskCap, cfg.NodeDiskRate))
		pcParams := cache.DefaultParams(name+"-pagecache", pageCacheSize(cfg.NodeRAM))
		if cfg.WriteThrough {
			pcParams.Policy = cache.WriteThrough
		}
		pc := cache.New(e, pcParams, d)
		local := fs.NewMount(e, fs.DefaultMountParams(name+"-ext4"), pc)
		clientParams := cfg.NFSClient
		if clientParams.CacheBytes == 0 {
			// The node's page cache is shared between local files and
			// NFS data; give the NFS side half the budget.
			clientParams.CacheBytes = pageCacheSize(cfg.NodeRAM) / 2
		}
		client := nfs.NewClient(e, clientParams, name, c.DataNet, c.Server)
		node := &Node{Name: name, Disk: d, Cache: pc, Local: local, NFS: client}
		c.Telemetry.Register(client.Telemetry(), local.Telemetry(), pc.Telemetry(), d.Telemetry())
		if c.PFS != nil {
			node.PFS = pfs.NewClient(e, name, c.DataNet, c.PFS)
			c.PFSClients = append(c.PFSClients, node.PFS)
			c.Telemetry.Register(node.PFS.Telemetry())
		}
		c.Nodes = append(c.Nodes, node)
	}

	// Networks last: their aggregates summarize the whole run, and the
	// I/O node NIC is the classic NFS bottleneck worth its own probe.
	c.Telemetry.Register(c.DataNet.Telemetry(), c.DataNet.NIC(c.IONodeName).Telemetry())
	if c.CommNet != c.DataNet {
		c.Telemetry.Register(c.CommNet.Telemetry())
	}
	return c
}

// NewWorld creates an MPI-IO world on this cluster wired to the
// cluster's registered library-level telemetry recorder. rankNodes is
// typically RankNodes(n).
func (c *Cluster) NewWorld(rankNodes []string) *mpiio.World {
	w := mpiio.NewWorld(c.Eng, c.CommNet, rankNodes)
	w.SetTelemetry(c.LibRec)
	w.SetCollector(c.Path)
	return w
}

// PathProfile returns the span aggregation over every request issued
// through worlds built on this cluster since the last reset.
func (c *Cluster) PathProfile() telemetry.PathProfile { return c.Path.Profile() }

// TelemetryReport snapshots every registered probe into an exportable
// report.
func (c *Cluster) TelemetryReport() *telemetry.Report {
	r := &telemetry.Report{
		Config:     c.Cfg.Name,
		Components: c.Telemetry.Snapshots(),
	}
	if c.Eng != nil {
		r.At = c.Eng.Now()
	}
	return r
}

// pageCacheSize models the fraction of RAM the kernel will use as
// page cache on an otherwise I/O-dedicated node.
func pageCacheSize(ram int64) int64 { return ram * 3 / 4 }

// RAM returns the compute-node RAM (useful for "file twice the size
// of main memory" characterization rules).
func (c *Cluster) RAM() int64 { return c.Cfg.NodeRAM }

// RankNodes places n ranks round-robin over compute nodes, returning
// the node name per rank (for mpiio.NewWorld).
func (c *Cluster) RankNodes(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = c.Nodes[i%len(c.Nodes)].Name
	}
	return out
}

// NFSMounts returns, per rank, the NFS client of the rank's node.
func (c *Cluster) NFSMounts(n int) []fs.Interface {
	out := make([]fs.Interface, n)
	for i := range out {
		out[i] = c.Nodes[i%len(c.Nodes)].NFS
	}
	return out
}

// LocalMounts returns, per rank, the local filesystem of the rank's
// node.
func (c *Cluster) LocalMounts(n int) []fs.Interface {
	out := make([]fs.Interface, n)
	for i := range out {
		out[i] = c.Nodes[i%len(c.Nodes)].Local
	}
	return out
}

// PFSMounts returns, per rank, the parallel-filesystem client of the
// rank's node. Panics when the cluster has no PFS deployment.
func (c *Cluster) PFSMounts(n int) []fs.Interface {
	if c.PFS == nil {
		panic("cluster: no parallel filesystem deployed (set Config.PFSIONodes)")
	}
	out := make([]fs.Interface, n)
	for i := range out {
		out[i] = c.Nodes[i%len(c.Nodes)].PFS
	}
	return out
}

// Aohyper builds the paper's first platform: 8 dual-core AMD nodes
// with 2 GB RAM and a 150 GB local disk each; an NFS server with a
// RAID 1 (2×230 GB), a RAID 5 (5 disks, 256 KB stripe, 917 GB) or a
// single-disk JBOD; two Gigabit Ethernet networks (communication +
// data).
func Aohyper(org Organization) *Cluster {
	return New(Config{
		Name:            "aohyper",
		ComputeNodes:    8,
		NodeRAM:         2 << 30,
		NodeDiskCap:     150 << 30,
		NodeDiskRate:    90e6,
		IONodeRAM:       2 << 30,
		IODiskCap:       230 << 30,
		IODiskRate:      100e6,
		Org:             org,
		StripeUnit:      256 << 10,
		RAID5Disks:      5,
		SeparateDataNet: true,
		NFSServer:       nfs.DefaultServerParams("aohyper-nfs"),
		NFSClient:       nfs.DefaultClientParams("aohyper-nfs"),
	})
}

// ClusterA builds the paper's second platform: 32 nodes with 2×
// dual-core Xeons, 12 GB RAM and a 160 GB SATA disk each; a front-end
// NFS server with 8 GB RAM and a 1.8 TB RAID 5; dual Gigabit
// Ethernet.
func ClusterA() *Cluster {
	return New(Config{
		Name:            "clusterA",
		ComputeNodes:    32,
		NodeRAM:         12 << 30,
		NodeDiskCap:     160 << 30,
		NodeDiskRate:    100e6,
		IONodeRAM:       8 << 30,
		IODiskCap:       450 << 30,
		IODiskRate:      110e6,
		Org:             RAID5,
		StripeUnit:      256 << 10,
		RAID5Disks:      5,
		SeparateDataNet: true,
		NFSServer:       nfs.DefaultServerParams("clusterA-nfs"),
		NFSClient:       nfs.DefaultClientParams("clusterA-nfs"),
	})
}

// Factor is one configurable element of the I/O architecture, as
// enumerated by the methodology's configuration-analysis phase.
type Factor struct {
	Name  string
	Value string
}

// Describe returns the configurable factors of this cluster in the
// paper's terms (Section III-B).
func (c *Cluster) Describe() []Factor {
	network := "single network, shared computing/storage"
	if c.Cfg.SeparateDataNet {
		network = "two networks: communication + dedicated data"
	}
	cachePolicy := "write-back page cache on clients and I/O node"
	if c.Cfg.WriteThrough {
		cachePolicy = "write-through page cache"
	}
	nDisks := len(c.IODisks)
	globalFS := "NFS (1 I/O node, shared access)"
	if c.PFS != nil {
		globalFS = fmt.Sprintf("NFS (1 I/O node) + PVFS-like parallel FS (%d I/O nodes, %s stripes)",
			c.Cfg.PFSIONodes, fmt.Sprintf("%dKiB", c.Cfg.PFS.StripeSize>>10))
	}
	return []Factor{
		{"global filesystem", globalFS},
		{"local filesystem", fmt.Sprintf("ext4-like on %d compute nodes (user-managed sharing)", len(c.Nodes))},
		{"network", network},
		{"buffer/cache", cachePolicy},
		{"I/O devices", fmt.Sprintf("%d disk(s) on I/O node", nDisks)},
		{"device organization", c.Cfg.Org.String()},
		{"I/O node placement", "dedicated I/O node on data network"},
		{"service redundancy", "none (single I/O node)"},
	}
}
