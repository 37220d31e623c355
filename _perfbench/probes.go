package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"time"

	"ioeval/internal/cache"
	"ioeval/internal/cluster"
	"ioeval/internal/core"
	"ioeval/internal/device"
	"ioeval/internal/fs"
	"ioeval/internal/ioreq"
	"ioeval/internal/mpiio"
	"ioeval/internal/netsim"
	"ioeval/internal/nfs"
	"ioeval/internal/raid"
	"ioeval/internal/sim"
	"ioeval/internal/store"
	"ioeval/internal/telemetry"
	"ioeval/internal/workload/btio"
)

const (
	kib = int64(1) << 10
	mib = int64(1) << 20
	gib = int64(1) << 30
)

// probe measures the host cost of one request at one layer: the layer
// alone, driven through its public functions over null lower layers.
// run builds a fresh rig, issues the requests between m.start and
// m.stop, and returns how many it issued and whether the layer took
// the path the probe names.
type probe struct {
	name string // <module>.<probe>
	run  func(m *meter) (ops int, err error)
}

// meter brackets the measured requests of one probe repetition.
type meter struct {
	t0, t1 time.Time
	a0, a1 uint64
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

func (m *meter) start() { m.a0 = mallocs(); m.t0 = time.Now() }
func (m *meter) stop()  { m.t1 = time.Now(); m.a1 = mallocs() }

// probeReps repetitions follow one discarded warm-up; the probe's
// figures are the medians.
const probeReps = 5

type probeResult struct{ nsOp, allocsOp float64 }

func runProbe(pr probe) (probeResult, error) {
	var ns, allocs []float64
	for rep := 0; rep <= probeReps; rep++ {
		runtime.GC()
		var m meter
		ops, err := pr.run(&m)
		if err != nil {
			return probeResult{}, err
		}
		if rep == 0 {
			continue
		}
		ns = append(ns, float64(m.t1.Sub(m.t0).Nanoseconds())/float64(ops))
		allocs = append(allocs, float64(m.a1-m.a0)/float64(ops))
	}
	return probeResult{nsOp: median(ns), allocsOp: median(allocs)}, nil
}

// probes lists every layer probe. Random offsets come from the
// workload seed; the characterization feeds the table-search and
// store probes.
func probes(e *env, ch *core.Characterization) []probe {
	rng := func() *rand.Rand { return rand.New(rand.NewSource(e.seed)) }
	return []probe{
		{"sim.sleep", probeSleep},
		{"sim.fork", probeFork},
		{"sim.resource", probeResource},
		{"device.rw", func(m *meter) (int, error) { return probeDevice(m, rng()) }},
		{"raid.raid5_write", func(m *meter) (int, error) { return probeRAID5Write(m, rng()) }},
		{"raid.raid5_degraded_read", func(m *meter) (int, error) { return probeRAID5Degraded(m, rng()) }},
		{"cache.read_fit", probeCacheReadFit},
		{"cache.read_evict", func(m *meter) (int, error) { return probeCacheEvict(m, false) }},
		{"cache.write_evict", func(m *meter) (int, error) { return probeCacheEvict(m, true) }},
		{"fs.vec", probeFSVec},
		{"fs.rw", probeFSRW},
		{"netsim.send", probeSend},
		{"nfs.read_rpc", func(m *meter) (int, error) { return probeNFS(m, false) }},
		{"nfs.write_rpc", func(m *meter) (int, error) { return probeNFS(m, true) }},
		{"mpiio.collective", func(m *meter) (int, error) { return probeMPIIO(m, true) }},
		{"mpiio.independent", func(m *meter) (int, error) { return probeMPIIO(m, false) }},
		{"ioreq.span", func(m *meter) (int, error) { return probeSpan(m, true) }},
		{"ioreq.span_bare", func(m *meter) (int, error) { return probeSpan(m, false) }},
		{"core.used_table", func(m *meter) (int, error) { return probeUsedTable(m, ch) }},
		{"store.load", func(m *meter) (int, error) { return probeStoreLoad(m, e, ch) }},
		{"cluster.build", probeClusterBuild},
	}
}

// runProc runs body as the engine's only process and returns the
// simulated time at which the engine drained.
func runProc(body func(p *sim.Proc)) sim.Time {
	eng := sim.NewEngine()
	eng.Spawn("probe", body)
	return eng.Run()
}

// --- sim -------------------------------------------------------------

// probeSleep: one park/wake handoff per 1 ns sleep.
func probeSleep(m *meter) (int, error) {
	const n = 20000
	end := runProc(func(p *sim.Proc) {
		m.start()
		for i := 0; i < n; i++ {
			p.Sleep(1)
		}
		m.stop()
	})
	if end != sim.Time(n) {
		return n, fmt.Errorf("clock at %d ns after %d sleeps of 1 ns", end, n)
	}
	return n, nil
}

// probeFork: per child of a four-way fork.
func probeFork(m *meter) (int, error) {
	const forks, width = 4000, 4
	ran := 0
	child := func(*sim.Proc) { ran++ }
	runProc(func(p *sim.Proc) {
		m.start()
		for i := 0; i < forks; i++ {
			sim.Fork(p, "c", child, child, child, child)
		}
		m.stop()
	})
	if ran != forks*width {
		return forks * width, fmt.Errorf("%d of %d children ran", ran, forks*width)
	}
	return forks * width, nil
}

// probeResource: one Acquire/Release pair (holding for 1 ns) of a
// one-unit resource two processes contend for, so most acquires wait.
func probeResource(m *meter) (int, error) {
	const n = 8000 // pairs per process
	eng := sim.NewEngine()
	res := sim.NewResource(eng, "probe", 1)
	for i := 0; i < 2; i++ {
		eng.Spawn("user", func(p *sim.Proc) {
			for j := 0; j < n; j++ {
				res.Acquire(p, 1)
				p.Sleep(1)
				res.Release(1)
			}
		})
	}
	m.start()
	eng.Run()
	m.stop()
	switch {
	case res.Acquires() != 2*n:
		return 2 * n, fmt.Errorf("%d acquires, want %d", res.Acquires(), 2*n)
	case res.TotalWait() == 0:
		return 2 * n, fmt.Errorf("no acquire waited")
	case res.InUse() != 0:
		return 2 * n, fmt.Errorf("%d units still held", res.InUse())
	}
	return 2 * n, nil
}

// --- device and raid -------------------------------------------------

// probeDevice: 64 KiB reads and writes on a SATA disk, half of them
// sequential streams and half at random offsets.
func probeDevice(m *meter, rng *rand.Rand) (int, error) {
	const n, blk = 4000, 64 * kib
	eng := sim.NewEngine()
	d := device.NewDisk(eng, device.DefaultSATA("disk", 150*gib, 100e6))
	slots := d.Capacity()/blk - 1
	eng.Spawn("io", func(p *sim.Proc) {
		m.start()
		for i := int64(0); i < n/4; i++ {
			d.ReadAt(ioreq.Reader(p), i*blk, blk)
		}
		for i := int64(0); i < n/4; i++ {
			d.WriteAt(ioreq.Writer(p), gib+i*blk, blk)
		}
		for i := 0; i < n/4; i++ {
			d.ReadAt(ioreq.Reader(p), rng.Int63n(slots)*blk, blk)
			d.WriteAt(ioreq.Writer(p), rng.Int63n(slots)*blk, blk)
		}
		m.stop()
	})
	eng.Run()
	rec := d.Telemetry()
	if rec.AuxVal("seq_ops") == 0 || rec.AuxVal("random_ops") == 0 {
		return n, fmt.Errorf("seq_ops %d, random_ops %d: want both", rec.AuxVal("seq_ops"), rec.AuxVal("random_ops"))
	}
	return n, nil
}

// newNullRAID5 is a five-member RAID 5 with a 256 KiB stripe unit (the
// Aohyper array) over null members.
func newNullRAID5(eng *sim.Engine) *raid.Array {
	members := make([]device.BlockDev, 5)
	for i := range members {
		members[i] = nullDev{capacity: 230 * gib}
	}
	return raid.NewRAID5(eng, "r5", 256*kib, members...)
}

// probeRAID5Write: alternating full-stripe writes and 64 KiB
// read-modify-write updates at random offsets.
func probeRAID5Write(m *meter, rng *rand.Rand) (int, error) {
	const n = 3000
	eng := sim.NewEngine()
	a := newNullRAID5(eng)
	stripe := 4 * a.StripeUnit()
	eng.Spawn("io", func(p *sim.Proc) {
		m.start()
		for i := int64(0); i < n/2; i++ {
			a.WriteAt(ioreq.Writer(p), i*stripe, stripe)
			a.WriteAt(ioreq.Writer(p), rng.Int63n(a.Capacity()/(64*kib)-1)*64*kib, 64*kib)
		}
		m.stop()
	})
	eng.Run()
	if ops := a.Telemetry().Snapshot().Counters.Write.Ops; ops != n {
		return n, fmt.Errorf("array recorded %d writes, want %d", ops, n)
	}
	return n, nil
}

// probeRAID5Degraded: 64 KiB reads at random offsets after member 0
// failed, so reads touching it reconstruct from the survivors.
func probeRAID5Degraded(m *meter, rng *rand.Rand) (int, error) {
	const n = 4000
	eng := sim.NewEngine()
	a := newNullRAID5(eng)
	a.Fail(0)
	eng.Spawn("io", func(p *sim.Proc) {
		m.start()
		for i := 0; i < n; i++ {
			a.ReadAt(ioreq.Reader(p), rng.Int63n(a.Capacity()/(64*kib)-1)*64*kib, 64*kib)
		}
		m.stop()
	})
	eng.Run()
	if !a.Degraded() || a.Telemetry().AuxVal("degraded_segs") == 0 {
		return n, fmt.Errorf("degraded %v, degraded_segs %d: want a degraded path", a.Degraded(), a.Telemetry().AuxVal("degraded_segs"))
	}
	return n, nil
}

// --- cache -----------------------------------------------------------

// cacheReq is the request size of the cache probes: four 64 KiB pages.
const cacheReq = 256 * kib

// probeCacheReadFit: cyclic reads over a working set half the cache's
// capacity, after one warm-up pass; every read hits.
func probeCacheReadFit(m *meter) (int, error) {
	const n, capacity = 4000, 64 * mib
	eng := sim.NewEngine()
	c := cache.New(eng, cache.DefaultParams("pc", capacity), nullDev{capacity: gib})
	ws := capacity / 2
	var missed int64
	eng.Spawn("io", func(p *sim.Proc) {
		for off := int64(0); off < ws; off += cacheReq {
			c.ReadAt(ioreq.Reader(p), off, cacheReq)
		}
		miss0 := c.Telemetry().AuxVal("miss_bytes")
		m.start()
		for i := int64(0); i < n; i++ {
			c.ReadAt(ioreq.Reader(p), (i*cacheReq)%ws, cacheReq)
		}
		m.stop()
		missed = c.Telemetry().AuxVal("miss_bytes") - miss0
	})
	eng.Run()
	if missed != 0 {
		return n, fmt.Errorf("%d miss bytes after warm-up", missed)
	}
	return n, nil
}

// probeCacheEvict: cyclic reads or writes over a working set twice the
// cache's capacity, so the LRU evicts on every request.
func probeCacheEvict(m *meter, write bool) (int, error) {
	const n, capacity = 4000, 16 * mib
	eng := sim.NewEngine()
	c := cache.New(eng, cache.DefaultParams("pc", capacity), nullDev{capacity: gib})
	ws := 2 * capacity
	var evicted int64
	eng.Spawn("io", func(p *sim.Proc) {
		io := func(off int64) {
			if write {
				c.WriteAt(ioreq.Writer(p), off, cacheReq)
			} else {
				c.ReadAt(ioreq.Reader(p), off, cacheReq)
			}
		}
		for off := int64(0); off < ws; off += cacheReq {
			io(off)
		}
		ev0 := c.Telemetry().AuxVal("evictions")
		m.start()
		for i := int64(0); i < n; i++ {
			io((i * cacheReq) % ws)
		}
		m.stop()
		evicted = c.Telemetry().AuxVal("evictions") - ev0
	})
	eng.Run()
	switch {
	case evicted == 0:
		return n, fmt.Errorf("no evictions")
	case c.CachedBytes() > c.Params().Capacity:
		return n, fmt.Errorf("%d bytes cached in a %d-byte cache", c.CachedBytes(), c.Params().Capacity)
	}
	return n, nil
}

// --- fs --------------------------------------------------------------

// openNullMount opens a file on an ext4-like mount over a null device.
func openNullMount(p *sim.Proc) (fs.Handle, error) {
	mnt := fs.NewMount(p.Engine(), fs.DefaultMountParams("ext4"), nullDev{capacity: 64 * gib})
	return mnt.Open(ioreq.Meta(p), "/probe", fs.ORead|fs.OWrite|fs.OCreate)
}

// probeFSVec: strided WriteVec/ReadVec of 256 4 KiB elements 16 KiB
// apart (BT-IO "simple"-like); the cost is per element.
func probeFSVec(m *meter) (int, error) {
	const calls, width = 200, 256
	vecs := make([]fs.IOVec, width)
	for i := range vecs {
		vecs[i] = fs.IOVec{Off: int64(i) * 16 * kib, Len: 4 * kib}
	}
	want := ioreq.Total(vecs)
	var err error
	runProc(func(p *sim.Proc) {
		h, oerr := openNullMount(p)
		if oerr != nil {
			err = oerr
			return
		}
		h.WriteVec(ioreq.Writer(p), vecs) // allocate the extents
		m.start()
		for i := 0; i < calls/2; i++ {
			w := h.WriteVec(ioreq.Writer(p), vecs)
			r := h.ReadVec(ioreq.Reader(p), vecs)
			if w != want || r != want {
				err = fmt.Errorf("vector moved %d/%d bytes, want %d", w, r, want)
			}
		}
		m.stop()
	})
	return calls * width, err
}

// probeFSRW: sequential 64 KiB WriteAt/ReadAt over a 64 MiB file.
func probeFSRW(m *meter) (int, error) {
	const n, blk, size = 8000, 64 * kib, 64 * mib
	var err error
	runProc(func(p *sim.Proc) {
		h, oerr := openNullMount(p)
		if oerr != nil {
			err = oerr
			return
		}
		h.WriteAt(ioreq.Writer(p), 0, size) // allocate the extents
		m.start()
		for i := int64(0); i < n/2; i++ {
			off := (i * blk) % size
			w := h.WriteAt(ioreq.Writer(p), off, blk)
			r := h.ReadAt(ioreq.Reader(p), off, blk)
			if w != blk || r != blk {
				err = fmt.Errorf("moved %d/%d bytes, want %d", w, r, blk)
			}
		}
		m.stop()
	})
	return n, err
}

// --- netsim and nfs --------------------------------------------------

// probeSend: 64 KiB messages between two NICs on Gigabit Ethernet.
func probeSend(m *meter) (int, error) {
	const n, msg = 8000, 64 * kib
	eng := sim.NewEngine()
	net := netsim.New(eng, netsim.GigabitEthernet("data"))
	net.Attach("a")
	net.Attach("b")
	eng.Spawn("sender", func(p *sim.Proc) {
		m.start()
		for i := 0; i < n; i++ {
			net.Send(ioreq.Meta(p), "a", "b", msg)
		}
		m.stop()
	})
	eng.Run()
	if net.Stats.Messages != n || net.Stats.Bytes != n*msg {
		return n, fmt.Errorf("network carried %d messages, %d bytes", net.Stats.Messages, net.Stats.Bytes)
	}
	return n, nil
}

// probeNFS: 64 KiB reads or writes from a client to a server whose
// export is an ext4-like mount on a null device; each is one RPC.
func probeNFS(m *meter, write bool) (int, error) {
	const n, blk, size = 3000, 64 * kib, 64 * mib
	eng := sim.NewEngine()
	net := netsim.New(eng, netsim.GigabitEthernet("data"))
	net.Attach("server")
	net.Attach("client")
	export := fs.NewMount(eng, fs.DefaultMountParams("ext4"), nullDev{capacity: 64 * gib})
	srv := nfs.NewServer(eng, nfs.DefaultServerParams("nfs"), "server", net, export)
	cl := nfs.NewClient(eng, nfs.DefaultClientParams("nfs"), "client", net, srv)
	var rpcs int64
	var err error
	eng.Spawn("client", func(p *sim.Proc) {
		h, oerr := cl.Open(ioreq.Meta(p), "/probe", fs.ORead|fs.OWrite|fs.OCreate)
		if oerr != nil {
			err = oerr
			return
		}
		h.WriteAt(ioreq.Writer(p), 0, size)
		before := cl.Stats
		m.start()
		for i := int64(0); i < n; i++ {
			off := (i * blk) % size
			if write {
				h.WriteAt(ioreq.Writer(p), off, blk)
			} else {
				h.ReadAt(ioreq.Reader(p), off, blk)
			}
		}
		m.stop()
		rpcs = cl.Stats.ReadRPCs - before.ReadRPCs
		if write {
			rpcs = cl.Stats.WriteRPCs - before.WriteRPCs
		}
		h.Close(ioreq.Meta(p))
	})
	eng.Run()
	if err == nil && rpcs != n {
		err = fmt.Errorf("%d RPCs for %d requests", rpcs, n)
	}
	return n, err
}

// --- mpiio -----------------------------------------------------------

// probeMPIIO: BT-IO class A dumps by 16 ranks on 8 nodes over null
// mounts, written then read back, either collectively (two-phase
// I/O; the cost is per collective call of all ranks) or independently
// (the cost is per rank call).
func probeMPIIO(m *meter, collective bool) (int, error) {
	const ranks, nodes, dumps = 16, 8, 4
	eng := sim.NewEngine()
	comm := netsim.New(eng, netsim.GigabitEthernet("comm"))
	rankNodes := make([]string, ranks)
	mounts := make([]fs.Interface, ranks)
	for r := range rankNodes {
		rankNodes[r] = fmt.Sprintf("n%d", r%nodes)
		mounts[r] = nullFS{}
	}
	for i := 0; i < nodes; i++ {
		comm.Attach(fmt.Sprintf("n%d", i))
	}
	w := mpiio.NewWorld(eng, comm, rankNodes)
	f := mpiio.OpenFile(w, "/btio", fs.ORead|fs.OWrite|fs.OCreate, mounts, mpiio.DefaultHints())
	vecs := btioVecs(ranks, dumps)
	errs := make([]error, ranks)
	for r := 0; r < ranks; r++ {
		r := r
		eng.Spawn(fmt.Sprintf("rank%d", r), func(p *sim.Proc) {
			if errs[r] = f.Open(p, r); errs[r] != nil {
				return
			}
			for d := 0; d < dumps; d++ {
				if collective {
					f.WriteVecAll(p, r, vecs[r][d])
				} else {
					f.WriteVec(p, r, vecs[r][d])
				}
			}
			for d := 0; d < dumps; d++ {
				if collective {
					f.ReadVecAll(p, r, vecs[r][d])
				} else {
					f.ReadVec(p, r, vecs[r][d])
				}
			}
			f.Close(p, r)
		})
	}
	m.start()
	eng.Run()
	m.stop()
	for _, err := range errs {
		if err != nil {
			return 1, err
		}
	}
	if collective {
		if len(f.Aggregators()) == 0 {
			return 2 * dumps, fmt.Errorf("no aggregators")
		}
		return 2 * dumps, nil
	}
	return 2 * dumps * ranks, nil
}

// btioVecs returns, per rank and dump, the rank's file records of a
// BT-IO class A solution dump: one element per (z, y) line of each
// cell the rank owns.
func btioVecs(ranks, dumps int) [][][]fs.IOVec {
	app := btio.New(btio.Config{Class: btio.ClassA, Procs: ranks, Subtype: btio.Full})
	n := int64(btio.ClassA.N)
	dump := n * n * n * btio.BytesPerPoint
	out := make([][][]fs.IOVec, ranks)
	for r := range out {
		out[r] = make([][]fs.IOVec, dumps)
		for d := range out[r] {
			base := int64(d) * dump
			for _, g := range app.Decomposition(r) {
				for z := g.Z0; z < g.Z0+g.NZ; z++ {
					for y := g.Y0; y < g.Y0+g.NY; y++ {
						off := base + ((int64(z)*n+int64(y))*n+int64(g.X0))*btio.BytesPerPoint
						out[r][d] = append(out[r][d], fs.IOVec{Off: off, Len: int64(g.NX) * btio.BytesPerPoint})
					}
				}
			}
		}
	}
	return out
}

// --- ioreq -----------------------------------------------------------

// probeSpan: one Push/Pop pair, folded into a collector or discarded.
func probeSpan(m *meter, collect bool) (int, error) {
	const n = 50000
	col := ioreq.NewCollector()
	depth := -1
	runProc(func(p *sim.Proc) {
		r := ioreq.Reader(p)
		if collect {
			r.SetCollector(col)
		}
		m.start()
		for i := 0; i < n; i++ {
			r.Push(telemetry.LevelCache, "probe")
			r.Pop()
		}
		m.stop()
		depth = r.Depth()
	})
	want := int64(0)
	if collect {
		want = n
	}
	if got := col.Profile().Cell(telemetry.LevelCache, telemetry.ClassRead).Spans; got != want || depth != 0 {
		return n, fmt.Errorf("collector holds %d spans (want %d), depth %d", got, want, depth)
	}
	return n, nil
}

// --- core, store, cluster --------------------------------------------

// probeUsedTable: the used-% table search for one measurement, over
// the Fig. 5 characterization; one measurement per characterized row,
// at a block size between the table's points.
func probeUsedTable(m *meter, ch *core.Characterization) (int, error) {
	var ms []core.Measurement
	for _, level := range core.Levels() {
		for _, row := range ch.Table(level).Rows {
			ms = append(ms, core.Measurement{Op: row.Op, BlockSize: row.BlockSize + row.BlockSize/3,
				Access: row.Access, Mode: row.Mode, Rate: row.Rate / 2})
		}
	}
	const calls = 40
	var rows []core.UsedRow
	m.start()
	for i := 0; i < calls; i++ {
		rows = core.UsedTable(ms, ch)
	}
	m.stop()
	found := 0
	for _, r := range rows {
		if r.CharAvailable {
			found++
		}
	}
	if len(rows) != len(ms)*len(core.Levels()) || found == 0 {
		return calls * len(ms), fmt.Errorf("%d used rows, %d found, for %d measurements", len(rows), found, len(ms))
	}
	return calls * len(ms), nil
}

// probeStoreLoad: a fresh store handle and a warm Get of the
// characterization's entry (read, checksum, decode).
func probeStoreLoad(m *meter, e *env, ch *core.Characterization) (int, error) {
	const n = 20
	dir := filepath.Join(e.state, "probe-store")
	fp, err := core.Fingerprint(func() *cluster.Cluster { return cluster.Aohyper(cluster.RAID5) }, charConfig())
	if err != nil {
		return n, err
	}
	st, err := store.Open(dir)
	if err != nil {
		return n, err
	}
	if _, err := st.GetOrCompute(fp, func() (*core.Characterization, error) { return ch, nil }); err != nil {
		return n, err
	}
	var got *core.Characterization
	m.start()
	for i := 0; i < n; i++ {
		fresh, err := store.Open(dir)
		if err != nil {
			return n, err
		}
		var ok bool
		if got, ok = fresh.Get(fp); !ok {
			return n, fmt.Errorf("store entry %.12s missing", fp)
		}
	}
	m.stop()
	for _, level := range core.Levels() {
		if core.FormatPerfTable(got.Table(level)) != core.FormatPerfTable(ch.Table(level)) {
			return n, fmt.Errorf("loaded %s table differs from the stored one", level)
		}
	}
	return n, nil
}

// probeClusterBuild: one Aohyper RAID 5 cluster.
func probeClusterBuild(m *meter) (int, error) {
	const n = 100
	var c *cluster.Cluster
	m.start()
	for i := 0; i < n; i++ {
		c = cluster.Aohyper(cluster.RAID5)
	}
	m.stop()
	if a, ok := c.Array.(*raid.Array); !ok || a.Level() != raid.RAID5 {
		return n, fmt.Errorf("cluster array is %T, want a RAID 5 array", c.Array)
	}
	return n, nil
}
