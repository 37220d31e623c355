package cliutil

import (
	"flag"
	"fmt"

	"ioeval/internal/cluster"
	"ioeval/internal/core"
	"ioeval/internal/sim"
	"ioeval/internal/store"
	"ioeval/internal/workload"
	"ioeval/internal/workload/btio"
	"ioeval/internal/workload/flashio"
	"ioeval/internal/workload/madbench"
	"ioeval/internal/workload/synth"
)

// Workloads names the catalogue's workloads, in help-text order. The
// first four are the spec generators iosynth -emit writes.
var Workloads = []string{"btio-full", "btio-simple", "madbench-shared", "madbench-unique", "flashio"}

// Workload builds the named workload of the catalogue for procs ranks,
// with the defaults every command shares: NAS BT-IO class C (class A
// under quick) at ComputeScale 1, on the parallel FS when usePFS;
// MADbench2 at KPIX 18 (4 under quick) with 1 s of busy work per bin;
// FLASH-IO with 5 s of compute per dump. MADbench2 and FLASH-IO have
// no parallel-FS mount and ignore usePFS.
func Workload(name string, procs int, quick, usePFS bool) (*synth.App, error) {
	class, kpix := btio.ClassC, 18
	if quick {
		class, kpix = btio.ClassA, 4
	}
	bt := btio.Config{Class: class, Procs: procs, Subtype: btio.Full, ComputeScale: 1, UsePFS: usePFS}
	mad := madbench.Config{Procs: procs, KPix: kpix, FileType: madbench.Shared, BusyWork: sim.Second}
	switch name {
	case "btio-simple":
		bt.Subtype = btio.Simple
		fallthrough
	case "btio-full":
		return btio.New(bt).App, nil
	case "madbench-unique":
		mad.FileType = madbench.Unique
		fallthrough
	case "madbench-shared":
		return madbench.New(mad).App, nil
	case "flashio":
		return flashio.New(flashio.Config{Procs: procs, Compute: 5 * sim.Second}).App, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want %s)", name, oneOf(Workloads))
}

// WorkloadName names the catalogue workload of an application (btio,
// madbench or flashio) with its BT-IO subtype or MADbench2 filetype.
func WorkloadName(app, subtype, filetype string) string {
	switch app {
	case "btio":
		return "btio-" + subtype
	case "madbench":
		return "madbench-" + filetype
	}
	return app
}

// Stored is the -store epilogue of the single-benchmark commands
// (btio, madbench, ior, iozone, beffio): with -store they also look
// up, or compute into the store, the quick characterization of their
// cluster and print it or evaluate against it.
type Stored struct {
	dir     *string
	workers *int
	// Store is the store once opened; nil without -store.
	Store *store.Store
}

// StoredFlags registers -store and -char-workers.
func StoredFlags(fs *flag.FlagSet) *Stored {
	return &Stored{dir: StoreFlag(fs), workers: CharWorkersFlag(fs)}
}

// open opens the -store directory into s.Store; no-op without -store.
func (s *Stored) open() error {
	st, err := OpenStore(*s.dir)
	s.Store = st
	return err
}

// session returns the quick stored session of build's configuration,
// or nil without -store.
func (s *Stored) session(build func() *cluster.Cluster) (*core.Session, error) {
	if err := s.open(); err != nil || s.Store == nil {
		return nil, err
	}
	return core.NewSession(build,
		core.WithStore(s.Store),
		core.WithCharacterizeWorkers(*s.workers),
		core.WithCharacterizeConfig(CharConfig(true, false))), nil
}

// Baseline prints, with -store, header, the stored table of level and
// the store summary.
func (s *Stored) Baseline(build func() *cluster.Cluster, header string, level core.Level) error {
	sess, err := s.session(build)
	if err != nil || sess == nil {
		return err
	}
	ch, err := sess.Characterization()
	if err != nil {
		return err
	}
	fmt.Println(header)
	fmt.Println(core.FormatPerfTable(ch.Table(level)))
	fmt.Println(StoreSummary(s.Store))
	return nil
}

// Evaluate evaluates app, with -store, against the stored
// characterization and prints its used-% table and the store summary.
func (s *Stored) Evaluate(build func() *cluster.Cluster, app workload.App) error {
	sess, err := s.session(build)
	if err != nil || sess == nil {
		return err
	}
	ev, err := sess.Evaluate(app)
	if err != nil {
		return err
	}
	fmt.Println(core.FormatEvaluation(ev))
	fmt.Println(StoreSummary(s.Store))
	return nil
}
