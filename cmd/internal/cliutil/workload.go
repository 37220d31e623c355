package cliutil

import (
	"flag"
	"fmt"

	"ioeval/internal/cluster"
	"ioeval/internal/core"
	"ioeval/internal/store"
	"ioeval/internal/workload"
)

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
