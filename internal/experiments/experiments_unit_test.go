package experiments

import (
	"reflect"
	"strings"
	"testing"

	"ioeval/internal/bench"
	"ioeval/internal/cluster"
	"ioeval/internal/core"
)

func TestArtifactString(t *testing.T) {
	a := Artifact{ID: "fig5", Title: "title", Text: "body\n"}
	s := a.String()
	if !strings.HasPrefix(s, "==== FIG5 — title ====") || !strings.Contains(s, "body") {
		t.Fatalf("render: %q", s)
	}
}

// TestBuildClusterPlatforms checks the experiments' cells build
// through the catalogue: Aohyper under the organization asked for,
// Cluster A always RAID 5, with the name saying so.
func TestBuildClusterPlatforms(t *testing.T) {
	if cfg := sweepConfig(Aohyper, cluster.JBOD); cfg.Name != "Aohyper/JBOD" || cfg.Build().Cfg != cluster.Aohyper(cluster.JBOD).Cfg {
		t.Fatalf("aohyper cell %s: %+v", cfg.Name, cfg.Build().Cfg)
	}
	if cfg := sweepConfig(ClusterA, cluster.JBOD); cfg.Name != "ClusterA/RAID5" || cfg.Build().Cfg != cluster.ClusterA().Cfg {
		t.Fatalf("clusterA cell %s: %+v", cfg.Name, cfg.Build().Cfg)
	}
	if Aohyper.String() != "Aohyper" || ClusterA.String() != "ClusterA" {
		t.Fatal("platform strings")
	}
}

func TestCharConfigPlatformFileSizes(t *testing.T) {
	want := core.CharacterizeConfig{
		FSBlockSizes:  bench.DefaultBlockSizes(),
		FSModes:       []bench.Mode{bench.SeqWrite, bench.SeqRead, bench.RandWrite, bench.RandRead},
		RandomOps:     2048,
		LibProcs:      8,
		LibBlockSizes: bench.DefaultIORBlockSizes(),
		LibTransfer:   256 << 10,
		LibFileSize:   32 << 30,
	}
	if got := charConfig(Aohyper); !reflect.DeepEqual(got, want) {
		t.Fatalf("aohyper characterization = %+v, want %+v", got, want)
	}
	if got := charConfig(Aohyper).LibFileSize; got != 32<<30 {
		t.Fatalf("aohyper lib file = %d", got)
	}
	if got := charConfig(ClusterA).LibFileSize; got != 40<<30 {
		t.Fatalf("clusterA lib file = %d", got)
	}
}
