package synth

import (
	"strings"
	"testing"

	"ioeval/internal/workload"
)

// minimalSpec returns a small valid spec tests mutate.
func minimalSpec() *Spec {
	return &Spec{
		Procs: 2,
		Files: []FileSpec{{Name: "f", Path: "/f"}},
		Phases: []PhaseSpec{
			{Name: "p", Steps: []StepSpec{
				{Op: OpWrite, File: "f", Access: []AccessSpec{{OffsetBytes: 0, BlockBytes: 1024}}},
			}},
		},
	}
}

func TestSynthSpecValidateAcceptsMinimal(t *testing.T) {
	if err := minimalSpec().Validate(); err != nil {
		t.Fatalf("minimal spec rejected: %v", err)
	}
}

func TestSynthSpecValidateRejections(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Spec)
		want   string // substring of the structured error
	}{
		{"zero procs", func(s *Spec) { s.Procs = 0 }, "procs"},
		{"procs over cap", func(s *Spec) { s.Procs = MaxProcs + 1 }, "procs"},
		{"file without name", func(s *Spec) { s.Files[0].Name = "" }, "missing name"},
		{"file without path", func(s *Spec) { s.Files[0].Path = "" }, "missing path"},
		{"duplicate file", func(s *Spec) { s.Files = append(s.Files, s.Files[0]) }, "duplicate file"},
		{"bad mount", func(s *Spec) { s.Files[0].Mount = "tmpfs" }, "unknown mount"},
		{"shared file on local", func(s *Spec) { s.Files[0].Mount = "local" }, "mount local needs per_rank"},
		{"no phases", func(s *Spec) { s.Phases = nil }, "no phases"},
		{"phase without name", func(s *Spec) { s.Phases[0].Name = "" }, "missing name"},
		{"negative loop", func(s *Spec) { s.Phases[0].Loop = -1 }, "loop"},
		{"loop over cap", func(s *Spec) { s.Phases[0].Loop = MaxLoop + 1 }, "loop"},
		{"unknown start", func(s *Spec) { s.Start = "nope" }, "start"},
		{"dangling next", func(s *Spec) { s.Phases[0].Next = "nope" }, "not declared"},
		{"self cycle", func(s *Spec) { s.Phases[0].Next = "p" }, "cycle"},
		{"two-phase cycle", func(s *Spec) {
			s.Phases[0].Next = "q"
			s.Phases = append(s.Phases, PhaseSpec{Name: "q", Next: "p"})
		}, "cycle"},
		{"unreachable phase", func(s *Spec) {
			s.Phases = append(s.Phases, PhaseSpec{Name: "island"})
		}, "unreachable"},
		{"step without op", func(s *Spec) { s.Phases[0].Steps[0].Op = "" }, "missing op"},
		{"unknown op", func(s *Spec) { s.Phases[0].Steps[0].Op = "scribble" }, "unknown op"},
		{"io without file", func(s *Spec) { s.Phases[0].Steps[0].File = "" }, "missing file"},
		{"io unknown file", func(s *Spec) { s.Phases[0].Steps[0].File = "g" }, "unknown file"},
		{"io without access", func(s *Spec) { s.Phases[0].Steps[0].Access = nil }, "no access"},
		{"both access forms", func(s *Spec) {
			s.Phases[0].Steps[0].PerRankAccess = [][]AccessSpec{{}, {}}
		}, "mutually exclusive"},
		{"per-rank length mismatch", func(s *Spec) {
			s.Phases[0].Steps[0].Access = nil
			s.Phases[0].Steps[0].PerRankAccess = [][]AccessSpec{{}}
		}, "per_rank_access"},
		{"negative offset", func(s *Spec) { s.Phases[0].Steps[0].Access[0].OffsetBytes = -1 }, "offset_bytes"},
		{"negative block", func(s *Spec) { s.Phases[0].Steps[0].Access[0].BlockBytes = -1 }, "block_bytes"},
		{"zero dim count", func(s *Spec) {
			s.Phases[0].Steps[0].Access[0].Dims = []DimSpec{{Count: 0, StrideBytes: 8}}
		}, "dim count"},
		{"negative stride", func(s *Spec) {
			s.Phases[0].Steps[0].Access[0].Dims = []DimSpec{{Count: 2, StrideBytes: -8}}
		}, "stride_bytes"},
		{"too many dims", func(s *Spec) {
			s.Phases[0].Steps[0].Access[0].Dims = make([]DimSpec, MaxDims+1)
			for i := range s.Phases[0].Steps[0].Access[0].Dims {
				s.Phases[0].Steps[0].Access[0].Dims[i] = DimSpec{Count: 1}
			}
		}, "dims"},
		{"element explosion", func(s *Spec) {
			s.Phases[0].Steps[0].Access[0].Dims = []DimSpec{
				{Count: 1 << 12, StrideBytes: 8}, {Count: 1 << 12, StrideBytes: 8},
			}
		}, "elements"},
		{"compute without duration", func(s *Spec) {
			s.Phases[0].Steps[0] = StepSpec{Op: OpCompute}
		}, "compute_ns"},
		{"send without bytes", func(s *Spec) {
			s.Phases[0].Steps[0] = StepSpec{Op: OpSend, Messages: 1, ToRankOffset: 1}
		}, "message_bytes"},
		{"send without messages", func(s *Spec) {
			s.Phases[0].Steps[0] = StepSpec{Op: OpSend, MessageBytes: 8, ToRankOffset: 1}
		}, "messages"},
		{"send to self", func(s *Spec) {
			s.Phases[0].Steps[0] = StepSpec{Op: OpSend, Messages: 1, MessageBytes: 8, ToRankOffset: 2}
		}, "self"},
		{"sync unknown file", func(s *Spec) {
			s.Phases[0].Steps[0] = StepSpec{Op: OpSync, File: "g"}
		}, "unknown file"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := minimalSpec()
			tc.mutate(s)
			err := s.Validate()
			if err == nil {
				t.Fatalf("mutation accepted, want error containing %q", tc.want)
			}
			se, ok := err.(*Error)
			if !ok {
				t.Fatalf("error is %T, want *Error: %v", err, err)
			}
			if !strings.Contains(se.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", se.Error(), tc.want)
			}
		})
	}
}

// TestSynthRemount: Remount moves every NFS file, and only those, to
// the mount asked for, on a copy; the spec it was given keeps its
// mounts, a shared file cannot move to local disks, and an app that
// is not a spec comes back as it is.
func TestSynthRemount(t *testing.T) {
	s := minimalSpec()
	s.Files = []FileSpec{
		{Name: "f", Path: "/f"},
		{Name: "n", Path: "/n", Mount: "nfs", PerRank: true},
		{Name: "l", Path: "/l", Mount: "local", PerRank: true},
		{Name: "p", Path: "/p", Mount: "pfs"},
	}
	app := MustCompile(s)
	for mount, want := range map[string][]string{
		"pfs":   {"pfs", "pfs", "local", "pfs"},
		"local": nil, // "f" is shared
		"nfs":   {"nfs", "nfs", "local", "pfs"},
	} {
		moved, err := Remount(app, mount)
		if want == nil {
			if err == nil || !strings.Contains(err.Error(), "per_rank") {
				t.Errorf("Remount(%s): err = %v, want the per_rank rule", mount, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("Remount(%s): %v", mount, err)
		}
		var got []string
		for _, f := range moved.(*App).Spec().Files {
			got = append(got, f.Mount)
		}
		if strings.Join(got, ",") != strings.Join(want, ",") {
			t.Errorf("Remount(%s) mounts = %v, want %v", mount, got, want)
		}
	}
	if got := []string{s.Files[0].Mount, s.Files[1].Mount}; got[0] != "" || got[1] != "nfs" {
		t.Errorf("Remount changed the given spec's mounts to %v", got)
	}
	if _, err := Remount(app, "tmpfs"); err == nil {
		t.Error("Remount accepted an unknown mount")
	}
	var other workload.App = notSpec{}
	if got, err := Remount(other, "pfs"); err != nil || got != other {
		t.Errorf("Remount(non-spec app) = %v, %v, want it back unchanged", got, err)
	}
}

// notSpec is a workload with no Spec method.
type notSpec struct{ workload.App }

func TestSynthSpecChainOrder(t *testing.T) {
	s := &Spec{
		Procs: 1,
		Start: "b",
		Phases: []PhaseSpec{
			{Name: "c"},
			{Name: "b", Next: "a"},
			{Name: "a", Next: "c"},
		},
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}
	var got []string
	for _, ph := range s.Chain() {
		got = append(got, ph.Name)
	}
	want := []string{"b", "a", "c"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("chain = %v, want %v", got, want)
		}
	}
}

func TestSynthSpecDeclaredBytes(t *testing.T) {
	s := &Spec{
		Procs: 3,
		Files: []FileSpec{{Name: "f", Path: "/f"}},
		Phases: []PhaseSpec{
			{Name: "w", Loop: 2, Steps: []StepSpec{
				// 3 ranks × 2 iters × (4 elements × 100 bytes) = 2400 written.
				{Op: OpWrite, File: "f", Access: []AccessSpec{
					{OffsetBytes: 0, BlockBytes: 100, Dims: []DimSpec{{Count: 4, StrideBytes: 200}}},
				}},
			}, Next: "r"},
			{Name: "r", Steps: []StepSpec{
				// Per-rank: 50 + 2×30 + 0 = 110 read.
				{Op: OpRead, File: "f", PerRankAccess: [][]AccessSpec{
					{{OffsetBytes: 0, BlockBytes: 50}},
					{{OffsetBytes: 0, BlockBytes: 30, Dims: []DimSpec{{Count: 2, StrideBytes: 60}}}},
					{},
				}},
			}},
		},
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}
	read, written := s.DeclaredBytes()
	if written != 2400 {
		t.Errorf("declared written = %d, want 2400", written)
	}
	if read != 110 {
		t.Errorf("declared read = %d, want 110", read)
	}
}

func TestSynthParseSpecRejectsUnknownFieldsAndGarbage(t *testing.T) {
	cases := []struct {
		name string
		in   string
	}{
		{"empty", ""},
		{"not json", "{"},
		{"unknown field", `{"procs":1,"phasez":[]}`},
		{"trailing data", `{"procs":1,"phases":[{"name":"p","steps":[]}]} {"x":1}`},
		{"wrong type", `{"procs":"two","phases":[]}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseSpec([]byte(tc.in))
			if err == nil {
				t.Fatal("accepted, want error")
			}
			if _, ok := err.(*Error); !ok {
				t.Fatalf("error is %T, want *Error: %v", err, err)
			}
		})
	}
}
