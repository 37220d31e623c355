// Package synth is the declarative workload plane: a workload is a
// phase graph — named phases of compute, communication, and
// collective/independent I/O steps, chained by Next edges and repeated
// by per-phase loop counts — parsed from a JSON spec and compiled to a
// workload.App that runs through the ioreq/span/telemetry path.
//
// App.Run is the one rank loop in the repository. The application
// packages (btio, madbench, flashio) and the library-level benchmarks
// IOR and b_eff_io (internal/bench) are spec generators: each derives
// its phase graph from its configuration and runs the compiled spec,
// so the spec is the single description of what the workload does.
// Their runs are pinned by digests recorded from the hand-coded rank
// loops the generators replaced (testdata/workloads.sha256 here,
// internal/bench/testdata/library.sha256 for the benchmarks). New
// workloads therefore cost a spec file, not a Go package.
package synth

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Structural caps: a spec beyond these is rejected at validation, so
// parsing untrusted input (the fuzzer's job) cannot ask the simulator
// for unbounded work or overflow offset arithmetic.
const (
	MaxProcs        = 4096    // ranks per workload
	MaxPhases       = 1 << 10 // phases per spec
	MaxLoop         = 1 << 16 // iterations per phase
	MaxStepElements = 1 << 20 // expanded accesses per step per rank
	MaxDims         = 8       // nesting depth of one access pattern
	MaxBytes        = 1 << 40 // any single offset/length/stride field
	MaxComputeNS    = 1 << 50 // one compute delay (~13 simulated days)
)

// Error is a structured spec error: Where locates the offending
// element (e.g. "phase \"dump\" step 2"), Reason says what is wrong.
type Error struct {
	Where  string
	Reason string
}

func (e *Error) Error() string { return "synth: " + e.Where + ": " + e.Reason }

func errf(where, format string, argv ...any) *Error {
	return &Error{Where: where, Reason: fmt.Sprintf(format, argv...)}
}

// Spec is a complete declarative workload.
type Spec struct {
	// Name labels the workload in reports (defaults to "synthetic").
	Name string `json:"name,omitempty"`
	// Procs is the number of MPI ranks.
	Procs int `json:"procs"`
	// Files declares every file the phases touch.
	Files []FileSpec `json:"files,omitempty"`
	// Start names the first phase (defaults to the first declared).
	Start string `json:"start,omitempty"`
	// Phases is the phase graph; every phase must be reachable by the
	// Next chain from Start, and the chain must terminate (no cycles).
	Phases []PhaseSpec `json:"phases"`
}

// FileSpec declares one file (or, with PerRank, one file per rank).
type FileSpec struct {
	// Name is the handle steps refer to.
	Name string `json:"name"`
	// Path on the selected storage; PerRank files append ".%04d" with
	// the rank (MADbench2's UNIQUE naming).
	Path string `json:"path"`
	// Mount selects the storage: "nfs" (default), "local", or "pfs".
	Mount string `json:"mount,omitempty"`
	// PerRank gives every rank a private file over a one-rank world
	// (no shared-file locking, no direct I/O).
	PerRank bool `json:"per_rank,omitempty"`
	// CollectiveBuffering and the CB knobs mirror mpiio.Hints.
	CollectiveBuffering bool  `json:"collective_buffering,omitempty"`
	CBNodes             int   `json:"cb_nodes,omitempty"`
	CBBufferBytes       int64 `json:"cb_buffer_bytes,omitempty"`
}

// PhaseSpec is one node of the phase graph.
type PhaseSpec struct {
	Name string `json:"name"`
	// Loop repeats the phase's step list (0 means 1).
	Loop int `json:"loop,omitempty"`
	// Steps run in order on every rank, each iteration.
	Steps []StepSpec `json:"steps"`
	// Next names the following phase; empty ends the workload.
	Next string `json:"next,omitempty"`
}

// Step operations.
const (
	OpWrite   = "write"
	OpRead    = "read"
	OpCompute = "compute"
	OpSend    = "send"
	OpBarrier = "barrier"
	OpSync    = "sync"
)

// StepSpec is one action. Which fields apply depends on Op:
//
//   - write/read: File, Collective, SyncAfter, RateKey, Access or
//     PerRankAccess, LoopStrideBytes, RankStrideBytes
//   - compute: ComputeNS
//   - send: ToRankOffset, Messages, MessageBytes
//   - barrier: (nothing)
//   - sync: File
type StepSpec struct {
	Op string `json:"op"`

	// File names a declared FileSpec (write/read/sync).
	File string `json:"file,omitempty"`
	// Collective issues the access as a collective (*All) operation;
	// every rank participates even with an empty access list.
	Collective bool `json:"collective,omitempty"`
	// SyncAfter syncs the file inside the step's timing window
	// (MADbench2's IOMODE=SYNC write behaviour).
	SyncAfter bool `json:"sync_after,omitempty"`
	// RateKey accumulates the step's time and bytes under a named
	// phase rate (Result.PhaseRates).
	RateKey string `json:"rate_key,omitempty"`

	// Access is the per-iteration access list, identical shape for
	// every rank (offsets then shift by rank via RankStrideBytes).
	Access []AccessSpec `json:"access,omitempty"`
	// PerRankAccess gives each rank its own access list (length must
	// equal Procs); mutually exclusive with Access.
	PerRankAccess [][]AccessSpec `json:"per_rank_access,omitempty"`
	// LoopStrideBytes shifts all offsets per phase iteration;
	// RankStrideBytes shifts them per rank.
	LoopStrideBytes int64 `json:"loop_stride_bytes,omitempty"`
	RankStrideBytes int64 `json:"rank_stride_bytes,omitempty"`

	// ComputeNS is the busy-work duration (compute).
	ComputeNS int64 `json:"compute_ns,omitempty"`

	// Send: every rank sends Messages messages of MessageBytes to
	// rank (rank+ToRankOffset) mod Procs.
	ToRankOffset int   `json:"to_rank_offset,omitempty"`
	Messages     int   `json:"messages,omitempty"`
	MessageBytes int64 `json:"message_bytes,omitempty"`
}

// AccessSpec is one (possibly multi-dimensional) strided access: a
// block of BlockBytes repeated over the Dims counters, outermost
// dimension first. With no Dims it is a single contiguous access.
type AccessSpec struct {
	OffsetBytes int64     `json:"offset_bytes"`
	BlockBytes  int64     `json:"block_bytes"`
	Dims        []DimSpec `json:"dims,omitempty"`
}

// DimSpec is one dimension of a strided pattern.
type DimSpec struct {
	Count       int   `json:"count"`
	StrideBytes int64 `json:"stride_bytes"`
}

// Elements returns the number of expanded accesses (the product of
// the dimension counts), or 0 if any count is invalid.
func (a AccessSpec) Elements() int64 {
	n := int64(1)
	for _, d := range a.Dims {
		if d.Count < 1 {
			return 0
		}
		n *= int64(d.Count)
		if n > MaxStepElements {
			return n // caller rejects; avoid overflow on deeper dims
		}
	}
	return n
}

// Bytes returns the total bytes the access moves per execution.
func (a AccessSpec) Bytes() int64 { return a.Elements() * a.BlockBytes }

// ParseSpec decodes and validates a JSON spec. Unknown fields are
// rejected so misspelled knobs fail loudly instead of silently doing
// nothing. All failures are *Error values (or wrap the JSON decode
// position); ParseSpec never panics on any input.
func ParseSpec(data []byte) (*Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, errf("spec", "invalid JSON: %v", err)
	}
	// Trailing garbage after the spec object is a malformed file.
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return nil, errf("spec", "trailing data after spec object")
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// LoadSpec reads and parses a spec file.
func LoadSpec(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return ParseSpec(data)
}

// WriteJSON renders the spec as indented JSON (the committed example
// specs are produced this way, so generator and file stay in sync).
func (s *Spec) WriteJSON(w io.Writer) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// Validate checks the whole spec structurally: caps, references,
// per-op field rules, and phase-graph termination. It returns the
// first violation as a *Error.
func (s *Spec) Validate() error {
	if s.Procs < 1 || s.Procs > MaxProcs {
		return errf("spec", "procs %d outside [1, %d]", s.Procs, MaxProcs)
	}
	files := map[string]*FileSpec{}
	for i := range s.Files {
		f := &s.Files[i]
		where := fmt.Sprintf("file %q", f.Name)
		if f.Name == "" {
			return errf(fmt.Sprintf("file %d", i), "missing name")
		}
		if _, dup := files[f.Name]; dup {
			return errf(where, "duplicate file name")
		}
		if f.Path == "" {
			return errf(where, "missing path")
		}
		switch f.Mount {
		case "", "nfs", "local", "pfs":
		default:
			return errf(where, "unknown mount %q (want nfs, local, or pfs)", f.Mount)
		}
		if f.CBNodes < 0 || f.CBNodes > MaxProcs {
			return errf(where, "cb_nodes %d outside [0, %d]", f.CBNodes, MaxProcs)
		}
		if f.CBBufferBytes < 0 || f.CBBufferBytes > MaxBytes {
			return errf(where, "cb_buffer_bytes %d outside [0, %d]", f.CBBufferBytes, int64(MaxBytes))
		}
		files[f.Name] = f
	}
	if len(s.Phases) == 0 {
		return errf("spec", "no phases")
	}
	if len(s.Phases) > MaxPhases {
		return errf("spec", "%d phases exceeds cap %d", len(s.Phases), MaxPhases)
	}
	phases := map[string]*PhaseSpec{}
	for i := range s.Phases {
		ph := &s.Phases[i]
		if ph.Name == "" {
			return errf(fmt.Sprintf("phase %d", i), "missing name")
		}
		where := fmt.Sprintf("phase %q", ph.Name)
		if _, dup := phases[ph.Name]; dup {
			return errf(where, "duplicate phase name")
		}
		if ph.Loop < 0 || ph.Loop > MaxLoop {
			return errf(where, "loop %d outside [0, %d]", ph.Loop, MaxLoop)
		}
		for j := range ph.Steps {
			if err := s.validateStep(files, fmt.Sprintf("%s step %d", where, j), &ph.Steps[j]); err != nil {
				return err
			}
		}
		phases[ph.Name] = ph
	}
	// Termination: every phase has at most one Next edge, so the walk
	// from Start is a path — revisiting a phase is a cycle, and any
	// phase off the path is unreachable.
	start := s.Start
	if start == "" {
		start = s.Phases[0].Name
	}
	if _, ok := phases[start]; !ok {
		return errf("spec", "start phase %q not declared", start)
	}
	visited := map[string]bool{}
	for cur := start; cur != ""; {
		ph, ok := phases[cur]
		if !ok {
			return errf(fmt.Sprintf("phase %q", cur), "referenced by next but not declared")
		}
		if visited[cur] {
			return errf(fmt.Sprintf("phase %q", cur), "phase graph has a cycle (revisited by next chain)")
		}
		visited[cur] = true
		cur = ph.Next
	}
	for i := range s.Phases {
		if !visited[s.Phases[i].Name] {
			return errf(fmt.Sprintf("phase %q", s.Phases[i].Name), "unreachable from start %q", start)
		}
	}
	return nil
}

func (s *Spec) validateStep(files map[string]*FileSpec, where string, st *StepSpec) error {
	needFile := func() error {
		if st.File == "" {
			return errf(where, "%s step missing file", st.Op)
		}
		if _, ok := files[st.File]; !ok {
			return errf(where, "unknown file %q", st.File)
		}
		return nil
	}
	switch st.Op {
	case OpWrite, OpRead:
		if err := needFile(); err != nil {
			return err
		}
		if len(st.Access) > 0 && len(st.PerRankAccess) > 0 {
			return errf(where, "access and per_rank_access are mutually exclusive")
		}
		if len(st.PerRankAccess) > 0 && len(st.PerRankAccess) != s.Procs {
			return errf(where, "per_rank_access has %d entries for %d procs", len(st.PerRankAccess), s.Procs)
		}
		if len(st.Access) == 0 && len(st.PerRankAccess) == 0 {
			return errf(where, "%s step has no access list", st.Op)
		}
		if st.LoopStrideBytes < 0 || st.LoopStrideBytes > MaxBytes {
			return errf(where, "loop_stride_bytes %d outside [0, %d]", st.LoopStrideBytes, int64(MaxBytes))
		}
		if st.RankStrideBytes < 0 || st.RankStrideBytes > MaxBytes {
			return errf(where, "rank_stride_bytes %d outside [0, %d]", st.RankStrideBytes, int64(MaxBytes))
		}
		check := func(accs []AccessSpec) error {
			var total int64
			for k, a := range accs {
				aw := fmt.Sprintf("%s access %d", where, k)
				if a.OffsetBytes < 0 || a.OffsetBytes > MaxBytes {
					return errf(aw, "offset_bytes %d outside [0, %d]", a.OffsetBytes, int64(MaxBytes))
				}
				if a.BlockBytes < 0 || a.BlockBytes > MaxBytes {
					return errf(aw, "block_bytes %d outside [0, %d]", a.BlockBytes, int64(MaxBytes))
				}
				if len(a.Dims) > MaxDims {
					return errf(aw, "%d dims exceeds cap %d", len(a.Dims), MaxDims)
				}
				for _, d := range a.Dims {
					if d.Count < 1 || int64(d.Count) > MaxStepElements {
						return errf(aw, "dim count %d outside [1, %d]", d.Count, int64(MaxStepElements))
					}
					if d.StrideBytes < 0 || d.StrideBytes > MaxBytes {
						return errf(aw, "dim stride_bytes %d outside [0, %d]", d.StrideBytes, int64(MaxBytes))
					}
				}
				total += a.Elements()
				if total > MaxStepElements {
					return errf(where, "access list expands past %d elements", int64(MaxStepElements))
				}
			}
			return nil
		}
		if len(st.Access) > 0 {
			if err := check(st.Access); err != nil {
				return err
			}
		}
		for _, accs := range st.PerRankAccess {
			if err := check(accs); err != nil {
				return err
			}
		}
	case OpCompute:
		if st.ComputeNS < 1 || st.ComputeNS > MaxComputeNS {
			return errf(where, "compute_ns %d outside [1, %d]", st.ComputeNS, int64(MaxComputeNS))
		}
	case OpSend:
		if st.Messages < 1 || st.Messages > MaxStepElements {
			return errf(where, "messages %d outside [1, %d]", st.Messages, int64(MaxStepElements))
		}
		if st.MessageBytes < 1 || st.MessageBytes > MaxBytes {
			return errf(where, "message_bytes %d outside [1, %d]", st.MessageBytes, int64(MaxBytes))
		}
		if off := st.ToRankOffset % s.Procs; off == 0 && s.Procs > 1 {
			return errf(where, "to_rank_offset %d sends to self", st.ToRankOffset)
		}
	case OpBarrier:
	case OpSync:
		if err := needFile(); err != nil {
			return err
		}
	case "":
		return errf(where, "missing op")
	default:
		return errf(where, "unknown op %q", st.Op)
	}
	return nil
}

// Chain returns the phases in execution order (Start, then Next
// links). The spec must already validate.
func (s *Spec) Chain() []*PhaseSpec {
	byName := map[string]*PhaseSpec{}
	for i := range s.Phases {
		byName[s.Phases[i].Name] = &s.Phases[i]
	}
	start := s.Start
	if start == "" {
		start = s.Phases[0].Name
	}
	var chain []*PhaseSpec
	for cur := start; cur != ""; {
		ph := byName[cur]
		chain = append(chain, ph)
		cur = ph.Next
	}
	return chain
}

// iterations returns the phase's effective loop count (Loop 0 = 1).
func (ph *PhaseSpec) iterations() int {
	if ph.Loop < 1 {
		return 1
	}
	return ph.Loop
}

// DeclaredBytes returns the total bytes the spec promises to read and
// write across all ranks, phases, and iterations — the left-hand side
// of the byte-conservation property (traced bytes are the right).
func (s *Spec) DeclaredBytes() (read, written int64) {
	for _, ph := range s.Chain() {
		iters := int64(ph.iterations())
		for i := range ph.Steps {
			st := &ph.Steps[i]
			if st.Op != OpWrite && st.Op != OpRead {
				continue
			}
			var total int64
			if len(st.PerRankAccess) > 0 {
				for _, accs := range st.PerRankAccess {
					for _, a := range accs {
						total += a.Bytes()
					}
				}
			} else {
				for _, a := range st.Access {
					total += a.Bytes()
				}
				total *= int64(s.Procs)
			}
			if st.Op == OpWrite {
				written += total * iters
			} else {
				read += total * iters
			}
		}
	}
	return read, written
}
