package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the sim op-trace golden under testdata/")

const opTraceGolden = "testdata/optrace.sha256"

// stepKind is one operation of a generated program.
type stepKind int

const (
	opSleep0     stepKind = iota // Sleep(0): must not yield
	opSleep                      // Sleep(d), d > 0
	opAlign                      // sleep to the next multiple of alignGrid, where other processes wake too
	opHold                       // Acquire, run an inner body, Release
	opHandoff                    // Acquire, and a scheduled callback releases
	opAddCB                      // Completion Add(k); k scheduled callbacks call Done
	opAddProc                    // Completion Add(1); a SpawnAfter process calls Done
	opWait                       // Completion WaitFor
	opFork                       // Fork children, each running a body
	opRefork                     // two Forks back to back: the second may reuse the first's last child
	opSpawnAfter                 // SpawnAfter a new top-level process running a body
	opDone                       // Completion Done: only in opAddProc's process
)

const alignGrid = 20

// step is one generated operation. Which fields are used depends on
// kind.
type step struct {
	kind  stepKind
	d     Duration // sleep, callback or start delay
	res   int      // resource index
	n     int64    // units, or Add count
	comp  int      // completion index
	label string   // fork label
	kids  [][]step // fork children's bodies
	kids2 [][]step // opRefork: the second fork's children's bodies
	body  []step   // opHold's inner body, opSpawnAfter's body
}

// program is a generated set of processes over shared resources and
// completions.
type program struct {
	caps  []int64  // resource capacities
	comps int      // completions
	procs [][]step // top-level bodies
	start []Duration
}

// gen draws programs from one seeded source. Bodies acquire resources
// in increasing index order, and every body forked inside a hold may
// only acquire resources above the held one; every Completion Add is
// paired at once with the callbacks or processes that will call Done.
// Together these keep each program free of deadlock.
type gen struct {
	rng   *rand.Rand
	prog  *program
	forks int
}

func genProgram(seed int64) *program {
	g := &gen{rng: rand.New(rand.NewSource(seed)), prog: &program{}}
	p := g.prog
	p.caps = []int64{1, 1 + int64(g.rng.Intn(3)), 1, 2 + int64(g.rng.Intn(3))}
	p.comps = 2 + g.rng.Intn(2)
	n := 8 + g.rng.Intn(9)
	for i := 0; i < n; i++ {
		p.procs = append(p.procs, g.body(2, 0))
		d := Duration(0)
		if g.rng.Intn(2) == 0 {
			d = Duration(g.rng.Intn(40))
		}
		p.start = append(p.start, d)
	}
	return p
}

// body draws 2–6 steps for a process at nesting depth depth that may
// acquire resources from minRes on.
func (g *gen) body(depth, minRes int) []step {
	var out []step
	for k := 2 + g.rng.Intn(5); k > 0; k-- {
		out = append(out, g.step(depth, minRes))
	}
	return out
}

func (g *gen) step(depth, minRes int) step {
	r := g.rng
	nres := len(g.prog.caps)
	for {
		switch kind := stepKind(r.Intn(int(opSpawnAfter) + 1)); kind {
		case opSleep0:
			return step{kind: kind}
		case opSleep:
			return step{kind: kind, d: Duration(1 + r.Intn(50))}
		case opAlign:
			return step{kind: kind}
		case opHold, opHandoff:
			if minRes >= nres {
				continue
			}
			res := minRes + r.Intn(nres-minRes)
			s := step{kind: kind, res: res, n: 1 + r.Int63n(g.prog.caps[res]), d: Duration(1 + r.Intn(30))}
			if kind == opHold && depth > 0 {
				s.body = g.body(depth-1, res+1)
			} else if kind == opHold {
				s.body = []step{{kind: opSleep, d: Duration(1 + r.Intn(20))}}
			}
			return s
		case opAddCB:
			return step{kind: kind, comp: r.Intn(g.prog.comps), n: 1 + int64(r.Intn(3)), d: Duration(r.Intn(40))}
		case opAddProc:
			return step{kind: kind, comp: r.Intn(g.prog.comps), d: Duration(r.Intn(30))}
		case opWait:
			return step{kind: kind, comp: r.Intn(g.prog.comps)}
		case opFork, opRefork:
			if depth == 0 {
				continue
			}
			g.forks++
			s := step{kind: kind, label: fmt.Sprintf("f%d", g.forks)}
			s.kids = g.children(depth-1, minRes)
			if kind == opRefork {
				s.kids2 = g.children(depth-1, minRes)
			}
			return s
		case opSpawnAfter:
			if depth == 0 {
				continue
			}
			return step{kind: kind, d: Duration(r.Intn(30)), body: g.body(depth-1, 0)}
		}
	}
}

func (g *gen) children(depth, minRes int) [][]step {
	kids := make([][]step, 1+g.rng.Intn(4))
	for i := range kids {
		kids[i] = g.body(depth, minRes)
	}
	return kids
}

// tracer runs a program and records every step as "now name op",
// checking the engine's invariants at each one. The checks run inside
// simulated processes, where t.Fatal would stop only that goroutine
// and leave the engine waiting for it, so they panic instead.
type tracer struct {
	e       *Engine
	res     []*Resource
	comps   []*Completion
	log     strings.Builder
	last    Time
	active  atomic.Int32 // runners holding control: must be 0 or 1
	live    int          // processes started and not yet returned from their body
	spawned int
}

// enter and leave bracket code that runs with control: a process's
// body between blocking calls, or a scheduled callback between the
// calls that may wake a process inline.
func (tr *tracer) enter() {
	if n := tr.active.Add(1); n != 1 {
		panic(fmt.Sprintf("sim optrace: %d runners hold control", n))
	}
}

func (tr *tracer) leave() {
	if n := tr.active.Add(-1); n != 0 {
		panic(fmt.Sprintf("sim optrace: %d runners left holding control", n))
	}
}

// check verifies the clock and the live-process count. A process that
// has returned from its body may still be handing control back, so in
// process context the engine may count more processes than have
// bodies running; in engine context every one has finished handing
// back.
func (tr *tracer) check(inProc bool) {
	now := tr.e.Now()
	if now < tr.last {
		panic(fmt.Sprintf("sim optrace: clock went back from %d to %d", tr.last, now))
	}
	tr.last = now
	if procs := tr.e.procs; procs < tr.live || !inProc && procs != tr.live {
		panic(fmt.Sprintf("sim optrace: engine counts %d processes, %d bodies running (in process: %v)", procs, tr.live, inProc))
	}
}

func (tr *tracer) rec(p *Proc, format string, args ...any) {
	tr.check(true)
	fmt.Fprintf(&tr.log, "%d %s %s\n", tr.e.Now(), p.Name(), fmt.Sprintf(format, args...))
}

func (tr *tracer) recCB(format string, args ...any) {
	tr.check(false)
	fmt.Fprintf(&tr.log, "%d cb %s\n", tr.e.Now(), fmt.Sprintf(format, args...))
}

// proc wraps a body as a process function that keeps the live count
// and the runner token. The caller spawns it at once: the count
// includes it from here.
func (tr *tracer) proc(body []step) func(*Proc) {
	tr.live++
	return func(p *Proc) {
		tr.enter()
		tr.rec(p, "start")
		tr.run(p, body)
		tr.rec(p, "end")
		tr.live--
		tr.leave()
	}
}

// callback wraps fn as a scheduled callback holding the runner token.
func (tr *tracer) callback(fn func()) func() {
	return func() {
		tr.enter()
		fn()
		tr.leave()
	}
}

// blocking gives up the runner token around a call that may transfer
// control: it parks p, or wakes another process inline.
func (tr *tracer) blocking(fn func()) {
	tr.leave()
	fn()
	tr.enter()
}

func (tr *tracer) run(p *Proc, body []step) {
	for _, s := range body {
		switch s.kind {
		case opSleep0:
			p.Sleep(0)
			tr.rec(p, "sleep0")
		case opSleep:
			tr.blocking(func() { p.Sleep(s.d) })
			tr.rec(p, "slept %d", s.d)
		case opAlign:
			d := Duration(alignGrid - p.Now()%alignGrid)
			tr.blocking(func() { p.Sleep(d) })
			tr.rec(p, "aligned %d", d)
		case opHold:
			r := tr.res[s.res]
			tr.blocking(func() { r.Acquire(p, s.n) })
			tr.rec(p, "acquired r%d n%d", s.res, s.n)
			tr.run(p, s.body)
			tr.blocking(func() { r.Release(s.n) })
			tr.rec(p, "released r%d n%d", s.res, s.n)
		case opHandoff:
			r := tr.res[s.res]
			tr.blocking(func() { r.Acquire(p, s.n) })
			tr.rec(p, "acquired r%d n%d for callback +%d", s.res, s.n, s.d)
			tr.e.Schedule(s.d, tr.callback(func() {
				tr.recCB("release r%d n%d", s.res, s.n)
				tr.blocking(func() { r.Release(s.n) })
				tr.recCB("released r%d n%d", s.res, s.n)
			}))
		case opAddCB:
			c := tr.comps[s.comp]
			c.Add(int(s.n))
			tr.rec(p, "add c%d %d by callback", s.comp, s.n)
			for i := int64(0); i < s.n; i++ {
				tr.e.Schedule(s.d+Duration(7*i), tr.callback(func() {
					tr.recCB("done c%d", s.comp)
					tr.blocking(c.Done)
				}))
			}
		case opAddProc:
			c := tr.comps[s.comp]
			c.Add(1)
			tr.spawned++
			name := fmt.Sprintf("d%d", tr.spawned)
			tr.rec(p, "add c%d 1 by %s", s.comp, name)
			tr.e.SpawnAfter(s.d, name, tr.proc([]step{{kind: opAlign}, {kind: opDone, comp: s.comp}}))
		case opDone:
			tr.rec(p, "done c%d", s.comp)
			tr.blocking(tr.comps[s.comp].Done)
		case opWait:
			c := tr.comps[s.comp]
			tr.blocking(func() { c.WaitFor(p) })
			tr.rec(p, "waited c%d", s.comp)
		case opFork, opRefork:
			tr.fork(p, s.label, s.kids)
			if s.kind == opRefork {
				tr.fork(p, s.label+"b", s.kids2)
			}
		case opSpawnAfter:
			tr.spawned++
			name := fmt.Sprintf("s%d", tr.spawned)
			tr.rec(p, "spawn %s +%d", name, s.d)
			tr.e.SpawnAfter(s.d, name, tr.proc(s.body))
		}
	}
}

func (tr *tracer) fork(p *Proc, label string, kids [][]step) {
	tr.rec(p, "fork %s %d", label, len(kids))
	fns := make([]func(*Proc), len(kids))
	for i, k := range kids {
		fns[i] = tr.proc(k)
	}
	tr.blocking(func() { Fork(p, label, fns...) })
	tr.rec(p, "joined %s", label)
}

// opTraceRun runs one program, under Run or under RunUntil in seeded
// random horizons, and returns its step trace and the resources'
// final statistics.
func opTraceRun(prog *program, seed int64, horizons bool) (steps, stats string) {
	e := NewEngine()
	tr := &tracer{e: e}
	for i, c := range prog.caps {
		tr.res = append(tr.res, NewResource(e, fmt.Sprintf("r%d", i), c))
	}
	for i := 0; i < prog.comps; i++ {
		tr.comps = append(tr.comps, NewCompletion(e, 0))
	}
	for i, body := range prog.procs {
		e.SpawnAfter(prog.start[i], fmt.Sprintf("p%d", i), tr.proc(body))
	}
	if horizons {
		rng := rand.New(rand.NewSource(seed))
		for e.Pending() > 0 {
			e.RunUntil(e.Now() + Time(rng.Intn(25)))
			tr.check(false)
		}
	}
	e.Run()
	tr.check(false)
	if tr.live != 0 || e.procs != 0 {
		panic(fmt.Sprintf("sim optrace: %d bodies and %d engine processes left after Run", tr.live, e.procs))
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "end %d\n", e.Now())
	for _, r := range tr.res {
		fmt.Fprintf(&sb, "%s acquires %d wait %d util %v\n", r.Name(), r.Acquires(), r.TotalWait(), r.Utilization())
	}
	return tr.log.String(), sb.String()
}

// TestSimOpTraceGolden pins the engine's interleaving: every step of
// seeded random programs — sleeps (zero, positive, and to times other
// processes also wake at), one- and multi-unit Resource holds, releases
// and completions from scheduled callbacks, Completion waits, nested
// and back-to-back Forks, SpawnAfter — with its simulated time and the
// name of the process that ran it, and each Resource's final
// statistics. Every program runs under Run and under RunUntil in
// random horizons, which must give the same steps. Any change to the
// engine must reproduce the trace exactly.
func TestSimOpTraceGolden(t *testing.T) {
	var all strings.Builder
	lines, reforks := 0, 0
	for seed := int64(1); seed <= 12; seed++ {
		prog := genProgram(seed)
		steps, stats := opTraceRun(prog, seed, false)
		stepsU, statsU := opTraceRun(prog, seed, true)
		if steps != stepsU {
			t.Fatalf("seed %d: Run and RunUntil traces differ:\n%s", seed, firstDiff(steps, stepsU))
		}
		for _, want := range []string{" joined ", " acquired ", " waited ", "cb released", "cb done", " spawn "} {
			if !strings.Contains(steps, want) {
				t.Fatalf("seed %d: program never %q", seed, strings.TrimSpace(want))
			}
		}
		if nestedRefork.MatchString(steps) {
			reforks++
		}
		lines += strings.Count(steps, "\n")
		fmt.Fprintf(&all, "== seed %d procs %d\n%s-- run\n%s-- run-until\n%s", seed, len(prog.procs), steps, stats, statsU)
	}
	sum := sha256.Sum256([]byte(all.String()))
	got := hex.EncodeToString(sum[:])
	// A Fork child that forks twice in a row is the case a pool of
	// finished children must get right: its second Fork may take the
	// child that woke it, while that child is still handing control
	// back.
	if reforks < 4 {
		t.Fatalf("only %d programs have a Fork child forking twice in a row", reforks)
	}
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(opTraceGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(opTraceGolden, []byte(got+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d step lines)", opTraceGolden, lines)
		return
	}
	want, err := os.ReadFile(opTraceGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != strings.TrimSpace(string(want)) {
		t.Fatalf("op trace (%d step lines) hashes to %s, golden %s", lines, got, strings.TrimSpace(string(want)))
	}
}

// nestedRefork matches the second join of an opRefork step run by a
// Fork child.
var nestedRefork = regexp.MustCompile(`(?m)^\d+ \S+/\S+ joined f\d+b$`)

// firstDiff returns the first differing line of two traces, with its
// line number.
func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d: %q vs %q", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("lengths %d vs %d lines", len(al), len(bl))
}
