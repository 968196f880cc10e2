package interp

import (
	"bytes"
	"fmt"
	"sort"

	"hsmcc/internal/cc/ast"
	"hsmcc/internal/sccsim"
)

// ProcState is an execution context's scheduling state.
type ProcState int

// Proc states.
const (
	Runnable ProcState = iota
	Running
	Blocked
	Done
)

// Policy picks the next context to run. Next must return nil only when no
// proc is Runnable.
type Policy interface {
	Next(procs []*Proc) *Proc
}

// Runtime supplies the environment-specific builtins (pthread or RCCE)
// and scheduling hooks.
type Runtime interface {
	// CallBuiltin dispatches a runtime function; handled=false passes the
	// call to the interpreter's common builtins. A builtin that calls a
	// yield-capable primitive (ChargeCycles, Block, Yield, the typed
	// accessors) must follow the coroutine resumption protocol: push a
	// continuation with PushResume before propagating a yield, pop it
	// with PopResume when re-entered with Resuming true, and never
	// yield before committing to handle the call.
	CallBuiltin(p *Proc, name string, args []Value) (v Value, handled bool, err error)
	// Tick runs at statement boundaries (preemption hook). It must not
	// yield or block.
	Tick(p *Proc)
	// OnExit runs when a context finishes (wakes joiners, etc.).
	OnExit(p *Proc)
}

// YieldEvery is how many timed memory accesses a context performs before
// cooperatively yielding, bounding how far one context's virtual clock can
// run ahead between scheduling decisions.
const YieldEvery = 32

// StackBytes is the stack reserved per execution context.
const StackBytes = 256 * 1024

// Sim is one simulation session: a machine, a loaded program, a runtime
// and the set of execution contexts. The Program is the immutable
// compiled half — one Program may back any number of concurrent Sims —
// while the Sim carries every piece of per-run mutable state (context
// set, heaps, stack slots, output).
type Sim struct {
	Machine *sccsim.Machine
	Program *Program
	Runtime Runtime
	Policy  Policy
	// Prof, when non-nil, observes every timed data-memory access of the
	// session (see MemProfiler). Set before Spawn; profiling runs attach
	// a profile.Collector here, everything else leaves it nil.
	Prof MemProfiler
	// Cancel, when non-nil, is polled at every scheduling decision (one
	// call per context switch). A non-nil return aborts the session
	// promptly with that error: in-flight contexts unwind, Run returns
	// the error, and no further work is scheduled. The serving layer
	// wires a request context's Err here so a wall-clock
	// deadline or client disconnect stops a simulation mid-flight.
	Cancel func() error
	// Trace, when non-nil, observes every scheduling event of the
	// session (see TraceSink). Set before Spawn; like Prof it is
	// observation-only and excluded from cache fingerprints.
	Trace TraceSink
	Out   bytes.Buffer

	procs  []*Proc
	nextID int
	// per-core bump allocators (threads share their core's heap).
	heaps  map[int]uint32
	stacks map[int]int // stack slots ever handed out on this core
	// freeStacks recycles the slots of finished contexts so long-running
	// programs that repeatedly create and join threads (LU does one
	// round per elimination step) do not exhaust the address space.
	freeStacks map[int][]int
	// doneMax preserves the completion times of compacted contexts.
	doneMax sccsim.Time
	done    int // finished contexts still in procs
	err     error
	// elected carries the successor chosen by a suspending context to
	// the stepping loop, so each scheduling event makes exactly one
	// Policy.Next call.
	elected      *Proc
	electedValid bool
}

// NewSim builds a session. The runtime must be attached by the caller
// before Run (pthreadrt and rcce packages do this).
func NewSim(m *sccsim.Machine, pr *Program) *Sim {
	return &Sim{
		Machine:    m,
		Program:    pr,
		Policy:     NewMinClockHeap(),
		heaps:      make(map[int]uint32),
		stacks:     make(map[int]int),
		freeStacks: make(map[int][]int),
	}
}

// Procs returns the spawned contexts.
func (s *Sim) Procs() []*Proc { return s.procs }

// Spawn creates an execution context on core that will run fn(args) when
// first scheduled, starting at virtual time start. The program image is
// instantiated into the core's private memory the first time a context
// lands on that core.
func (s *Sim) Spawn(core int, fn *ast.FuncDecl, args []Value, start sccsim.Time) (*Proc, error) {
	if core < 0 || core >= s.Machine.Cores() {
		return nil, fmt.Errorf("interp: spawn on core %d of %d", core, s.Machine.Cores())
	}
	cf := s.Program.compiled[fn]
	if cf == nil {
		return nil, fmt.Errorf("interp: spawn of a function outside the program")
	}
	if _, loaded := s.heaps[core]; !loaded {
		if err := s.Program.instantiate(s.Machine, core); err != nil {
			return nil, err
		}
		s.heaps[core] = s.Program.ImageEnd
	}
	var idx int
	if free := s.freeStacks[core]; len(free) > 0 {
		idx = free[len(free)-1]
		s.freeStacks[core] = free[:len(free)-1]
	} else {
		idx = s.stacks[core]
		s.stacks[core]++
	}
	const maxSlots = int((sccsim.PrivateLimit - sccsim.PrivateBase) / 2 / StackBytes)
	if idx >= maxSlots {
		return nil, fmt.Errorf("interp: core %d out of stack space (%d live contexts)", core, idx)
	}
	p := &Proc{
		Sim:      s,
		ID:       s.nextID,
		Core:     core,
		Clock:    start,
		State:    Runnable,
		stackIdx: idx,
		rootCF:   cf,
		args:     args,
		prof:     s.Prof,
		trace:    s.Trace,
	}
	p.stackTop = sccsim.PrivateLimit - uint32(idx*StackBytes)
	p.stackPtr = p.stackTop
	p.timer = s.Machine.Timer(core)
	s.nextID++
	s.procs = append(s.procs, p)
	s.noteRunnable(p)
	if p.trace != nil {
		p.trace.TraceSpawn(p.ID, p.Core, start)
	}
	// Adopt pooled buffers: the resumption stack comes pre-reserved
	// (growth inside an unwind would add allocation noise to the hot
	// switch path) and a recycled bundle carries every arena at its
	// previous high-water capacity, so steady-state spawns allocate
	// nothing.
	p.adoptScratch()
	return p, nil
}

// pickNext compacts if due and asks the policy for the next context.
// It is the single choke point every scheduling decision passes
// through, so it also polls the session's Cancel hook: on cancellation
// it records the error and elects nobody, which makes the Run stepping
// loop fall out of its loop.
func (s *Sim) pickNext() *Proc {
	if s.Cancel != nil && s.err == nil {
		if err := s.Cancel(); err != nil {
			s.fail(fmt.Errorf("interp: session canceled: %w", err))
			return nil
		}
	}
	if s.done >= 64 && s.done*2 >= len(s.procs) {
		s.compact()
	}
	return s.Policy.Next(s.procs)
}

// noteRunnable tells a notification-aware policy (the min-clock heap)
// that p became runnable or changed clock while runnable.
func (s *Sim) noteRunnable(p *Proc) {
	if n, ok := s.Policy.(runnableNotifier); ok {
		n.NoteRunnable(p)
	}
}

// compact drops finished contexts from the scheduling scan once they
// outnumber the live ones, keeping Next() cheap for programs that spawn
// thousands of short-lived threads.
func (s *Sim) compact() {
	live := s.procs[:0]
	for _, p := range s.procs {
		if p.State == Done {
			if p.Clock > s.doneMax {
				s.doneMax = p.Clock
			}
			continue
		}
		live = append(live, p)
	}
	s.procs = live
	s.done = 0
}

// Makespan returns the latest completion time across contexts.
func (s *Sim) Makespan() sccsim.Time {
	end := s.doneMax
	for _, p := range s.procs {
		if p.Clock > end {
			end = p.Clock
		}
	}
	return end
}

// Output returns everything the program printed.
func (s *Sim) Output() string { return s.Out.String() }

func (s *Sim) allDone() bool {
	for _, p := range s.procs {
		if p.State != Done {
			return false
		}
	}
	return true
}

func (s *Sim) stateSummary() string {
	counts := map[ProcState]int{}
	for _, p := range s.procs {
		counts[p.State]++
	}
	var keys []int
	for k := range counts {
		keys = append(keys, int(k))
	}
	sort.Ints(keys)
	buf := ""
	names := map[ProcState]string{Runnable: "runnable", Running: "running", Blocked: "blocked", Done: "done"}
	for _, k := range keys {
		buf += fmt.Sprintf(" %d %s", counts[ProcState(k)], names[ProcState(k)])
	}
	return buf
}

// fail records the first runtime error.
func (s *Sim) fail(err error) {
	if s.err == nil {
		s.err = err
	}
}

// Unblock makes a parked context runnable again, advancing its clock to
// at least `at` (the virtual time of the event that released it).
func (p *Proc) Unblock(at sccsim.Time) {
	if at > p.Clock {
		p.Clock = at
	}
	if p.State == Blocked {
		p.State = Runnable
		if p.trace != nil {
			p.trace.TraceUnblock(p.ID, p.Core, p.Clock)
		}
	}
	if p.State == Runnable {
		p.Sim.noteRunnable(p)
	}
}

// takeBlockReason consumes the tag a BlockFor caller left for the one
// suspension it precedes.
func (p *Proc) takeBlockReason() BlockReason {
	r := p.blockReason
	p.blockReason = ReasonNone
	return r
}
