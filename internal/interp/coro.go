package interp

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"hsmcc/internal/cc/types"
)

// The coroutine execution core. Execution contexts are stackless
// coroutines stepped from one plain loop on the caller's goroutine: a
// yield point (memory-op cadence, clock-skew horizon, RCCE/pthread
// blocking) unwinds the compiled-closure stack with the errYield
// sentinel while every closure on the path pushes an explicit
// resumption frame, and the scheduler loop later re-enters the context
// from the top, each closure popping its frame and jumping straight back
// to the suspended child. No goroutines are created and no channel is
// touched on any context switch.
//
// Frame discipline (the whole protocol):
//
//   - Leaf primitives (chargeCycles, noteMemOp and the typed memory
//     accessors, Yield, Block) COMPLETE their effect before yielding and
//     return errYield without a frame; their caller records "site k
//     done" and resumes after the call, never re-running it. A leaf
//     that produces a value returns the real value alongside errYield
//     so the caller can save it in its frame.
//   - Every other function on the unwind path pushes exactly one frame
//     ("I was inside child k", plus any locals computed so far) and, on
//     resume, pops it and re-invokes the same child, which resumes
//     internally. The re-descent never evaluates anything fresh, so the
//     shared Proc state (slot arena, frame pointer, argument arena) is
//     only consulted once control reaches the suspension point again.
//
// Resumption frames are pushed innermost-first during the unwind, so
// popping from the tail re-enters the path outermost-first. The last
// pop clears the resuming flag; execution then continues normally.

// errYield is the coroutine suspension sentinel. It travels the same
// path as runtime errors — every combinator already propagates errors
// immediately — but is intercepted by the scheduler loop instead of
// failing the session.
var errYield = errors.New("interp: coroutine yield")

// IsYield reports whether err is the coroutine suspension sentinel.
// Runtime packages use it to distinguish a suspension from a failure
// when a primitive they called wants to yield.
func IsYield(err error) bool { return err == errYield }

// kframe is one resumption frame: the step a function suspended at plus
// whatever locals it needs to continue. The scratch fields cover every
// shape the compiled combinators save (values, addresses, counters);
// runtimes put their state in x.
//
// Storage is split for the sake of the switch hot path: the per-frame
// meta (step, address, counter) lives in a pointer-free 16-byte stack
// that the garbage collector never scans and pushes without write
// barriers, while the occasional Value or interface payload rides on
// side stacks, flagged in the step word. A frame push is the unwind's
// only memory traffic, so this layout halves the cost of every context
// switch.
type kframe struct {
	step int
	v    Value
	a    uint32
	n    int64
	x    any
}

// kmeta is the pointer-free stored form of a frame.
type kmeta struct {
	step int32 // step | kHasV | kHasX
	a    uint32
	n    int64
}

// The step word's upper bits multiplex four orthogonal encodings over
// one 16-byte kmeta:
//
//   - kHasV/kHasX flag a Value or interface payload on the side stacks.
//   - kInline* replace kHasV for the dominant scalar payloads: an
//     int-family or double Value whose second machine word is zero rides
//     directly in the meta's n field (which such frames never use), so
//     the kvals spill — a 24-byte copy each way — is skipped entirely.
//   - kPiggy fuses a multi-statement block's resume index into the frame
//     below it (bits 13..25) instead of pushing a frame of the block's
//     own. Straight-line statement lists are the most common combinator
//     on every unwind path, so this removes one push+pop per block level
//     per context switch. The fusing block always peeks and clears the
//     piggy bits before the carrier frame's owner pops it (resume order
//     is outermost-first and the owner is always deeper), so popKRef
//     never decodes a step with piggy bits still set.
//
// Own steps are bounded by the largest block statement index, so the
// mask keeps 26 bits even though fused carriers must fit theirs in 13.
const (
	kHasV       = 1 << 30
	kHasX       = 1 << 29
	kPiggy      = 1 << 28
	kInlineInt  = 1 << 26
	kInlineUInt = 2 << 26
	kInlineDbl  = 3 << 26
	kInlineMask = 3 << 26
	kPiggyShift = 13
	kPiggyMax   = 1<<kPiggyShift - 1
	kPiggyBits  = kPiggy | kPiggyMax<<kPiggyShift
	kStepMask   = 1<<26 - 1
)

// pushK saves one resumption frame. A saved Value always carries its
// type (the zero Value means "nothing saved"), which is what lets the
// payload flags reconstruct the frame exactly.
func (p *Proc) pushK(fr kframe) {
	st := int32(fr.step)
	n := fr.n
	if fr.v.T != nil {
		switch {
		case n == 0 && fr.v.F == 0 && fr.v.T == types.IntType:
			st |= kInlineInt
			n = fr.v.I
		case n == 0 && fr.v.F == 0 && fr.v.T == types.UIntType:
			st |= kInlineUInt
			n = fr.v.I
		case n == 0 && fr.v.I == 0 && fr.v.T == types.DoubleType:
			st |= kInlineDbl
			n = int64(math.Float64bits(fr.v.F))
		default:
			st |= kHasV
			p.kvals = append(p.kvals, fr.v)
		}
	}
	if fr.x != nil {
		st |= kHasX
		p.kxs = append(p.kxs, fr.x)
	}
	p.kstack = append(p.kstack, kmeta{step: st, a: fr.a, n: n})
}

func (p *Proc) popK() kframe {
	return *p.popKRef()
}

// popKRef pops the top frame into the Proc's scratch slot and returns a
// pointer to it. The slot is overwritten by the next pop, so a resuming
// function must copy any field it needs into locals before re-invoking
// anything that could pop or push (the re-descent discipline already
// requires exactly that).
func (p *Proc) popKRef() *kframe {
	n := len(p.kstack) - 1
	m := p.kstack[n]
	p.kstack = p.kstack[:n]
	fr := &p.kscratch
	fr.step = int(m.step & kStepMask)
	fr.a = m.a
	fr.n = m.n
	switch m.step & (kHasV | kInlineMask) {
	case 0:
		fr.v = Value{}
	case kInlineInt:
		fr.v = Value{T: types.IntType, I: m.n}
		fr.n = 0
	case kInlineUInt:
		fr.v = Value{T: types.UIntType, I: m.n}
		fr.n = 0
	case kInlineDbl:
		fr.v = Value{T: types.DoubleType, F: math.Float64frombits(uint64(m.n))}
		fr.n = 0
	default:
		vi := len(p.kvals) - 1
		fr.v = p.kvals[vi]
		p.kvals[vi] = Value{}
		p.kvals = p.kvals[:vi]
	}
	if m.step&kHasX != 0 {
		xi := len(p.kxs) - 1
		fr.x = p.kxs[xi]
		p.kxs[xi] = nil
		p.kxs = p.kxs[:xi]
	} else {
		fr.x = nil
	}
	if n == 0 {
		p.coResuming = false
	}
	return fr
}

// Resuming reports whether the context is re-descending to a suspension
// point. Runtime packages check it at the top of a builtin and pop
// their frame with PopResume.
func (p *Proc) Resuming() bool { return p.coResuming }

// PushResume saves a runtime builtin's continuation before it
// propagates a yield: step selects where to re-enter, x carries any
// state the re-entry needs.
func (p *Proc) PushResume(step int, x any) { p.pushK(kframe{step: step, x: x}) }

// PopResume pops the frame pushed by PushResume. Call only when
// Resuming reports true.
func (p *Proc) PopResume() (int, any) {
	fr := p.popK()
	return fr.step, fr.x
}

// Yield cooperatively gives up the processor while staying runnable.
// The next context is elected with exactly one policy call; when the
// policy re-elects the yielder — the common case under both the
// round-robin baseline (within a quantum) and min-clock once a context
// owns the smallest time — the suspension is skipped entirely (no
// unwind, no frames) and Yield returns nil. Otherwise it returns the
// yield sentinel, which the caller propagates (pushing its resumption
// frame) to the stepping loop.
func (p *Proc) Yield() error {
	p.State = Runnable
	p.lastYield = p.Clock
	s := p.Sim
	s.noteRunnable(p)
	next := s.pickNext()
	if next == p {
		p.State = Running
		return nil
	}
	if p.trace != nil {
		p.trace.TraceSuspend(p.ID, p.Core, p.Clock, SuspendYield, ReasonNone)
	}
	s.elected, s.electedValid = next, true
	return errYield
}

// Block parks the context until another context calls Unblock. It
// always returns the yield sentinel; the caller's builtin resumes after
// its Block call once re-elected.
func (p *Proc) Block() error {
	p.State = Blocked
	p.lastYield = p.Clock
	if p.trace != nil {
		p.trace.TraceSuspend(p.ID, p.Core, p.Clock, SuspendBlock, p.takeBlockReason())
	}
	s := p.Sim
	s.elected, s.electedValid = s.pickNext(), true
	return errYield
}

// Run executes the session to completion and returns the first runtime
// error, if any. It is the coroutine scheduler: a plain loop that steps
// whichever context the policy elects until everything is done,
// something deadlocks, or a context fails. The policy sees one Next call
// per yield, block or exit, so stateful policies (round-robin quanta,
// many-to-one core multiplexing) observe every transition.
func (s *Sim) Run() error {
	next := s.pickNext()
	for next != nil {
		next.State = Running
		if next.trace != nil {
			next.trace.TraceResume(next.ID, next.Core, next.Clock)
		}
		s.elected, s.electedValid = nil, false
		finished := next.step()
		if s.err != nil {
			break
		}
		if finished {
			next = s.pickNext()
			continue
		}
		if s.electedValid {
			next = s.elected
		} else {
			// A context must suspend through Yield or Block, which always
			// elect a successor; reaching here is a protocol bug.
			s.fail(fmt.Errorf("interp: context %d suspended without electing a successor", next.ID))
			break
		}
	}
	if s.err != nil {
		return s.err
	}
	if s.allDone() {
		return nil
	}
	return fmt.Errorf("interp: deadlock: %s", s.stateSummary())
}

// step enters or resumes a context and runs it to its next suspension
// point; true means the context finished (bookkeeping done). The root
// callee is resolved once at spawn, so a resume costs no map lookup
// before the re-descent.
func (p *Proc) step() bool {
	if len(p.kstack) > 0 {
		p.coResuming = true
	}
	v, err := p.callCompiled(p.rootCF, p.args)
	if err == errYield {
		return false
	}
	p.finish(v, err)
	return true
}

// procScratch bundles every growable per-context buffer so one pool hit
// at spawn replaces seven warm-up allocations (the resumption stacks,
// the activation arenas and the 6 KB per-depth return arena). Contexts
// churn — a matrix cell spawns and finishes hundreds — while the
// buffers' high-water marks are workload constants, so recycling makes
// a whole sweep allocate O(live contexts) once instead of O(spawns). The pool is package-level on purpose: parallel
// grid workers and repeated cells all feed the same free list
// (sync.Pool is concurrency-safe and GC-bounded).
type procScratch struct {
	kstack   []kmeta
	kvals    []Value
	kxs      []any
	cframes  []cframe
	slotMem  []uint32
	argArena []Value
	retSlots []Value
}

var scratchPool = sync.Pool{New: func() any {
	return &procScratch{
		kstack:   make([]kmeta, 0, 64),
		retSlots: make([]Value, maxCallDepth+1),
	}
}}

// adoptScratch attaches pooled buffers to a fresh context.
func (p *Proc) adoptScratch() {
	sc := scratchPool.Get().(*procScratch)
	p.scratch = sc
	p.kstack = sc.kstack
	p.kvals = sc.kvals
	p.kxs = sc.kxs
	p.cframes = sc.cframes
	p.slotMem = sc.slotMem
	p.argArena = sc.argArena
	p.retSlots = sc.retSlots
}

// releaseScratch returns the buffers (with their grown capacities) to
// the pool. All stacks are empty at a clean finish; retSlots keeps its
// stale cells because runCompiledBodyAt zeroes a cell on every fresh
// entry, and Values hold no heap pointers beyond the immortal type
// singletons.
func (p *Proc) releaseScratch() {
	sc := p.scratch
	if sc == nil {
		return
	}
	p.scratch = nil
	// The side stacks and argument arena are empty after a clean finish,
	// but a context killed by a runtime error can leave occupied cells;
	// clear them so the pool never pins runtime objects.
	for i := range p.kvals {
		p.kvals[i] = Value{}
	}
	for i := range p.kxs {
		p.kxs[i] = nil
	}
	for i := range p.argArena {
		p.argArena[i] = Value{}
	}
	sc.kstack = p.kstack[:0]
	sc.kvals = p.kvals[:0]
	sc.kxs = p.kxs[:0]
	sc.cframes = p.cframes[:0]
	sc.slotMem = p.slotMem[:0]
	sc.argArena = p.argArena[:0]
	sc.retSlots = p.retSlots
	p.kstack, p.kvals, p.kxs = nil, nil, nil
	p.cframes, p.slotMem, p.argArena, p.retSlots = nil, nil, nil, nil
	scratchPool.Put(sc)
}

// finish is the context completion path: record the result, recycle the
// stack slot, wake joiners.
func (p *Proc) finish(v Value, err error) {
	switch err {
	case nil, errThreadExit:
		p.Ret = v
	default:
		p.Sim.fail(fmt.Errorf("proc %d (core %d): %w", p.ID, p.Core, err))
	}
	if p.trace != nil {
		p.trace.TraceSuspend(p.ID, p.Core, p.Clock, SuspendFinish, ReasonNone)
	}
	p.State = Done
	s := p.Sim
	s.done++
	s.freeStacks[p.Core] = append(s.freeStacks[p.Core], p.stackIdx)
	p.releaseScratch()
	if s.Runtime != nil {
		s.Runtime.OnExit(p)
	}
}
