package interp

import "hsmcc/internal/sccsim"

// runnableNotifier is implemented by policies that maintain indexed
// scheduling state. The session calls NoteRunnable at every transition
// that makes a context runnable or changes its clock while runnable
// (spawn, unblock, cooperative yield); policies without the method are
// scanned statelessly, as before.
type runnableNotifier interface {
	NoteRunnable(p *Proc)
}

// MinClockHeap schedules the runnable context with the smallest virtual
// time (ties broken by lowest ID): the policy for multi-core RCCE
// execution, which keeps cross-core memory events approximately
// time-ordered. It is an intrusive min-heap keyed on (Clock, ID), updated on state transitions, replacing the O(n)
// scan per scheduling decision. Entries are invalidated lazily — a
// context's stale entries (from before its clock advanced) are discarded
// at pop time, which keeps every update O(log n) with no delete-by-key.
// A linear-scan MinClock in the tests is the specification; the
// equivalence property is pinned by TestMinClockHeapMatchesLinear.
//
// The heap must observe every runnable transition, so it only works as a
// session's policy when installed before the first Spawn (NewSim does
// this); swapping it in mid-session would miss existing contexts.
type MinClockHeap struct {
	h []clockEntry
}

type clockEntry struct {
	clock sccsim.Time
	id    int
	p     *Proc
}

// NewMinClockHeap returns an empty indexed min-clock policy.
func NewMinClockHeap() *MinClockHeap { return &MinClockHeap{} }

// NoteRunnable implements runnableNotifier.
func (m *MinClockHeap) NoteRunnable(p *Proc) {
	m.h = append(m.h, clockEntry{clock: p.Clock, id: p.ID, p: p})
	m.up(len(m.h) - 1)
}

// Next implements Policy: pop entries until one still describes a
// runnable context at its current clock. An entry is stale when the
// context ran (clock advanced), blocked, or finished since it was
// pushed; the context's current state, if runnable, is always covered
// by a fresher entry, so discarding stale ones is safe.
func (m *MinClockHeap) Next(procs []*Proc) *Proc {
	for len(m.h) > 0 {
		e := m.h[0]
		m.pop()
		if e.p.State == Runnable && e.p.Clock == e.clock {
			return e.p
		}
	}
	return nil
}

// entryLess orders by (clock, id) — the deterministic tiebreak the
// linear oracle uses.
func entryLess(a, b *clockEntry) bool {
	return a.clock < b.clock || (a.clock == b.clock && a.id < b.id)
}

// up and pop sift with a hole instead of pairwise swaps: the moving
// entry stays in a register-resident local while displaced entries
// shift one slot, so each level costs one 24-byte store rather than
// three. At 1024 runnable contexts the heap is ten levels deep and
// every context switch pays one push and at least one pop, which makes
// this the scheduler's hottest loop.
func (m *MinClockHeap) up(i int) {
	e := m.h[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !entryLess(&e, &m.h[parent]) {
			break
		}
		m.h[i] = m.h[parent]
		i = parent
	}
	m.h[i] = e
}

func (m *MinClockHeap) pop() {
	n := len(m.h) - 1
	e := m.h[n]
	m.h[n] = clockEntry{}
	m.h = m.h[:n]
	if n == 0 {
		return
	}
	// Sift the former last entry down from the root hole.
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		if l >= n {
			break
		}
		small := l
		if r < n && entryLess(&m.h[r], &m.h[l]) {
			small = r
		}
		if !entryLess(&m.h[small], &e) {
			break
		}
		m.h[i] = m.h[small]
		i = small
	}
	m.h[i] = e
}
