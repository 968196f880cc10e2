package interp

import (
	"math/rand"
	"testing"

	"hsmcc/internal/sccsim"
)

// MinClock is the linear-scan specification of MinClockHeap: it
// schedules the runnable context with the smallest virtual time (ties
// broken by lowest ID). The parity tests drive both side by side.
type MinClock struct{}

// Next implements Policy.
func (MinClock) Next(procs []*Proc) *Proc {
	var best *Proc
	for _, p := range procs {
		if p.State != Runnable {
			continue
		}
		if best == nil || p.Clock < best.Clock || (p.Clock == best.Clock && p.ID < best.ID) {
			best = p
		}
	}
	return best
}

// TestMinClockHeapMatchesLinear drives the indexed heap policy and the
// linear-scan oracle side by side through a randomized schedule of the
// transitions the session generates (spawn, yield with clock advance,
// block, unblock with clock raise, finish) and demands they elect the
// same context at every step. The linear MinClock is the specification;
// the heap must be observationally identical.
func TestMinClockHeapMatchesLinear(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		heap := NewMinClockHeap()
		oracle := MinClock{}
		var procs []*Proc
		nextID := 0
		spawn := func(clock sccsim.Time) {
			p := &Proc{ID: nextID, Clock: clock, State: Runnable}
			nextID++
			procs = append(procs, p)
			heap.NoteRunnable(p)
		}
		for i := 0; i < 3; i++ {
			spawn(sccsim.Time(rng.Intn(100)))
		}
		var blocked []*Proc
		for step := 0; step < 2000; step++ {
			want := oracle.Next(procs)
			got := heap.Next(procs)
			if want != got {
				t.Fatalf("seed %d step %d: heap elected %v, oracle %v", seed, step, got, want)
			}
			if want == nil {
				// Everyone blocked or done: unblock one or stop.
				if len(blocked) == 0 {
					break
				}
				p := blocked[rng.Intn(len(blocked))]
				p.State = Runnable
				p.Clock += sccsim.Time(rng.Intn(50))
				heap.NoteRunnable(p)
				continue
			}
			p := want
			p.State = Running
			p.Clock += sccsim.Time(1 + rng.Intn(200))
			switch r := rng.Intn(10); {
			case r < 6: // cooperative yield
				p.State = Runnable
				heap.NoteRunnable(p)
			case r < 8: // block, sometimes unblocking someone else
				p.State = Blocked
				blocked = append(blocked, p)
				if len(blocked) > 1 && rng.Intn(2) == 0 {
					w := blocked[rng.Intn(len(blocked))]
					if w != p {
						// Unblock raises the sleeper at most to the
						// runner's clock, as Proc.Unblock does.
						if p.Clock > w.Clock {
							w.Clock = p.Clock
						}
						w.State = Runnable
						heap.NoteRunnable(w)
					}
				}
			case r < 9: // finish
				p.State = Done
			default: // spawn a sibling, keep running, then yield
				spawn(p.Clock)
				p.State = Runnable
				heap.NoteRunnable(p)
			}
			// Occasionally compact Done procs out, as the session does.
			if step%97 == 0 {
				live := procs[:0]
				for _, q := range procs {
					if q.State != Done {
						live = append(live, q)
					}
				}
				procs = live
				liveBlocked := blocked[:0]
				for _, q := range blocked {
					if q.State == Blocked {
						liveBlocked = append(liveBlocked, q)
					}
				}
				blocked = liveBlocked
			}
		}
	}
}

// TestMinClockHeapMatchesLinearWide re-runs the parity drive at the
// mesh1024 population: 1024 live contexts, so sift paths several levels
// deep and large stale-entry populations are actually exercised.
func TestMinClockHeapMatchesLinearWide(t *testing.T) {
	for seed := int64(100); seed < 103; seed++ {
		rng := rand.New(rand.NewSource(seed))
		heap := NewMinClockHeap()
		oracle := MinClock{}
		procs := make([]*Proc, 0, 1024)
		for i := 0; i < 1024; i++ {
			p := &Proc{ID: i, Clock: sccsim.Time(rng.Intn(10_000)), State: Runnable}
			procs = append(procs, p)
			heap.NoteRunnable(p)
		}
		var blocked []*Proc
		for step := 0; step < 5000; step++ {
			want := oracle.Next(procs)
			got := heap.Next(procs)
			if want != got {
				t.Fatalf("seed %d step %d: heap elected %v, oracle %v", seed, step, got, want)
			}
			if want == nil {
				if len(blocked) == 0 {
					break
				}
				p := blocked[rng.Intn(len(blocked))]
				p.State = Runnable
				p.Clock += sccsim.Time(rng.Intn(50))
				heap.NoteRunnable(p)
				continue
			}
			p := want
			p.State = Running
			p.Clock += sccsim.Time(1 + rng.Intn(500))
			switch r := rng.Intn(10); {
			case r < 7:
				p.State = Runnable
				heap.NoteRunnable(p)
			case r < 9:
				p.State = Blocked
				blocked = append(blocked, p)
				if len(blocked) > 1 && rng.Intn(2) == 0 {
					w := blocked[rng.Intn(len(blocked))]
					if w != p {
						if p.Clock > w.Clock {
							w.Clock = p.Clock
						}
						w.State = Runnable
						heap.NoteRunnable(w)
					}
				}
			default:
				p.State = Done
			}
		}
	}
}

// TestMinClockHeapDuplicateNotes: redundant notifications (unblocking an
// already-runnable context, double notes at the same clock) must not
// change elections.
func TestMinClockHeapDuplicateNotes(t *testing.T) {
	heap := NewMinClockHeap()
	a := &Proc{ID: 0, Clock: 10, State: Runnable}
	b := &Proc{ID: 1, Clock: 5, State: Runnable}
	procs := []*Proc{a, b}
	heap.NoteRunnable(a)
	heap.NoteRunnable(b)
	heap.NoteRunnable(b) // duplicate at same clock
	heap.NoteRunnable(a) // duplicate
	if got := heap.Next(procs); got != b {
		t.Fatalf("elected %v, want b", got)
	}
	b.State = Running
	b.Clock = 20
	b.State = Runnable
	heap.NoteRunnable(b)
	// A stale entry for b (clock 5) is still in the heap; it must be
	// discarded in favour of a at clock 10.
	if got := heap.Next(procs); got != a {
		t.Fatalf("elected %v, want a (stale entry must be discarded)", got)
	}
}
