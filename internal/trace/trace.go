// Package trace is the simulator's event recorder: a low-overhead sink
// for the scheduling hooks of internal/interp (interp.TraceSink) that
// reconstructs per-context run slices, blocked intervals and per-core
// memory-system activity, and exports them as Chrome trace_event JSON
// (loadable in Perfetto, chrome://tracing) plus a compact deterministic
// summary.
//
// The recorder is observation-only: it never charges simulated time and
// never touches scheduling state, so a run produces byte-identical
// output and cycle statistics with tracing on or off. The recorded event
// stream, and therefore every export, is deterministic: committed
// digests of the exports pin it (TestCrossEngineByteIdentity).
//
// Hot-path discipline (the PR-5 profiler / PR-9 scratch-pool rules):
// the event ring and every per-core accumulator are preallocated at
// construction, events are pointer-free structs, and the only growth
// happens at context spawn (amortised doubling of the per-context
// table). When the ring fills it drops the oldest events and counts
// them; the summary accumulators are maintained online and stay exact
// regardless of ring wrap.
package trace

import (
	"hsmcc/internal/interp"
	"hsmcc/internal/sccsim"
)

// Event kinds stored in the ring.
const (
	evSliceYield  uint8 = iota // run slice ended in a cooperative yield
	evSliceBlock               // run slice ended in a block (Reason says why)
	evSliceFinish              // run slice ended with the context completing
	evSpawn                    // context created
	evUnblock                  // blocked context released
	evSpin                     // one failed test-and-set round (Arg = backoff cycles)
)

// Event is one ring entry: pointer-free and fixed-size so the ring is
// a single allocation the garbage collector never scans.
type Event struct {
	Kind   uint8
	Reason uint8 // interp.BlockReason for evSliceBlock/evUnblock
	Core   int32
	Ctx    int32
	Start  sccsim.Time // slice start (slice kinds only)
	Time   sccsim.Time // event time; slice end for slice kinds
	Arg    int64       // evSpin: backoff cycles

	// Memory-system deltas of the slice (slice kinds only), sampled
	// from the core's counters at the suspension edge.
	Loads, Stores    uint32
	Private, Shared  uint32
	MPB, MPBRemote   uint32
	L1Hits, L1Misses uint32
	L2Hits, L2Misses uint32
}

// ctxInfo is the recorder's per-context state.
type ctxInfo struct {
	core        int32
	sliceStart  sccsim.Time
	blockStart  sccsim.Time
	blockReason uint8
	blocked     bool
	spawned     bool
}

// coreInfo is the per-core accumulator block.
type coreInfo struct {
	prev   sccsim.CoreStats // counter sample at the last slice edge
	busy   sccsim.Time      // sum of run-slice durations
	slices uint64
	total  sccsim.CoreStats // online sum of slice deltas (exact under ring wrap)
}

// DefaultCapacity is the ring size (events) when NewRecorder gets a
// non-positive capacity: 64 Ki events ≈ 4 MB.
const DefaultCapacity = 1 << 16

// timelineBuckets is the fixed resolution of the access-timeline
// histograms; the bucket width doubles whenever the makespan outgrows
// the covered range, which keeps the fill deterministic without
// knowing the final makespan up front.
const timelineBuckets = 64

// timelineStartWidth is the initial bucket width: 2^20 ps ≈ 1.05 µs.
const timelineStartWidth = sccsim.Time(1 << 20)

type timeline struct {
	width   sccsim.Time
	buckets [timelineBuckets]uint64
}

func (t *timeline) add(at sccsim.Time, n uint64) {
	if n == 0 {
		return
	}
	for at >= t.width*timelineBuckets {
		t.fold()
	}
	t.buckets[at/t.width] += n
}

// fold merges bucket pairs and doubles the width.
func (t *timeline) fold() {
	for i := 0; i < timelineBuckets/2; i++ {
		t.buckets[i] = t.buckets[2*i] + t.buckets[2*i+1]
	}
	for i := timelineBuckets / 2; i < timelineBuckets; i++ {
		t.buckets[i] = 0
	}
	t.width *= 2
}

// Recorder implements interp.TraceSink. Attach one to a session before
// Spawn (interp.Hooks.Trace, in a Sim or in pthreadrt/rcce Options) and
// export after the run with WriteChrome, Export or Summarize. A
// Recorder belongs to one session at a time and is not safe for
// concurrent use — exactly like the session it observes.
type Recorder struct {
	m     *sccsim.Machine
	ring  []Event
	count uint64 // events ever pushed; > len(ring) means the ring wrapped

	ctxs  []ctxInfo
	cores []coreInfo

	spawns   uint64
	finishes uint64
	spins    uint64
	maxTime  sccsim.Time

	stallCount [interp.NumBlockReasons]uint64
	stallTime  [interp.NumBlockReasons]sccsim.Time

	mpbTimeline  timeline
	dramTimeline timeline
}

var _ interp.TraceSink = (*Recorder)(nil)

// NewRecorder builds a recorder with a ring of capacity events (<= 0
// uses DefaultCapacity). m may be nil when the machine does not exist
// yet (the bench harness constructs it inside the run): the session
// binds it via BindMachine at its first Spawn.
func NewRecorder(m *sccsim.Machine, capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	r := &Recorder{
		ring:         make([]Event, capacity),
		mpbTimeline:  timeline{width: timelineStartWidth},
		dramTimeline: timeline{width: timelineStartWidth},
	}
	if m != nil {
		r.BindMachine(m)
	}
	return r
}

// BindMachine points the recorder at the machine whose per-core
// counters the slice deltas sample (interp.MachineBinder). interp.Sim
// calls it right before the first spawn; rebinding mid-session is not
// supported — one recorder observes one session.
func (r *Recorder) BindMachine(m *sccsim.Machine) {
	r.m = m
	if len(r.cores) < m.Cores() {
		r.cores = make([]coreInfo, m.Cores())
	}
}

// push appends one event, overwriting the oldest when the ring is full.
func (r *Recorder) push(e Event) {
	r.ring[r.count%uint64(len(r.ring))] = e
	r.count++
}

func (r *Recorder) note(at sccsim.Time) {
	if at > r.maxTime {
		r.maxTime = at
	}
}

// ctx returns the per-context slot, growing the table only when a new
// context appears (spawn — not a hot-path event).
func (r *Recorder) ctx(id int) *ctxInfo {
	if id >= len(r.ctxs) {
		grown := make([]ctxInfo, id+1, (id+1)*2)
		copy(grown, r.ctxs)
		r.ctxs = grown
	}
	return &r.ctxs[id]
}

// TraceSpawn implements interp.TraceSink.
func (r *Recorder) TraceSpawn(ctx, core int, at sccsim.Time) {
	c := r.ctx(ctx)
	c.core = int32(core)
	c.sliceStart = at
	c.spawned = true
	r.spawns++
	r.push(Event{Kind: evSpawn, Core: int32(core), Ctx: int32(ctx), Time: at})
	r.note(at)
}

// TraceResume implements interp.TraceSink: the context was elected and
// its next run slice starts now.
func (r *Recorder) TraceResume(ctx, core int, at sccsim.Time) {
	r.ctx(ctx).sliceStart = at
}

// TraceSuspend implements interp.TraceSink: close the run slice, sample
// the core's memory counters, and remember a block for the stall
// accounting.
func (r *Recorder) TraceSuspend(ctx, core int, at sccsim.Time, kind interp.SuspendKind, reason interp.BlockReason) {
	c := r.ctx(ctx)
	co := &r.cores[core]
	now := r.m.StatsOf(core)
	d := now.Delta(co.prev)
	co.prev = now
	co.busy += at - c.sliceStart
	co.slices++
	co.total.Loads += d.Loads
	co.total.Stores += d.Stores
	co.total.PrivateAccesses += d.PrivateAccesses
	co.total.SharedAccesses += d.SharedAccesses
	co.total.MPBAccesses += d.MPBAccesses
	co.total.MPBRemote += d.MPBRemote
	co.total.L1Hits += d.L1Hits
	co.total.L1Misses += d.L1Misses
	co.total.L2Hits += d.L2Hits
	co.total.L2Misses += d.L2Misses

	e := Event{
		Reason: uint8(reason),
		Core:   int32(core),
		Ctx:    int32(ctx),
		Start:  c.sliceStart,
		Time:   at,
		Loads:  uint32(d.Loads), Stores: uint32(d.Stores),
		Private: uint32(d.PrivateAccesses), Shared: uint32(d.SharedAccesses),
		MPB: uint32(d.MPBAccesses), MPBRemote: uint32(d.MPBRemote),
		L1Hits: uint32(d.L1Hits), L1Misses: uint32(d.L1Misses),
		L2Hits: uint32(d.L2Hits), L2Misses: uint32(d.L2Misses),
	}
	switch kind {
	case interp.SuspendBlock:
		e.Kind = evSliceBlock
		c.blockStart = at
		c.blockReason = uint8(reason)
		c.blocked = true
	case interp.SuspendFinish:
		e.Kind = evSliceFinish
		r.finishes++
	default:
		e.Kind = evSliceYield
	}
	r.push(e)
	r.mpbTimeline.add(at, d.MPBAccesses)
	r.dramTimeline.add(at, d.SharedAccesses)
	r.note(at)
}

// TraceUnblock implements interp.TraceSink: close the blocked interval.
func (r *Recorder) TraceUnblock(ctx, core int, at sccsim.Time) {
	c := r.ctx(ctx)
	reason := c.blockReason
	if c.blocked {
		r.stallCount[reason]++
		r.stallTime[reason] += at - c.blockStart
		c.blocked = false
	}
	r.push(Event{Kind: evUnblock, Reason: reason, Core: int32(core), Ctx: int32(ctx), Time: at})
	r.note(at)
}

// TraceSpin implements interp.TraceSink.
func (r *Recorder) TraceSpin(ctx, core int, at sccsim.Time, backoff int) {
	r.spins++
	r.push(Event{Kind: evSpin, Core: int32(core), Ctx: int32(ctx), Time: at, Arg: int64(backoff)})
	r.note(at)
}

// Events returns the retained events oldest-first, plus how many older
// events the ring dropped.
func (r *Recorder) Events() (events []Event, dropped uint64) {
	n := uint64(len(r.ring))
	if r.count <= n {
		return r.ring[:r.count], 0
	}
	head := r.count % n
	out := make([]Event, 0, n)
	out = append(out, r.ring[head:]...)
	out = append(out, r.ring[:head]...)
	return out, r.count - n
}
