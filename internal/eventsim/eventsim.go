// Package eventsim is a deterministic discrete-event simulation kernel —
// the substitute for the ns-2 scheduler the paper's evaluation runs on.
//
// Events are callbacks ordered by (time, sequence number); ties in time are
// broken by scheduling order, so a run is a pure function of the initial
// schedule and the random streams the callbacks consume. The kernel is
// single-threaded by design: reproducibility matters more than parallelism
// inside one simulated network, and the experiment harness parallelizes
// across independent trials instead.
//
// The pending set has two tiers that share one pop order. A protocol round
// is scheduled up front: every slice and aggregate send is armed before
// Run, and only the MAC and radio schedule from inside callbacks (attempts,
// end-of-air, ACKs, ARQ timeouts), always a few milliseconds ahead. Events
// scheduled while no Run is in progress are therefore appended to a
// staging buffer, which Run sorts once and merges into a sorted run that a
// cursor consumes; events scheduled from callbacks go to a 4-ary min-heap.
// Each pop takes the earlier of the heap top and the cursor head under the
// same (time, seq) comparator, so which tier holds an event never changes
// when it fires. Keeping a round's far-future sends out of the heap keeps
// it shallow: on the 400-node metering day of `ipda-bench -exp stream` a
// single heap held 705 entries at an average pop, with 82% of the 1.83 M
// pops at a depth of 256 or more; with two tiers the heap averages 1.5
// entries (at most 90) while the sorted run holds the rest. On fig7
// trials, whose Phase I floods schedule from callbacks, the average depth
// falls from 587 to 29.
//
// The kernel is allocation-free in steady state: event slots are recycled
// through a free list as soon as they fire or are cancelled, and the
// staging, run and merge buffers keep their capacity. Cancellation is
// lazy — the O(log n) heap surgery of eager removal would require every
// sift to write the entry's position back into its event slot, and those
// scattered writes dominate the sift's cost — so Cancel just bumps the
// slot's generation (reclaiming the slot immediately) and the dead entry
// is skipped when it reaches the front of its tier. Handles carry the same
// generation so a handle to a recycled event can never touch its
// successor.
package eventsim

import (
	"fmt"
	"math"
)

// Time is simulated time in seconds since the start of the run.
type Time float64

// Event is a scheduled callback. Events live in the Sim's slab and are
// addressed by index everywhere — queue entries, handles, the free list —
// so the scheduler's data structures carry no pointers: the slab may
// grow without invalidating references, sift writes need no GC write
// barriers, and the queue never needs scanning. gen distinguishes
// lifecycles: a queue entry or Handle whose gen no longer matches the
// slot's is dead, so stale Handles become no-ops and cancelled entries
// are skipped at pop time rather than acting on the next occupant of a
// recycled slot. The ordering key (time, sequence) lives in the queue
// entry, not here.
type event struct {
	fn  func()
	gen uint32 // bumped when the event completes (fires or is cancelled)
}

// Handle allows a scheduled event to be cancelled before it fires. Methods
// have pointer receivers: Cancel records its outcome in the handle itself,
// so Cancelled reports what happened through this handle (a copy made
// before Cancel does not observe it).
type Handle struct {
	s         *Sim
	ei        int32
	gen       uint32
	done      bool // Cancel already ran through this handle
	cancelled bool
}

// Cancel prevents the event from firing. The event's slot is reclaimed
// immediately; its queue entry stays behind as a tombstone and is dropped
// when it surfaces. Cancelling an already-fired or already-cancelled
// event is a no-op: an event that has run cannot be un-run.
func (h *Handle) Cancel() {
	if h.done || h.s == nil {
		return
	}
	h.done = true
	if h.s.events[h.ei].gen != h.gen {
		return // already fired or cancelled (possibly recycled since)
	}
	h.s.recycle(h.ei)
	h.s.live--
	h.cancelled = true
}

// Cancelled reports whether this handle's Cancel call actually cancelled
// the event. It stays false when the event had already fired by the time
// Cancel was called.
func (h *Handle) Cancelled() bool { return h.cancelled }

// The heap tier is a 4-ary min-heap over (at, seq) implemented
// concretely rather than through container/heap: the comparator is a
// strict total order, so pop order — the only thing determinism depends
// on — is independent of heap layout. Entries carry the ordering key by
// value, so comparisons and sift moves never leave the heap's backing
// array, and the 4-ary shape halves the depth a pop sifts through —
// together these cut the scheduler's share of a simulation's CPU profile
// by more than half versus the interface-dispatched pointer heap. Sifts
// move a hole instead of swapping, so each level costs one entry copy.

// heapEntry is one scheduled slot, in either tier: the ordering key, the
// slab index of the event it belongs to, and the lifecycle it was
// scheduled in. An entry whose gen trails the slot's current gen is a
// tombstone left by Cancel.
type heapEntry struct {
	at  Time
	seq uint64
	gen uint32
	ei  int32
}

type eventHeap []heapEntry

// before reports whether a fires before b: earlier time first,
// scheduling order breaking ties.
func before(a, b heapEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// push inserts e and restores the heap property.
func (s *Sim) push(e heapEntry) {
	s.queue = append(s.queue, heapEntry{})
	s.siftUp(e, int32(len(s.queue))-1)
}

// pop removes and returns the earliest entry, which may be a tombstone.
// The queue must be non-empty.
func (s *Sim) pop() heapEntry {
	q := s.queue
	min := q[0]
	n := len(q) - 1
	last := q[n]
	s.queue = q[:n]
	if n > 0 {
		s.siftDown(last, 0)
	}
	return min
}

// prune drops tombstones off the front of both tiers so queue[0] and
// run[cur], when they exist, are live entries. Every front-of-queue read
// funnels through here; the amortized cost is one extra pop per Cancel.
func (s *Sim) prune() {
	for len(s.queue) > 0 {
		e := s.queue[0]
		if s.events[e.ei].gen == e.gen {
			break
		}
		s.pop()
	}
	for s.cur < len(s.run) {
		e := s.run[s.cur]
		if s.events[e.ei].gen == e.gen {
			break
		}
		s.cur++
	}
}

// siftUp places e into the hole at position i, shifting later-firing
// parents down until the heap property holds.
func (s *Sim) siftUp(e heapEntry, i int32) {
	q := s.queue
	for i > 0 {
		p := (i - 1) / 4
		if !before(e, q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = e
}

// siftDown places e into the hole at position i, shifting the
// earliest-firing child up until the heap property holds.
func (s *Sim) siftDown(e heapEntry, i int32) {
	q := s.queue
	n := int32(len(q))
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		end := c + 4
		if end > n {
			end = n
		}
		m := c
		for j := c + 1; j < end; j++ {
			if before(q[j], q[m]) {
				m = j
			}
		}
		if !before(q[m], e) {
			break
		}
		q[i] = q[m]
		i = m
	}
	q[i] = e
}

// mergeEntries appends the merge of the sorted slices a and b to dst.
func mergeEntries(dst, a, b []heapEntry) []heapEntry {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if before(b[j], a[i]) {
			dst = append(dst, b[j])
			j++
		} else {
			dst = append(dst, a[i])
			i++
		}
	}
	dst = append(dst, a[i:]...)
	return append(dst, b[j:]...)
}

// sortEntries sorts es by (at, seq): insertion sort within runs of 16,
// then bottom-up merge passes that alternate between es and buf. It
// returns the sorted entries and the other buffer, emptied; both reuse
// es's and buf's storage unless buf is too short. The sort is written
// out rather than taken from package slices so the comparison inlines.
func sortEntries(es, buf []heapEntry) (sorted, spare []heapEntry) {
	const run = 16
	n := len(es)
	for lo := 0; lo < n; lo += run {
		hi := min(lo+run, n)
		for i := lo + 1; i < hi; i++ {
			e, j := es[i], i
			for ; j > lo && before(e, es[j-1]); j-- {
				es[j] = es[j-1]
			}
			es[j] = e
		}
	}
	src, dst := es, buf
	for w := run; w < n; w *= 2 {
		dst = dst[:0]
		for lo := 0; lo < n; lo += 2 * w {
			mid, hi := min(lo+w, n), min(lo+2*w, n)
			dst = mergeEntries(dst, src[lo:mid], src[mid:hi])
		}
		src, dst = dst, src
	}
	return src, dst[:0]
}

// mergeStage sorts the staging buffer and merges it with the unconsumed
// part of the sorted run, leaving the cursor at the start of the result.
// The three buffers rotate, so a warmed kernel merges without allocating.
func (s *Sim) mergeStage() {
	sorted, scratch := sortEntries(s.stage, s.spare)
	rest := s.run[s.cur:]
	s.cur = 0
	if len(rest) == 0 {
		s.run, s.stage, s.spare = sorted, s.run[:0], scratch
		return
	}
	s.run, s.stage, s.spare = mergeEntries(scratch, rest, sorted), s.run[:0], sorted[:0]
}

// Sim is the simulation kernel. The zero value is ready to use.
type Sim struct {
	now     Time
	seq     uint64
	queue   eventHeap   // heap tier: events scheduled from callbacks
	stage   []heapEntry // scheduled outside Run, not yet sorted
	run     []heapEntry // sorted tier, consumed from cur
	spare   []heapEntry // sort and merge scratch, rotated with run and stage
	cur     int
	events  []event // slab of event slots, addressed by index
	free    []int32 // recycled slab indices
	live    int     // scheduled events that are not tombstones
	fired   uint64
	halted  bool
	running bool // inside Run: new events must go to the heap
}

// New returns a fresh simulation at time zero.
func New() *Sim { return &Sim{} }

// Reset rewinds the kernel to time zero for a fresh run while keeping its
// backing storage: any still-scheduled events are recycled into the free
// list (their handles are invalidated by the gen bump), tombstones are
// dropped, and every queue buffer keeps its capacity. A Reset sim is
// indistinguishable from a New one — the clock, sequence counter, and
// fired count all restart — so a run on a reused kernel is byte-identical
// to a run on a fresh one.
func (s *Sim) Reset() {
	for _, q := range [...][]heapEntry{s.queue, s.stage, s.run[s.cur:]} {
		for _, e := range q {
			if s.events[e.ei].gen == e.gen {
				s.recycle(e.ei)
			}
		}
	}
	s.queue = s.queue[:0]
	s.stage = s.stage[:0]
	s.run = s.run[:0]
	s.cur = 0
	s.live = 0
	s.now = 0
	s.seq = 0
	s.fired = 0
	s.halted = false
}

// Now returns the current simulated time.
func (s *Sim) Now() Time { return s.now }

// Fired returns the number of events executed so far.
func (s *Sim) Fired() uint64 { return s.fired }

// Pending returns the number of events still scheduled. Cancelled events
// leave the count immediately even while their tombstones remain queued.
func (s *Sim) Pending() int { return s.live }

// recycle returns a completed event slot to the free list. Bumping gen
// here invalidates every outstanding handle to this lifecycle and turns
// any queued entry for it into a tombstone.
func (s *Sim) recycle(ei int32) {
	ev := &s.events[ei]
	ev.gen++
	ev.fn = nil // release the closure for the collector
	s.free = append(s.free, ei)
}

// At schedules fn to run at absolute time t. Scheduling in the past panics:
// it is always a protocol bug, never a recoverable condition.
func (s *Sim) At(t Time, fn func()) Handle {
	if t < s.now {
		panic(fmt.Sprintf("eventsim: scheduling at %v before now %v", t, s.now))
	}
	if math.IsNaN(float64(t)) {
		panic("eventsim: scheduling at NaN time")
	}
	var ei int32
	if n := len(s.free); n > 0 {
		ei = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		ei = int32(len(s.events))
		s.events = append(s.events, event{})
	}
	ev := &s.events[ei]
	ev.fn = fn
	e := heapEntry{at: t, seq: s.seq, gen: ev.gen, ei: ei}
	if s.running {
		s.push(e)
	} else {
		s.stage = append(s.stage, e)
	}
	s.seq++
	s.live++
	return Handle{s: s, ei: ei, gen: ev.gen}
}

// After schedules fn to run d seconds from now.
func (s *Sim) After(d Time, fn func()) Handle {
	return s.At(s.now+d, fn)
}

// Halt stops the run: Run returns after the current event completes.
func (s *Sim) Halt() { s.halted = true }

// Run executes events in order until the queue drains, Halt is called, or
// the simulated time would exceed deadline (events beyond the deadline stay
// unexecuted). It returns the number of events fired by this call.
func (s *Sim) Run(deadline Time) uint64 {
	start := s.fired
	s.halted = false
	if len(s.stage) > 0 {
		s.mergeStage()
	}
	outer := s.running
	s.running = true
	for !s.halted {
		s.prune()
		var e heapEntry
		if s.cur < len(s.run) && (len(s.queue) == 0 || before(s.run[s.cur], s.queue[0])) {
			if e = s.run[s.cur]; e.at > deadline {
				break
			}
			s.cur++
		} else if len(s.queue) > 0 && s.queue[0].at <= deadline {
			e = s.pop()
		} else {
			break
		}
		s.now = e.at
		s.fired++
		s.live--
		fn := s.events[e.ei].fn
		// Recycle before running: the callback may schedule new events
		// (reusing this very slot), and any handle to this lifecycle is
		// invalidated by the gen bump first, so a self-Cancel inside fn is
		// a safe no-op.
		s.recycle(e.ei)
		fn()
	}
	s.running = outer
	if s.now < deadline && s.live == 0 && !math.IsInf(float64(deadline), 1) {
		// Advance the clock to the deadline so successive Run calls see
		// monotonic time even over idle periods.
		s.now = deadline
	}
	return s.fired - start
}

// RunAll executes events until the queue drains or Halt is called, with no
// time limit. It returns the number of events fired by this call.
func (s *Sim) RunAll() uint64 {
	return s.Run(Time(math.Inf(1)))
}
