package eventsim

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"testing"
)

func TestOrderByTime(t *testing.T) {
	s := New()
	var got []int
	s.At(3, func() { got = append(got, 3) })
	s.At(1, func() { got = append(got, 1) })
	s.At(2, func() { got = append(got, 2) })
	s.RunAll()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("order = %v", got)
	}
	if s.Now() != 3 {
		t.Fatalf("Now = %v", s.Now())
	}
}

func TestTieBreakBySchedulingOrder(t *testing.T) {
	s := New()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(5, func() { got = append(got, i) })
	}
	s.RunAll()
	for i, v := range got {
		if v != i {
			t.Fatalf("tie order broken: %v", got)
		}
	}
}

func TestAfterRelative(t *testing.T) {
	s := New()
	var at Time
	s.At(10, func() {
		s.After(5, func() { at = s.Now() })
	})
	s.RunAll()
	if at != 15 {
		t.Fatalf("After fired at %v, want 15", at)
	}
}

func TestCancel(t *testing.T) {
	s := New()
	fired := false
	h := s.At(1, func() { fired = true })
	h.Cancel()
	if !h.Cancelled() {
		t.Fatal("Cancelled() false after Cancel")
	}
	s.RunAll()
	if fired {
		t.Fatal("cancelled event fired")
	}
	// Cancelling twice is a no-op.
	h.Cancel()
}

func TestDeadline(t *testing.T) {
	s := New()
	var got []Time
	for _, tt := range []Time{1, 2, 3, 4, 5} {
		tt := tt
		s.At(tt, func() { got = append(got, tt) })
	}
	n := s.Run(3)
	if n != 3 || len(got) != 3 {
		t.Fatalf("Run(3) fired %d events: %v", n, got)
	}
	// Remaining events still fire on a later Run.
	s.Run(10)
	if len(got) != 5 {
		t.Fatalf("second Run left events: %v", got)
	}
}

func TestIdleClockAdvancesToDeadline(t *testing.T) {
	s := New()
	s.Run(7)
	if s.Now() != 7 {
		t.Fatalf("idle Run left Now at %v", s.Now())
	}
	// Scheduling after an idle Run must not go backwards.
	fired := false
	s.After(1, func() { fired = true })
	s.Run(10)
	if !fired || s.Now() != 10 {
		t.Fatalf("post-idle event handling broken: fired=%v now=%v", fired, s.Now())
	}
}

func TestHalt(t *testing.T) {
	s := New()
	count := 0
	s.At(1, func() { count++; s.Halt() })
	s.At(2, func() { count++ })
	s.RunAll()
	if count != 1 {
		t.Fatalf("Halt did not stop run, count = %d", count)
	}
	// A subsequent Run resumes.
	s.RunAll()
	if count != 2 {
		t.Fatalf("resume after Halt failed, count = %d", count)
	}
}

func TestSchedulingDuringRun(t *testing.T) {
	s := New()
	var got []Time
	s.At(1, func() {
		got = append(got, s.Now())
		s.At(1.5, func() { got = append(got, s.Now()) })
		s.After(0, func() { got = append(got, s.Now()) }) // same-time event
	})
	s.At(2, func() { got = append(got, s.Now()) })
	s.RunAll()
	want := []Time{1, 1, 1.5, 2}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestPastSchedulingPanics(t *testing.T) {
	s := New()
	s.At(5, func() {})
	s.RunAll()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic scheduling in the past")
		}
	}()
	s.At(1, func() {})
}

func TestFiredAndPending(t *testing.T) {
	s := New()
	s.At(1, func() {})
	s.At(2, func() {})
	if s.Pending() != 2 {
		t.Fatalf("Pending = %d", s.Pending())
	}
	s.RunAll()
	if s.Fired() != 2 || s.Pending() != 0 {
		t.Fatalf("Fired=%d Pending=%d", s.Fired(), s.Pending())
	}
}

func TestManyEventsStress(t *testing.T) {
	s := New()
	const n = 100000
	count := 0
	for i := 0; i < n; i++ {
		s.At(Time(i%997), func() { count++ })
	}
	s.RunAll()
	if count != n {
		t.Fatalf("fired %d of %d", count, n)
	}
}

func TestCancelAfterFireReportsFalse(t *testing.T) {
	// Regression: cancelling an event that already ran used to mark it
	// dead and report Cancelled()==true even though it fired.
	s := New()
	fired := false
	h := s.At(1, func() { fired = true })
	s.RunAll()
	h.Cancel()
	if !fired {
		t.Fatal("event did not fire")
	}
	if h.Cancelled() {
		t.Fatal("Cancelled() true for an event that ran")
	}
}

func TestCancelReapsEagerly(t *testing.T) {
	s := New()
	h := s.At(1, func() {})
	s.At(2, func() {})
	if s.Pending() != 2 {
		t.Fatalf("Pending = %d", s.Pending())
	}
	h.Cancel()
	if s.Pending() != 1 {
		t.Fatalf("Pending = %d after Cancel, want 1 (eager reap)", s.Pending())
	}
	if n := s.RunAll(); n != 1 {
		t.Fatalf("fired %d events, want 1", n)
	}
}

func TestDoubleCancelSafe(t *testing.T) {
	s := New()
	fired := 0
	h := s.At(1, func() { fired++ })
	h.Cancel()
	h.Cancel() // second cancel must not touch the (recycled) event
	// The recycled struct is reused by the next At; the stale handle must
	// not be able to cancel the new occupant.
	s.At(1, func() { fired++ })
	h.Cancel()
	if !h.Cancelled() {
		t.Fatal("first Cancel not recorded")
	}
	s.RunAll()
	if fired != 1 {
		t.Fatalf("fired = %d, want 1 (only the second event)", fired)
	}
}

func TestStaleHandleAfterReuse(t *testing.T) {
	s := New()
	var order []int
	h1 := s.At(1, func() { order = append(order, 1) })
	s.RunAll()
	// h1's event struct is back on the free list; the next At reuses it.
	s.At(2, func() { order = append(order, 2) })
	h1.Cancel() // stale: must not cancel the reused event
	if h1.Cancelled() {
		t.Fatal("stale handle reported Cancelled")
	}
	s.RunAll()
	if len(order) != 2 {
		t.Fatalf("order = %v, want both events to fire", order)
	}
}

func TestSelfCancelInsideCallback(t *testing.T) {
	s := New()
	ran := false
	var h Handle
	h = s.At(1, func() {
		h.Cancel() // cancelling the running event is a no-op
		ran = true
	})
	s.At(2, func() {})
	s.RunAll()
	if !ran {
		t.Fatal("callback did not run")
	}
	if h.Cancelled() {
		t.Fatal("self-cancel of a running event reported Cancelled")
	}
	if s.Fired() != 2 {
		t.Fatalf("Fired = %d, want 2", s.Fired())
	}
}

func TestCancelDuringRunOfLaterEvent(t *testing.T) {
	s := New()
	fired := 0
	var h Handle
	s.At(1, func() { h.Cancel() })
	h = s.At(2, func() { fired++ })
	s.At(3, func() { fired++ })
	s.RunAll()
	if fired != 1 {
		t.Fatalf("fired = %d, want 1 (t=2 cancelled from t=1)", fired)
	}
	if !h.Cancelled() {
		t.Fatal("cancel during run not recorded")
	}
}

func TestScheduleAllocFree(t *testing.T) {
	// Steady-state schedule+run must not allocate: event structs recycle
	// through the free list.
	s := New()
	nop := func() {}
	s.After(1, nop)
	s.RunAll() // warm the pool
	allocs := testing.AllocsPerRun(200, func() {
		h := s.After(0.5, nop)
		s.After(1, nop)
		h.Cancel()
		s.RunAll()
	})
	if allocs != 0 {
		t.Fatalf("schedule/cancel/run allocated %v per run, want 0", allocs)
	}
}

func BenchmarkScheduleAndRun(b *testing.B) {
	s := New()
	for i := 0; i < b.N; i++ {
		s.After(Time(i%100)*0.001, func() {})
		if i%1024 == 0 {
			s.RunAll()
		}
	}
	s.RunAll()
}

// BenchmarkEventChurn measures the schedule/cancel/drain cycle the CSMA
// layer produces: per op, two timers armed, one cancelled, with periodic
// drains. Pre-PR baseline (heap-allocated events, lazy dead-entry reaping):
// 809 ns/op, 96 B/op, 2 allocs/op.
func BenchmarkEventChurn(b *testing.B) {
	s := New()
	nop := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h1 := s.After(0.001, nop)
		h2 := s.After(0.002, nop)
		h2.Cancel()
		_ = h1
		if i%1024 == 1023 {
			s.RunAll()
		}
	}
	s.RunAll()
}

func TestBulkThenRunAllocFree(t *testing.T) {
	// A warmed round-shaped cycle — a bulk schedule before Run, callbacks
	// arming near-future events, a deadline that leaves part of the sorted
	// run behind, then a second bulk merged into it — must not allocate:
	// the staging, run and merge buffers rotate and keep their capacity.
	s := New()
	nop := func() {}
	arm := func() { s.After(0.001, nop) }
	var hs [64]Handle
	cycle := func() {
		t0 := s.Now()
		for i := 0; i < 500; i++ {
			h := s.At(t0+Time(i%37)*0.01, arm)
			if i%8 == 0 {
				hs[i/8] = h
			}
		}
		for i := range hs {
			if i%3 == 0 {
				hs[i].Cancel()
			}
		}
		s.Run(t0 + 0.2)
		for i := 0; i < 100; i++ {
			s.At(s.Now()+Time(i%11)*0.02, arm)
		}
		s.RunAll()
	}
	for i := 0; i < 4; i++ {
		cycle() // grow every rotating buffer
	}
	if allocs := testing.AllocsPerRun(50, cycle); allocs != 0 {
		t.Fatalf("bulk/run cycle allocated %v per run, want 0", allocs)
	}
}

// kernel is the surface the differential script drives: Sim's methods,
// plus schedule, whose cancel func reports whether that call cancelled a
// live event.
type kernel interface {
	Now() Time
	Run(deadline Time) uint64
	Reset()
	Halt()
	Pending() int
	Fired() uint64
	schedule(t Time, fn func()) (cancel func() bool)
}

type simKernel struct{ *Sim }

func (k simKernel) schedule(t Time, fn func()) func() bool {
	h := k.At(t, fn)
	return func() bool {
		was := h.Cancelled()
		h.Cancel()
		return h.Cancelled() && !was
	}
}

// refSim is the differential reference for the two-tier queue: it keeps
// every scheduled event in one list and, for each pop, sorts the live
// (at, seq) pairs and takes the first. Clock and deadline rules mirror
// Sim.Run.
type refSim struct {
	now    Time
	seq    uint64
	evs    []*refEvent
	halted bool
	fired  uint64
}

type refEvent struct {
	at   Time
	seq  uint64
	fn   func()
	live bool
}

func (r *refSim) Now() Time     { return r.now }
func (r *refSim) Halt()         { r.halted = true }
func (r *refSim) Fired() uint64 { return r.fired }

func (r *refSim) schedule(t Time, fn func()) func() bool {
	e := &refEvent{at: t, seq: r.seq, fn: fn, live: true}
	r.seq++
	r.evs = append(r.evs, e)
	return func() bool {
		was := e.live
		e.live = false
		return was
	}
}

func (r *refSim) Pending() int {
	n := 0
	for _, e := range r.evs {
		if e.live {
			n++
		}
	}
	return n
}

func (r *refSim) Run(deadline Time) uint64 {
	start := r.fired
	r.halted = false
	for !r.halted {
		var live []*refEvent
		for _, e := range r.evs {
			if e.live {
				live = append(live, e)
			}
		}
		sort.Slice(live, func(i, j int) bool {
			if live[i].at != live[j].at {
				return live[i].at < live[j].at
			}
			return live[i].seq < live[j].seq
		})
		if len(live) == 0 || live[0].at > deadline {
			break
		}
		e := live[0]
		e.live = false
		r.now = e.at
		r.fired++
		e.fn()
	}
	if r.now < deadline && r.Pending() == 0 && !math.IsInf(float64(deadline), 1) {
		r.now = deadline
	}
	return r.fired - start
}

func (r *refSim) Reset() {
	for _, e := range r.evs {
		e.live = false
	}
	r.now, r.seq, r.fired, r.halted = 0, 0, 0, false
}

// diffTrace drives k through a random script and returns a transcript of
// everything observable: fire order, cancel outcomes, clock, pending and
// fired counts. Times come from a coarse grid often enough that staged
// entries, callback entries and entries left behind by a deadline tie
// exactly, so the seq tie-break decides between tiers.
func diffTrace(seed uint64, k kernel) []string {
	rnd := rand.New(rand.NewPCG(seed, 1))
	var out []string
	var cancels []func() bool
	nextID := 0
	when := func(r *rand.Rand, span Time) Time {
		now := k.Now()
		switch r.IntN(4) {
		case 0:
			return now // same instant
		case 1:
			return Time(math.Ceil(float64(now)*4)/4) + Time(r.IntN(int(span*4)+1))/4 // grid tie
		default:
			return now + Time(r.Float64())*span
		}
	}
	var schedule func(r *rand.Rand, span Time)
	schedule = func(r *rand.Rand, span Time) {
		id := nextID
		nextID++
		cancels = append(cancels, k.schedule(when(r, span), func() {
			out = append(out, fmt.Sprintf("fire %d @%v", id, k.Now()))
			cr := rand.New(rand.NewPCG(seed, uint64(id)+2))
			for n := cr.IntN(3); n > 0 && nextID < 4000; n-- {
				schedule(cr, 0.5) // MAC-like near-future events
			}
			if cr.IntN(5) == 0 {
				i := cr.IntN(len(cancels))
				out = append(out, fmt.Sprintf("  cancel %d: %v", i, cancels[i]()))
			}
			if cr.IntN(40) == 0 {
				k.Halt()
			}
		}))
	}
	for step := 0; step < 12; step++ {
		for n := rnd.IntN(60); n > 0; n-- {
			schedule(rnd, 5) // bulk, before Run
		}
		for n := rnd.IntN(6); n > 0 && len(cancels) > 0; n-- {
			i := rnd.IntN(len(cancels)) // staged, sorted-run, heap or stale
			out = append(out, fmt.Sprintf("cancel %d: %v", i, cancels[i]()))
		}
		switch rnd.IntN(6) {
		case 0:
			k.Run(Time(math.Inf(1)))
		case 1:
			k.Reset()
			out = append(out, "reset")
			continue
		default:
			k.Run(k.Now() + Time(rnd.IntN(12))/4) // leaves entries behind
		}
		out = append(out, fmt.Sprintf("run -> now %v pending %d fired %d", k.Now(), k.Pending(), k.Fired()))
	}
	k.Run(Time(math.Inf(1)))
	out = append(out, fmt.Sprintf("drain -> now %v pending %d fired %d", k.Now(), k.Pending(), k.Fired()))
	return out
}

func TestTwoTierMatchesReference(t *testing.T) {
	for seed := uint64(0); seed < 300; seed++ {
		got := diffTrace(seed, simKernel{New()})
		want := diffTrace(seed, &refSim{})
		if len(got) != len(want) {
			t.Fatalf("seed %d: transcript length %d, reference %d", seed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d line %d: got %q, reference %q", seed, i, got[i], want[i])
			}
		}
	}
}

// BenchmarkRoundShape measures a protocol round: about 2,000 sends are
// scheduled before Run at uniform times over a one-second window, and
// every fired event arms 0–2 events a few milliseconds ahead, up to a
// chain depth of four, as the MAC's attempts, end-of-air, ACKs and ARQ
// timeouts do. It reports ns per fired event.
func BenchmarkRoundShape(b *testing.B) {
	const sends, maxDepth = 2000, 4
	s := New()
	r := rand.New(rand.NewPCG(7, 7))
	offsets := make([]Time, sends)
	for i := range offsets {
		offsets[i] = Time(r.Float64())
	}
	x := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 { // xorshift: cheap, allocation-free
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	var fns [maxDepth + 1]func()
	for d := range fns {
		d := d
		fns[d] = func() {
			if d == maxDepth {
				return
			}
			for n := next() % 3; n > 0; n-- {
				s.After(Time(500+next()%2500)*1e-6, fns[d+1])
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	var events uint64
	for i := 0; i < b.N; i++ {
		t0 := s.Now()
		for _, o := range offsets {
			s.At(t0+o, fns[0])
		}
		events += s.RunAll()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
}
