package main

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"github.com/ipda-sim/ipda/internal/aggregate"
	"github.com/ipda-sim/ipda/internal/core"
	"github.com/ipda-sim/ipda/internal/energy"
	"github.com/ipda-sim/ipda/internal/eventsim"
	"github.com/ipda-sim/ipda/internal/fault"
	"github.com/ipda-sim/ipda/internal/mac"
	"github.com/ipda-sim/ipda/internal/radio"
	"github.com/ipda-sim/ipda/internal/rng"
	"github.com/ipda-sim/ipda/internal/shard"
	"github.com/ipda-sim/ipda/internal/stream"
	"github.com/ipda-sim/ipda/internal/tag"
	"github.com/ipda-sim/ipda/internal/topology"
	"github.com/ipda-sim/ipda/internal/world"
)

// counts are simulated counters summed over ops. Every field is a
// deterministic function of the seed and the op indices run.
type counts struct {
	events                                                    uint64
	frames, bytes, delivered, collided                        uint64
	macEnqueued, macSent, macRetries, macDropped, macDeferred uint64
	setups, phase1Frames                                      uint64
	rounds, roundsAccepted                                    uint64
	firings, firingsAccepted, repairs                         uint64
	regions                                                   uint64
}

func (c *counts) add(o counts) {
	c.events += o.events
	c.frames += o.frames
	c.bytes += o.bytes
	c.delivered += o.delivered
	c.collided += o.collided
	c.macEnqueued += o.macEnqueued
	c.macSent += o.macSent
	c.macRetries += o.macRetries
	c.macDropped += o.macDropped
	c.macDeferred += o.macDeferred
	c.setups += o.setups
	c.phase1Frames += o.phase1Frames
	c.rounds += o.rounds
	c.roundsAccepted += o.roundsAccepted
	c.firings += o.firings
	c.firingsAccepted += o.firingsAccepted
	c.repairs += o.repairs
	c.regions += o.regions
}

// stack counts the radio, MAC and event-queue work between two snapshots
// of one simulated world.
type stack struct {
	sim   *eventsim.Sim
	med   *radio.Medium
	mac   *mac.MAC
	fired uint64
	rs    radio.Stats
	ms    mac.Stats
}

func snap(sim *eventsim.Sim, med *radio.Medium, m *mac.MAC) stack {
	return stack{sim: sim, med: med, mac: m, fired: sim.Fired(), rs: med.Stats(), ms: m.Stats()}
}

// since adds the work done since the snapshot to c and d.
func (s stack) since(c *counts, d *digest) {
	rs, ms := s.med.Stats(), s.mac.Stats()
	o := counts{
		events:      s.sim.Fired() - s.fired,
		frames:      rs.FramesSent - s.rs.FramesSent,
		bytes:       rs.BytesSent - s.rs.BytesSent,
		delivered:   rs.FramesDelivered - s.rs.FramesDelivered,
		collided:    rs.FramesCollided - s.rs.FramesCollided,
		macEnqueued: ms.Enqueued - s.ms.Enqueued,
		macSent:     ms.Sent - s.ms.Sent,
		macRetries:  ms.Retries - s.ms.Retries,
		macDropped:  ms.Dropped - s.ms.Dropped,
		macDeferred: ms.Deferred - s.ms.Deferred,
	}
	d.u(o.events, o.frames, o.bytes, o.delivered, o.collided,
		o.macEnqueued, o.macSent, o.macRetries, o.macDropped, o.macDeferred,
		ms.AcksSent-s.ms.AcksSent, ms.Duplicates-s.ms.Duplicates)
	c.add(o)
}

// opResult is what one op reports besides its wall time.
type opResult struct {
	setup  time.Duration // world construction inside the op
	counts counts
	// failed lists the ops (by index) whose correctness checks failed;
	// stream-day checks a day's firings when the day closes, so an op can
	// report failures of earlier ops of its day.
	failed []int
	err    error
}

// workload is one seeded op stream. Op i is a deterministic function of
// (seed, i); ops run in index order.
type workload interface {
	// op runs op i, folding its simulated statistics into d.
	op(i int, sp *spans, d *digest) opResult
	// setupInOp reports whether an op's wall time includes the world
	// construction it performs (false: set-up is timed separately).
	setupInOp() bool
	// close ends the op stream after the last op and checks what remains
	// open; verify then re-runs checked work on fresh worlds and reports
	// the ops whose outcomes disagree or break an invariant.
	close() []int
	verify() (verdict, error)
}

// verdict is the outcome of a workload's verify pass.
type verdict struct {
	failed []int
	// prefix holds counts only the replay observes (stream-day's
	// per-round verdicts), to be added to the prefix's counts.
	prefix counts
}

// blockOps is each workload's block: the fewest consecutive ops with a
// fixed mix of work (a whole metering day; ten trials at each network
// size; two fields). Block 0 is the pinned prefix: it runs before timing
// starts (warming caches), its digest is pinned for the default seed, and
// the exact count metrics are taken over it alone so they repeat bit for
// bit however many ops a run's time allows. The timed window reports
// rates over its whole blocks.
var blockOps = map[string]int{"stream-day": dayEpochs, "paper-sweep": 10 * len(sweepSizes), "scale-hier": 2}

var workloadNames = []string{"stream-day", "paper-sweep", "scale-hier"}

func newWorkload(name string, seed uint64) (workload, error) {
	switch name {
	case "stream-day":
		return &streamDay{root: rng.New(seed), arena: world.New()}, nil
	case "paper-sweep":
		return &paperSweep{root: rng.New(seed), arena: world.New()}, nil
	case "scale-hier":
		return &scaleHier{root: rng.New(seed), arena: world.New()}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// ---- stream-day: one N=400 deployment per 96-epoch metering day --------

const (
	dayEpochs     = 96
	dayInterval   = 900.0
	epochsPerHour = 4
	streamNodes   = 400
)

type streamDay struct {
	root  *rng.Stream
	arena *world.Arena
	in    *core.Instance
	p     *stream.Pipeline
	day   int
	days  []dayRecord // every day run, for the replay in verify
}

// dayRecord keeps a day's pipeline outcomes for the replay check.
type dayRecord struct {
	epochs  int
	firings []stream.QueryOutcome
}

func readingFn(id, epoch int) int64 { return stream.DiurnalLoad(id, float64(epoch)/epochsPerHour) }

// buildDay deploys day d's world exactly as the -exp stream experiment
// shapes it: paper density, 1% crash churn with repair, an energy meter.
func (w *streamDay) buildDay(arena *world.Arena, d int, sp *spans) (*core.Instance, *energy.Meter, error) {
	rs := w.root.Split(uint64(d) + 1)
	id := sp.begin("deploy")
	net, err := arena.Deploy(topology.PaperConfig(streamNodes), rs.Split(1))
	sp.end(id)
	if err != nil {
		return nil, nil, err
	}
	cfg := core.DefaultConfig()
	cfg.Repair = true
	cfg.Faults = &fault.Config{CrashRate: 0.01, RecoverRate: 0.3, Seed: rs.Split(2).Uint64()}
	id = sp.begin("phase1.core")
	in, err := arena.Core("stream", net, cfg, rs.Split(3).Uint64())
	sp.end(id)
	if err != nil {
		return nil, nil, err
	}
	meter, err := energy.NewMeter(net.N(), energy.DefaultModel())
	return in, meter, err
}

func (w *streamDay) setupInOp() bool { return false }

func (w *streamDay) op(i int, sp *spans, d *digest) opResult {
	var r opResult
	if e := i % dayEpochs; e == 0 {
		t0 := time.Now()
		w.day = i / dayEpochs
		in, meter, err := w.buildDay(w.arena, w.day, sp)
		if err != nil {
			return opResult{err: err}
		}
		id := sp.begin("stream.new")
		p, err := stream.New(in, stream.Config{
			Epochs:   dayEpochs,
			Interval: dayInterval,
			Queries:  stream.DayQueries(epochsPerHour),
			Readings: readingFn,
			Meter:    meter,
		})
		sp.end(id)
		if err != nil {
			return opResult{err: err}
		}
		w.in, w.p = in, p
		r.setup = time.Since(t0)
		r.counts.setups = 1
		r.counts.phase1Frames = in.Medium.Stats().FramesSent
		w.days = append(w.days, dayRecord{})
	}
	before := snap(w.in.Sim, w.in.Medium, w.in.MAC)
	rounds := w.in.Rounds()
	id := sp.begin("step")
	err := w.p.Step()
	sp.end(id)
	if err != nil {
		r.err = err
		return r
	}
	before.since(&r.counts, d)
	r.counts.rounds = w.in.Rounds() - rounds
	d.u(r.counts.rounds)
	w.days[len(w.days)-1].epochs++
	if w.p.Epoch() == dayEpochs {
		id := sp.begin("finish")
		r.failed = w.closeDay(d, &r.counts)
		sp.end(id)
	}
	return r
}

// closeDay finishes the current day's pipeline, folds its result into
// the digest, and checks every firing against the query schedule and the
// pipeline's own accounting. It returns the op indices of failed firings.
func (w *streamDay) closeDay(d *digest, c *counts) []int {
	res := w.p.Finish()
	rec := &w.days[len(w.days)-1]
	rec.firings = append([]stream.QueryOutcome(nil), res.Queries...)
	d.i(res.Readings, int64(res.Accepted), int64(res.Rejected))
	d.u(res.Bytes, res.Frames, res.Rounds, res.Era)
	d.f(res.Joules)
	var failed []int
	fail := func(epoch int) { failed = append(failed, w.day*dayEpochs+epoch) }
	want := scheduledFirings(rec.epochs)
	if len(rec.firings) != len(want) {
		// The schedule itself broke: blame every epoch of the day.
		for e := 0; e < rec.epochs; e++ {
			fail(e)
		}
		return failed
	}
	accepted := 0
	for k, q := range rec.firings {
		digestFiring(d, q)
		c.firings++
		c.repairs += uint64(q.Repaired)
		if q.Accepted {
			c.firingsAccepted++
			accepted++
		}
		if q.Epoch != want[k][0] || q.Query != want[k][1] || !firingConsistent(q) {
			fail(q.Epoch)
		}
	}
	if accepted != res.Accepted || len(rec.firings)-accepted != res.Rejected {
		fail(rec.epochs - 1)
	}
	return failed
}

func digestFiring(d *digest, q stream.QueryOutcome) {
	d.i(int64(q.Epoch), int64(q.Query), int64(q.Participants), int64(q.RedContributed), int64(q.BlueContributed),
		int64(q.Dead), int64(q.Skipped), int64(q.Repaired))
	d.b(q.Accepted, q.NoData)
	d.u(q.Bytes)
	d.f(q.Value)
	d.f(q.Latencies...)
}

// firingConsistent checks one firing's own accounting: a data-less firing
// is never accepted, and no tree counts more contributors than nodes that
// sliced, nor more participants than the deployment has sensors.
func firingConsistent(q stream.QueryOutcome) bool {
	if q.NoData {
		return !q.Accepted
	}
	return q.RedContributed <= q.Participants && q.BlueContributed <= q.Participants &&
		q.Participants <= streamNodes && !math.IsNaN(q.Value)
}

// scheduledFirings lists the (epoch, query) firings DayQueries makes in
// the first epochs of a day: a query fires iff e >= Phase, (e-Phase) is a
// multiple of Period, and a full window of readings exists.
func scheduledFirings(epochs int) [][2]int {
	var out [][2]int
	qs := stream.DayQueries(epochsPerHour)
	for e := 0; e < epochs; e++ {
		for qi, q := range qs {
			if e >= q.Phase && (e-q.Phase)%q.Period == 0 && e+1 >= q.Window {
				out = append(out, [2]int{e, qi})
			}
		}
	}
	return out
}

func (w *streamDay) close() []int {
	if w.p == nil || w.p.Epoch() == dayEpochs {
		return nil
	}
	var c counts
	return w.closeDay(newDigest(), &c)
}

// verify replays every day that ran on a freshly built world (no arena
// reuse), driving core.Instance.Run directly with the pipeline's window
// folds. Each replayed firing must equal the pipeline's, and every
// accepted firing's rounds must satisfy |S_b - S_r| <= Th. Days are
// independent worlds, so the replay runs on GOMAXPROCS goroutines; it
// starts after the timed window and does not overlap it.
func (w *streamDay) verify() (verdict, error) {
	type replay struct {
		rounds uint64
		failed []int
		err    error
	}
	out := make([]replay, len(w.days))
	days := make(chan int)
	var wg sync.WaitGroup
	for range runtime.GOMAXPROCS(0) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for day := range days {
				r := &out[day]
				r.rounds, r.err = w.replayDay(day, w.days[day], func(epoch int) { r.failed = append(r.failed, day*dayEpochs+epoch) })
			}
		}()
	}
	for day := range w.days {
		days <- day
	}
	close(days)
	wg.Wait()
	var v verdict
	for day, r := range out {
		if r.err != nil {
			return v, r.err
		}
		v.failed = append(v.failed, r.failed...)
		if day == 0 {
			v.prefix.roundsAccepted = r.rounds
		}
	}
	return v, nil
}

func (w *streamDay) replayDay(day int, rec dayRecord, fail func(epoch int)) (acceptedRounds uint64, err error) {
	in, meter, err := w.buildDay(nil, day, nil)
	if err != nil {
		return 0, err
	}
	in.Medium.SetMeter(meter)
	qs := stream.DayQueries(epochsPerHour)
	maxWin := 1
	for _, q := range qs {
		if q.Kind == aggregate.Min {
			return 0, errors.New("replay: Min window folds are not modeled")
		}
		maxWin = max(maxWin, q.Window)
	}
	n := in.Net.N()
	hist := make([][]int64, maxWin)
	for i := range hist {
		hist[i] = make([]int64, n)
	}
	windowed := make([]int64, n)
	t0 := in.Sim.Now()
	k := 0
	for e := 0; e < rec.epochs; e++ {
		if at := t0 + eventsim.Time(float64(e)*dayInterval); in.Sim.Now() < at {
			in.Sim.Run(at)
		}
		for i := 1; i < n; i++ {
			hist[e%maxWin][i] = readingFn(i, e)
		}
		for qi, q := range qs {
			if e < q.Phase || (e-q.Phase)%q.Period != 0 || e+1 < q.Window {
				continue
			}
			for i := 1; i < n; i++ {
				acc := hist[e%maxWin][i]
				for j := 1; j < q.Window; j++ {
					v := hist[(e-j)%maxWin][i]
					if q.Kind == aggregate.Max {
						acc = max(acc, v)
					} else {
						acc += v
					}
				}
				windowed[i] = acc
			}
			spec := aggregate.SpecFor(q.Kind)
			if q.Power != 0 {
				spec.Power = q.Power
			}
			if q.Normal != 0 {
				spec.Normal = q.Normal
			}
			res, err := in.Run(spec, windowed)
			var got stream.QueryOutcome
			switch {
			case errors.Is(err, aggregate.ErrNoData):
				got = stream.QueryOutcome{Epoch: e, Query: qi, NoData: true}
			case err != nil:
				return acceptedRounds, fmt.Errorf("replay day %d epoch %d: %w", day, e, err)
			default:
				got = stream.QueryOutcome{Epoch: e, Query: qi, Accepted: res.Accepted, Value: res.Value}
				ok := true
				for _, ro := range res.Outcomes {
					got.Bytes += ro.Bytes
					got.Participants = ro.Participants
					got.RedContributed, got.BlueContributed = ro.RedContributed, ro.BlueContributed
					got.Dead, got.Skipped, got.Repaired = ro.Dead, ro.Skipped, ro.Repaired
					got.Latencies = append(got.Latencies, ro.Latency)
					if ro.Diff() <= in.Cfg.Threshold {
						acceptedRounds++
					} else {
						ok = false
					}
				}
				if res.Accepted != ok {
					fail(e)
				}
			}
			if k >= len(rec.firings) || !sameFiring(got, rec.firings[k]) {
				fail(e)
			}
			k++
		}
	}
	if k != len(rec.firings) {
		fail(rec.epochs - 1)
	}
	return acceptedRounds, nil
}

func sameFiring(a, b stream.QueryOutcome) bool {
	if a.Epoch != b.Epoch || a.Query != b.Query || a.Accepted != b.Accepted || a.NoData != b.NoData ||
		a.Value != b.Value || a.Participants != b.Participants ||
		a.RedContributed != b.RedContributed || a.BlueContributed != b.BlueContributed ||
		a.Dead != b.Dead || a.Skipped != b.Skipped || a.Repaired != b.Repaired ||
		a.Bytes != b.Bytes || len(a.Latencies) != len(b.Latencies) {
		return false
	}
	for i := range a.Latencies {
		if a.Latencies[i] != b.Latencies[i] {
			return false
		}
	}
	return true
}

// ---- paper-sweep: the fig7 trial shape, N cycling over 200/400/600 ----

var sweepSizes = []int{200, 400, 600}

// coreSlots names the arena slot of each iPDA slice count.
var coreSlots = [...]string{1: "l1", 2: "l2"}

type paperSweep struct {
	root    *rng.Stream
	arena   *world.Arena
	digests []string // per-op digests of the prefix, for verify
}

func (w *paperSweep) setupInOp() bool { return true }

func (w *paperSweep) op(i int, sp *spans, d *digest) opResult {
	var r opResult
	od := newDigest()
	bad, err := w.trial(w.arena, i, sp, od, &r)
	if err != nil {
		return opResult{err: err}
	}
	if bad {
		r.failed = []int{i}
	}
	if i < verifyTrials {
		w.digests = append(w.digests, od.hex())
	}
	d.u(od.h.Sum64())
	return r
}

// verifyTrials is how many leading paper-sweep trials verify re-runs on
// fresh worlds: one per network size.
const verifyTrials = 3

// trial builds TAG, iPDA l=1 and iPDA l=2 over one fresh deployment and
// runs one COUNT round on each. It reports whether any correctness check
// failed.
func (w *paperSweep) trial(arena *world.Arena, i int, sp *spans, d *digest, r *opResult) (bool, error) {
	n := sweepSizes[i%len(sweepSizes)]
	rs := w.root.Split(uint64(i) + 1)
	bad := false
	t0 := time.Now()
	id := sp.begin("deploy")
	net, err := arena.Deploy(topology.PaperConfig(n), rs.Split(1))
	sp.end(id)
	if err != nil {
		return false, err
	}
	r.setup += time.Since(t0)
	d.i(int64(n))

	t0 = time.Now()
	id = sp.begin("phase1.tag")
	tg, err := arena.Tag("tag", net, tag.DefaultConfig(), rs.Split(2).Uint64())
	sp.end(id)
	if err != nil {
		return false, err
	}
	r.setup += time.Since(t0)
	r.counts.setups++
	r.counts.phase1Frames += tg.Medium.Stats().FramesSent
	before := stack{sim: tg.Sim, med: tg.Medium, mac: tg.MAC} // Reset zeroed the counters: count Phase I too
	id = sp.begin("round.tag")
	tres, err := tg.RunCount()
	sp.end(id)
	if err != nil {
		return false, err
	}
	before.since(&r.counts, d)
	if len(tres.Outcomes) != 1 {
		bad = true
	}
	for _, o := range tres.Outcomes {
		d.i(o.Sum, int64(o.Count), int64(o.Participants))
		d.u(o.Bytes, o.Frames)
		d.f(o.Latency)
		if o.Sum < 0 || o.Sum > int64(n) || o.Participants > n || float64(o.Sum) != tres.Value {
			bad = true
		}
	}

	for _, l := range []int{1, 2} {
		cfg := core.DefaultConfig()
		cfg.Slices = l
		t0 = time.Now()
		id = sp.begin("phase1.core")
		in, err := arena.Core(coreSlots[l], net, cfg, rs.Split(uint64(10+l)).Uint64())
		sp.end(id)
		if err != nil {
			return false, err
		}
		r.setup += time.Since(t0)
		r.counts.setups++
		r.counts.phase1Frames += in.Medium.Stats().FramesSent
		before := stack{sim: in.Sim, med: in.Medium, mac: in.MAC}
		dropped := in.MAC.Stats().Dropped
		id = sp.begin("round.core")
		res, err := in.RunCount()
		sp.end(id)
		if err != nil {
			return false, err
		}
		before.since(&r.counts, d)
		lossless := in.MAC.Stats().Dropped == dropped
		if !countRoundOK(res, cfg.Threshold, n, lossless, d, &r.counts) {
			bad = true
		}
	}
	return bad, nil
}

// countRoundOK checks one iPDA COUNT query: its verdict is exactly the
// |S_b - S_r| <= Th rule and an accepted value is the red total. When the
// MAC dropped no frame during the round (lossless), sums are conserved:
// each tree total equals its contributor count, as each contributor adds
// 1. A frame dropped after its retry limit breaks conservation by design:
// a lost Phase III aggregate takes its subtree's count with it, and a
// lost slice leaves its sender's other shares in the totals; the verdict
// is what catches that.
func countRoundOK(res *core.Result, th int64, n int, lossless bool, d *digest, c *counts) bool {
	d.b(res.Accepted)
	d.f(res.Value)
	ok := len(res.Outcomes) == 1
	for _, o := range res.Outcomes {
		d.i(o.Red, o.Blue, int64(o.RedCount), int64(o.BlueCount), int64(o.Participants),
			int64(o.RedContributed), int64(o.BlueContributed), int64(o.Dead), int64(o.Skipped), int64(o.Repaired))
		d.u(o.Bytes, o.Frames)
		d.f(o.Latency)
		c.rounds++
		accepted := o.Diff() <= th
		if accepted {
			c.roundsAccepted++
		}
		conserved := o.Red == int64(o.RedContributed) && o.Blue == int64(o.BlueContributed)
		if accepted != res.Accepted || (lossless && !conserved) ||
			o.Participants > n || (res.Accepted && res.Value != float64(o.Red)) {
			ok = false
		}
	}
	return ok
}

func (w *paperSweep) close() []int { return nil }

// verify re-runs the leading trials without arena reuse: a reused world
// must give byte-identical outcomes to a freshly built one.
func (w *paperSweep) verify() (verdict, error) {
	var v verdict
	for i := range w.digests {
		od := newDigest()
		var r opResult
		bad, err := w.trial(nil, i, nil, od, &r)
		if err != nil {
			return v, err
		}
		if bad || od.hex() != w.digests[i] {
			v.failed = append(v.failed, i)
		}
	}
	return v, nil
}

// ---- scale-hier: a constant-density N=20000 field, sharded ----------

const (
	scaleNodes = 20000
	// hierShards is scale-hier's shard goroutine count: the workload's
	// closed-loop load keeps at most two goroutines busy.
	hierShards = 2
)

type scaleHier struct {
	root  *rng.Stream
	arena *world.Arena
	first *shard.HierOutcome // op 0's outcome, for verify
}

func (w *scaleHier) setupInOp() bool { return true }

// scaleConfig grows the paper's 400 m field with sqrt(n) so node density
// stays at the paper's N=400 operating point.
func scaleConfig(n int) topology.Config {
	return topology.Config{Nodes: n, FieldSide: 400 * math.Sqrt(float64(n+1)/401), Range: 50}
}

func (w *scaleHier) trial(arena *world.Arena, i, shards int, sp *spans) (shard.HierOutcome, *shard.Plan, time.Duration, error) {
	rs := w.root.Split(uint64(i) + 1)
	t0 := time.Now()
	id := sp.begin("deploy")
	net, err := arena.Deploy(scaleConfig(scaleNodes), rs.Split(1))
	sp.end(id)
	if err != nil {
		return shard.HierOutcome{}, nil, 0, err
	}
	id = sp.begin("plan")
	plan := shard.NewPlan(net, shard.DefaultRegions(scaleNodes))
	sp.end(id)
	setup := time.Since(t0)
	id = sp.begin("hier")
	out, err := shard.RunHier(plan, core.DefaultConfig(), rs.Split(2), shards, arena, nil)
	sp.end(id)
	return out, plan, setup, err
}

func (w *scaleHier) op(i int, sp *spans, d *digest) opResult {
	out, plan, setup, err := w.trial(w.arena, i, hierShards, sp)
	if err != nil {
		return opResult{err: err}
	}
	r := opResult{setup: setup}
	r.counts.setups = 1
	r.counts.frames = out.Frames
	r.counts.bytes = out.Bytes
	r.counts.regions = uint64(out.Regions)
	r.counts.rounds = uint64(out.Regions)
	r.counts.roundsAccepted = uint64(out.Accepted)
	digestHier(d, out)
	if !hierOK(out, plan, core.DefaultConfig().Threshold) {
		r.failed = []int{i}
	}
	if i == 0 {
		w.first = &out
	}
	return r
}

func digestHier(d *digest, o shard.HierOutcome) {
	d.i(int64(o.Regions), int64(o.Participants), o.Red, o.Blue, int64(o.Accepted))
	d.b(o.AllAccepted)
	d.u(o.Bytes, o.Frames)
}

// hierOK checks the backbone verdict: AllAccepted holds exactly when
// every region accepted and |S_b - S_r| <= Regions*Th, and every
// non-empty region ran.
func hierOK(o shard.HierOutcome, plan *shard.Plan, th int64) bool {
	nonEmpty := 0
	for _, m := range plan.Members {
		if len(m) > 0 {
			nonEmpty++
		}
	}
	slack := o.Diff() <= th*int64(o.Regions)
	return o.AllAccepted == (o.Accepted == o.Regions && slack) &&
		o.Regions == nonEmpty && o.Accepted <= o.Regions
}

func (w *scaleHier) close() []int { return nil }

// verify re-runs op 0 on one shard without arena reuse: sharding and
// world reuse must not change any simulated outcome.
func (w *scaleHier) verify() (verdict, error) {
	var v verdict
	out, _, _, err := w.trial(nil, 0, 1, nil)
	if err != nil {
		return v, err
	}
	if w.first == nil || out != *w.first {
		v.failed = []int{0}
	}
	return v, nil
}
