// Command perfbench is the simulator's end-to-end benchmark. It drives the
// simulator's layers through their Go APIs on one of three workloads,
// checks every simulated outcome, and prints the end-to-end metrics (or,
// with -trace 1, the per-layer metrics) as the last line of its output:
//
//	go run . -workload stream-day -seed 1 -seconds 10 -trace 0
//	go run . compare a.json b.json
//
// Load is closed-loop from this one process: each op starts when the
// previous one returns. Only scale-hier runs goroutines while timing (its
// shards); stream-day's replay check runs on goroutines after the window.
// pins.json pins the default seed's digests and exact counts and the
// fingerprint of the host baseline.json was measured on; baseline.json
// documents the workloads, the layer-to-metric map and that baseline.
package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

//go:embed pins.json
var pinsJSON []byte

// pins is the checked-in record in pins.json. Fingerprint is the host
// the baseline in baseline.json was measured on.
type pins struct {
	DefaultSeed uint64                  `json:"default_seed"`
	Fingerprint Fingerprint             `json:"fingerprint"`
	Workloads   map[string]workloadPins `json:"workloads"`
}

type workloadPins struct {
	Digest string             `json:"digest"`
	Exact  map[string]float64 `json:"exact"`
}

func loadPins() (pins, error) {
	var p pins
	if err := json.Unmarshal(pinsJSON, &p); err != nil {
		return p, fmt.Errorf("pins.json: %w", err)
	}
	return p, nil
}

// config is one benchmark run's settings.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	outDir   string
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is one run's result; its JSON form is the result file that
// compare reads.
type report struct {
	Workload    string            `json:"workload"`
	Seed        uint64            `json:"seed"`
	Seconds     float64           `json:"seconds"`
	Trace       bool              `json:"trace"`
	Fingerprint Fingerprint       `json:"fingerprint"`
	Correct     bool              `json:"correct"`
	Attempted   int               `json:"attempted"`
	Failed      int               `json:"failed"`
	Digest      string            `json:"digest"`
	Metrics     map[string]metric `json:"metrics"`
	// Exact holds the count metrics, which repeat bit for bit for a seed.
	Exact map[string]float64 `json:"exact"`
	// Info holds metrics printed for people but not gated: the tail
	// percentile (only where enough samples lie beyond it) and the
	// failed ratio.
	Info  map[string]metric `json:"info"`
	Notes []string          `json:"notes"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareCmd(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var c config
	var traceN int
	fs.StringVar(&c.workload, "workload", "stream-day", "workload: "+strings.Join(workloadNames, ", "))
	fs.Uint64Var(&c.seed, "seed", 1, "workload seed")
	fs.Float64Var(&c.seconds, "seconds", 10, "measured seconds")
	fs.IntVar(&traceN, "trace", 0, "1: traced run printing the per-layer metrics")
	fs.StringVar(&c.outDir, "out", ".bench_build/perfbench-out", "directory for result, span and profile files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if traceN != 0 && traceN != 1 {
		fmt.Fprintln(stderr, "perfbench: -trace must be 0 or 1")
		return 2
	}
	if c.seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: -seconds must be positive")
		return 2
	}
	c.trace = traceN == 1
	rep, err := bench(c, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := writeReport(c, rep); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, rep.Metrics})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// window is one timed stretch of ops.
type window struct {
	ops    int
	wall   time.Duration
	opMs   []float64
	setupS []float64
	// Totals over the window's whole blocks: ops, wall seconds, frames
	// and heap bytes allocated. Rates are taken over these totals because
	// the host's speed drifts over tens of seconds: a total averages the
	// drift, where a median of per-block rates follows whichever speed
	// most blocks saw.
	blocks, blockedOps        int
	blockedWall, blockedAlloc float64
	blockedFrames             uint64
	counts                    counts
	alloc                     uint64 // heap bytes allocated
	allocs                    uint64 // heap objects allocated
	pause                     time.Duration
	gcCPU                     float64 // GC share of process CPU
	heapMB                    float64 // peak in-use heap, sampled after each op (traced only)
}

// runState carries the op stream across a run's phases.
type runState struct {
	w      workload
	block  int
	next   int
	failed map[int]bool
	err    error // the first op error; it ends the run
}

// measure runs ops until seconds of wall time have passed.
func (s *runState) measure(seconds float64, sp *spans, sampleHeap bool) window {
	var win window
	var blockStart time.Time
	var blockFrames uint64
	blockAlloc := -1.0 // no whole block open yet
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	gc0, cpu0 := gcCPU()
	discard := newDigest() // only block 0 is pinned
	deadline := time.Duration(seconds * float64(time.Second))
	start := time.Now()
	for time.Since(start) < deadline && s.err == nil {
		i := s.next
		if sp != nil {
			sp.op = int32(i)
		}
		t0 := time.Now()
		if i%s.block == 0 {
			blockStart, blockFrames, blockAlloc = t0, 0, allocBytes()
		}
		root := sp.begin("op")
		r := s.w.op(i, sp, discard)
		el := time.Since(t0)
		sp.end(root)
		s.next++
		s.note(i, r)
		if r.err != nil {
			break
		}
		if !s.w.setupInOp() {
			el -= r.setup
		}
		win.ops++
		win.opMs = append(win.opMs, float64(el)/1e6)
		if r.counts.setups > 0 {
			win.setupS = append(win.setupS, r.setup.Seconds())
		}
		win.counts.add(r.counts)
		blockFrames += r.counts.frames
		if i%s.block == s.block-1 && blockAlloc >= 0 {
			win.blocks++
			win.blockedOps += s.block
			win.blockedWall += time.Since(blockStart).Seconds()
			win.blockedFrames += blockFrames
			win.blockedAlloc += allocBytes() - blockAlloc
		}
		if sampleHeap {
			win.heapMB = max(win.heapMB, heapInuseMB())
		}
	}
	win.wall = time.Since(start)
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	gc1, cpu1 := gcCPU()
	win.alloc = after.TotalAlloc - before.TotalAlloc
	win.allocs = after.Mallocs - before.Mallocs
	win.pause = time.Duration(after.PauseTotalNs - before.PauseTotalNs)
	if cpu1 > cpu0 {
		win.gcCPU = (gc1 - gc0) / (cpu1 - cpu0)
	}
	return win
}

func (s *runState) note(i int, r opResult) {
	if r.err != nil {
		s.failed[i] = true
		if s.err == nil {
			s.err = fmt.Errorf("op %d: %w", i, r.err)
		}
	}
	for _, f := range r.failed {
		s.failed[f] = true
	}
}

var gcSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/memory/classes/heap/objects:bytes"},
	{Name: "/memory/classes/heap/unused:bytes"},
	{Name: "/gc/heap/allocs:bytes"},
}

func gcCPU() (gc, total float64) {
	metrics.Read(gcSamples[:2])
	return gcSamples[0].Value.Float64(), gcSamples[1].Value.Float64()
}

// allocBytes is the cumulative heap bytes allocated by the process.
func allocBytes() float64 {
	metrics.Read(gcSamples[4:])
	return float64(gcSamples[4].Value.Uint64())
}

func heapInuseMB() float64 {
	metrics.Read(gcSamples[2:4])
	return float64(gcSamples[2].Value.Uint64()+gcSamples[3].Value.Uint64()) / (1 << 20)
}

// bench runs one workload: block 0 untimed, then the timed window (with
// -trace, an untraced and a traced half), then the end-of-run checks.
func bench(c config, stdout io.Writer) (*report, error) {
	pn, err := loadPins()
	if err != nil {
		return nil, err
	}
	w, err := newWorkload(c.workload, c.seed)
	if err != nil {
		return nil, err
	}
	rep := &report{
		Workload: c.workload, Seed: c.seed, Seconds: c.seconds, Trace: c.trace,
		Fingerprint: hostFingerprint(),
		Metrics:     map[string]metric{}, Exact: map[string]float64{}, Info: map[string]metric{},
	}
	fmt.Fprintf(stdout, "host: %s\n", rep.Fingerprint)
	if rep.Fingerprint != pn.Fingerprint {
		rep.Notes = append(rep.Notes, "host fingerprint differs from the baseline host in pins.json: baseline.json timings are not comparable")
	}

	// The prefix: fixed ops, untimed, pinned and counted.
	prefix := blockOps[c.workload]
	s := &runState{w: w, block: prefix, failed: map[int]bool{}}
	d := newDigest()
	var pc counts
	for s.next < prefix && s.err == nil {
		r := w.op(s.next, nil, d)
		s.note(s.next, r)
		pc.add(r.counts)
		s.next++
	}
	rep.Digest = d.hex()

	runtime.GC()
	var untraced, traced window
	var sp *spans
	var shares map[string]float64
	if !c.trace {
		untraced = s.measure(c.seconds, nil, false)
	} else {
		untraced = s.measure(c.seconds/2, nil, false)
		runtime.GC()
		sp = newSpans()
		var prof bytes.Buffer
		runtime.SetCPUProfileRate(500) // 10x the default; StartCPUProfile warns and keeps it
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		traced = s.measure(c.seconds/2, sp, true)
		pprof.StopCPUProfile()
		if shares, err = cpuShares(prof.Bytes()); err != nil {
			return nil, err
		}
		if err := writeTrace(c, sp, prof.Bytes()); err != nil {
			return nil, err
		}
	}
	for _, f := range w.close() {
		s.failed[f] = true
	}
	v, err := w.verify()
	if err != nil {
		return nil, fmt.Errorf("verify: %w", err)
	}
	for _, f := range v.failed {
		s.failed[f] = true
	}
	pc.add(v.prefix)

	exact := exactMetrics(pc, float64(prefix))
	rep.Exact = exact
	if c.seed == pn.DefaultSeed {
		wp, ok := pn.Workloads[c.workload]
		switch {
		case !ok || wp.Digest == "":
			rep.Notes = append(rep.Notes, "no digest pinned for the default seed")
		case wp.Digest != rep.Digest || !sameExact(wp.Exact, exact):
			// A speed-only change leaves every simulated statistic alone:
			// a different digest means the prefix simulated something else.
			rep.Notes = append(rep.Notes, fmt.Sprintf("digest %s differs from pinned %s: prefix ops failed", rep.Digest, wp.Digest))
			for i := 0; i < prefix; i++ {
				s.failed[i] = true
			}
		}
	}

	rep.Attempted = s.next
	rep.Failed = len(s.failed)
	rep.Correct = rep.Failed == 0 && s.err == nil
	if s.err != nil {
		rep.Notes = append(rep.Notes, s.err.Error())
	}
	if untraced.ops == 0 {
		if s.err != nil {
			return nil, s.err
		}
		return nil, errors.New("no op completed in the timed window")
	}
	endToEnd(rep, untraced)
	if c.trace {
		rep.Metrics = perLayer(exact, untraced, traced, sp, shares)
	}
	printHuman(stdout, rep, sp)
	return rep, nil
}

// endToEnd fills the gated metrics from the untraced window, plus the
// informational tail percentile and failed ratio.
func endToEnd(rep *report, win window) {
	secs := win.wall.Seconds()
	rate, frames, alloc := float64(win.ops)/secs, float64(win.counts.frames)/secs, float64(win.alloc)/float64(win.ops)
	if win.blocks > 0 {
		rate = float64(win.blockedOps) / win.blockedWall
		frames = float64(win.blockedFrames) / win.blockedWall
		alloc = win.blockedAlloc / float64(win.blockedOps)
	}
	rep.Metrics["setup_s"] = metric{median(win.setupS), "s"}
	rep.Metrics["ops_per_s"] = metric{rate, "1/s"}
	rep.Metrics["op_ms_p50"] = metric{median(win.opMs), "ms"}
	rep.Metrics["frames_per_s"] = metric{frames, "1/s"}
	rep.Metrics["alloc_kb_per_op"] = metric{alloc / 1024, "KiB"}
	if p95, ok := percentile(win.opMs, 0.95); ok {
		rep.Info["op_ms_p95"] = metric{p95, "ms"}
	}
	rep.Info["failed_ratio"] = metric{float64(rep.Failed) / float64(rep.Attempted), "ratio"}
	rep.Info["ops"] = metric{float64(win.ops), "count"}
	rep.Info["setups"] = metric{float64(len(win.setupS)), "count"}
	rep.Info["blocks"] = metric{float64(win.blocks), "count"}
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// exactMetrics are the count metrics, taken over the pinned prefix so
// they repeat bit for bit for a seed. A layer a workload cannot observe
// through the public API reads 0 (scale-hier's regions run inside
// shard.RunHier, whose per-region event and MAC counters are private).
func exactMetrics(c counts, ops float64) map[string]float64 {
	return map[string]float64{
		"eventsim.events_per_op": float64(c.events) / ops,
		"radio.frames_per_op":    float64(c.frames) / ops,
		"radio.bytes_per_op":     float64(c.bytes) / ops,
		"radio.collision_ratio":  ratio(c.collided, c.delivered+c.collided),
		"radio.frames_per_event": ratio(c.frames, c.events),
		"mac.sent_per_op":        float64(c.macSent) / ops,
		"mac.retry_ratio":        ratio(c.macRetries, c.macSent),
		"mac.drop_ratio":         ratio(c.macDropped, c.macEnqueued),
		"mac.deferred_per_op":    float64(c.macDeferred) / ops,
		"tree.phase1_frames":     ratio(c.phase1Frames, c.setups),
		"core.rounds_per_op":     float64(c.rounds) / ops,
		"core.accept_ratio":      ratio(c.roundsAccepted, c.rounds),
		"stream.firings_per_op":  float64(c.firings) / ops,
		"stream.repairs_per_op":  float64(c.repairs) / ops,
		"stream.accept_ratio":    ratio(c.firingsAccepted, c.firings),
		"shard.regions":          float64(c.regions) / ops,
	}
}

func sameExact(a, b map[string]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if w, ok := b[k]; !ok || w != v {
			return false
		}
	}
	return true
}

// perLayer assembles the traced run's metrics: the exact counts, layer
// timings from the spans, runtime figures from the untraced window, the
// CPU profile's shares, and the tracing overhead.
func perLayer(exact map[string]float64, untraced, traced window, sp *spans, shares map[string]float64) map[string]metric {
	m := map[string]metric{}
	for k, v := range exact {
		unit := "count"
		if strings.HasSuffix(k, "_ratio") {
			unit = "ratio"
		}
		m[k] = metric{v, unit}
	}
	ms := func(prefix string) float64 { return median(sp.durations(prefix)) }
	var simNs float64
	for _, p := range []string{"step", "finish", "phase1.", "round."} {
		for _, d := range sp.durations(p) {
			simNs += d * 1e6
		}
	}
	m["eventsim.ns_per_event"] = metric{ratioF(simNs, float64(traced.counts.events)), "ns"}
	m["tree.phase1_ms_p50"] = metric{ms("phase1."), "ms"}
	m["core.round_ms_p50"] = metric{ms("round.core"), "ms"}
	m["topology.deploy_ms_p50"] = metric{ms("deploy"), "ms"}
	m["shard.plan_ms"] = metric{ms("plan"), "ms"}
	m["shard.hier_ms"] = metric{ms("hier"), "ms"}
	m["shard.cpu_per_wall"] = metric{sp.cpuPerWall("hier"), "ratio"}
	m["runtime.allocs_per_op"] = metric{float64(untraced.allocs) / float64(untraced.ops), "count"}
	m["runtime.gc_cpu_fraction"] = metric{untraced.gcCPU, "ratio"}
	m["runtime.gc_pause_ms"] = metric{float64(untraced.pause) / 1e6, "ms"}
	m["runtime.heap_inuse_peak_mb"] = metric{traced.heapMB, "MiB"}
	for _, l := range layers {
		m["cpu_share."+l] = metric{shares[l], "%"}
	}
	up := float64(untraced.ops) / untraced.wall.Seconds()
	tp := float64(traced.ops) / traced.wall.Seconds()
	m["trace.ops_per_s_untraced"] = metric{up, "1/s"}
	m["trace.ops_per_s_traced"] = metric{tp, "1/s"}
	m["trace.overhead_ratio"] = metric{ratioF(up, tp), "ratio"}
	return m
}

func ratioF(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func printHuman(w io.Writer, rep *report, sp *spans) {
	fmt.Fprintf(w, "workload: %s seed=%d seconds=%g trace=%v attempted=%d failed=%d correct=%v digest=%s\n",
		rep.Workload, rep.Seed, rep.Seconds, rep.Trace, rep.Attempted, rep.Failed, rep.Correct, rep.Digest)
	for _, n := range rep.Notes {
		fmt.Fprintln(w, "note:", n)
	}
	for _, k := range sortedKeys(rep.Info) {
		fmt.Fprintf(w, "  %-28s %14.6g %s\n", k, rep.Info[k].Value, rep.Info[k].Unit)
	}
	for _, k := range sortedKeys(rep.Metrics) {
		fmt.Fprintf(w, "  %-28s %14.6g %s\n", k, rep.Metrics[k].Value, rep.Metrics[k].Unit)
	}
	if sp == nil {
		return
	}
	total, self := sp.selfTimes()
	fmt.Fprintln(w, "span self time (traced window):")
	for _, k := range sortedKeys(total) {
		fmt.Fprintf(w, "  %-14s total %10.1f ms  self %10.1f ms\n", k, float64(total[k])/1e6, float64(self[k])/1e6)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func writeReport(c config, rep *report) error {
	dir := filepath.Join(c.outDir, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%v-%d.json", c.workload, c.seed, c.trace, time.Now().UnixNano())
	return os.WriteFile(filepath.Join(dir, name), append(b, '\n'), 0o644)
}

func writeTrace(c config, sp *spans, prof []byte) error {
	dir := filepath.Join(c.outDir, "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", c.workload, c.seed))
	if err := sp.writeJSONL(base + ".spans.jsonl"); err != nil {
		return err
	}
	return os.WriteFile(base+".cpu.pprof", prof, 0o644)
}
