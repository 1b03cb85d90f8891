package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"github.com/ipda-sim/ipda/internal/core"
	"github.com/ipda-sim/ipda/internal/shard"
	"github.com/ipda-sim/ipda/internal/stream"
	"github.com/ipda-sim/ipda/internal/topology"
)

// benchmarkSpec reads the metric lists of the repository's BENCHMARK.json.
func benchmarkSpec(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// sameMetricSet reports whether got holds exactly the named metrics, each
// with its declared unit.
func sameMetricSet(t *testing.T, what string, got map[string]metric, want map[string]string) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics, BENCHMARK.json declares %d", what, len(got), len(want))
	}
	for name, unit := range want {
		if m, ok := got[name]; !ok || m.Unit != unit {
			t.Errorf("%s: metric %s = %+v, want unit %q", what, name, m, unit)
		}
	}
}

func quick(t *testing.T, workload string, seed uint64) *report {
	t.Helper()
	rep, err := bench(config{workload: workload, seed: seed, seconds: 0.2, outDir: t.TempDir()}, io.Discard)
	if err != nil {
		t.Fatalf("%s seed %d: %v", workload, seed, err)
	}
	return rep
}

func TestCheckerRejectsMutatedOutcome(t *testing.T) {
	const th = 5
	good := func() *core.Result {
		return &core.Result{Accepted: true, Value: 40, Outcomes: []core.RoundOutcome{
			{Red: 40, Blue: 42, Participants: 41, RedContributed: 40, BlueContributed: 42},
		}}
	}
	if !countRoundOK(good(), th, 200, true, newDigest(), &counts{}) {
		t.Fatal("valid COUNT outcome rejected")
	}
	mutations := map[string]func(r *core.Result){
		"red total off its contributors": func(r *core.Result) { r.Outcomes[0].Red++ },
		"accepted past threshold":        func(r *core.Result) { r.Outcomes[0].Blue = 40 + th + 1; r.Outcomes[0].BlueContributed = 40 + th + 1 },
		"rejected within threshold":      func(r *core.Result) { r.Accepted = false },
		"value is not the red total":     func(r *core.Result) { r.Value = 41 },
		"more participants than nodes":   func(r *core.Result) { r.Outcomes[0].Participants = 201 },
	}
	for name, mutate := range mutations {
		r := good()
		mutate(r)
		if countRoundOK(r, th, 200, true, newDigest(), &counts{}) {
			t.Errorf("%s: mutated outcome accepted", name)
		}
	}

	// A Phase III aggregate dropped after its retry limit loses its
	// subtree: the round is rightly rejected, and only a round without
	// drops must conserve sums.
	lost := &core.Result{Outcomes: []core.RoundOutcome{
		{Red: 600, Blue: 536, Participants: 600, RedContributed: 600, BlueContributed: 600},
	}}
	if !countRoundOK(lost, th, 600, false, newDigest(), &counts{}) {
		t.Error("rejected round with a dropped frame flagged")
	}
	if countRoundOK(lost, th, 600, true, newDigest(), &counts{}) {
		t.Error("unconserved round without drops accepted")
	}

	plan := &shard.Plan{Members: [][]topology.NodeID{{0, 1}, {2, 3}}}
	hier := shard.HierOutcome{Regions: 2, Participants: 4, Red: 4, Blue: 4, Accepted: 2, AllAccepted: true}
	if !hierOK(hier, plan, th) {
		t.Fatal("valid hierarchical outcome rejected")
	}
	bad := hier
	bad.Red = 4 - 2*th - 1 // |S_b - S_r| > Regions*Th yet AllAccepted
	if hierOK(bad, plan, th) {
		t.Error("AllAccepted past the backbone slack accepted")
	}

	if firingConsistent(stream.QueryOutcome{NoData: true, Accepted: true}) {
		t.Error("accepted data-less firing accepted")
	}
	f := stream.QueryOutcome{Epoch: 3, Participants: 10, RedContributed: 10, Latencies: []float64{1.5}}
	g := f
	g.Latencies = []float64{1.25}
	if !sameFiring(f, f) || sameFiring(f, g) {
		t.Error("sameFiring does not compare latencies")
	}
}

func TestWrongDigestFailsPrefix(t *testing.T) {
	saved := pinsJSON
	defer func() { pinsJSON = saved }()
	pinsJSON = []byte(`{"default_seed": 1, "workloads": {"paper-sweep": {"digest": "0000000000000000"}}}`)
	rep := quick(t, "paper-sweep", 1)
	if rep.Correct || rep.Failed < blockOps["paper-sweep"] {
		t.Fatalf("wrong pinned digest: correct=%v failed=%d, want every prefix op failed", rep.Correct, rep.Failed)
	}
}

func TestPercentileOmitsTail(t *testing.T) {
	samples := make([]float64, 199)
	for i := range samples {
		samples[i] = float64(i)
	}
	if _, ok := percentile(samples, 0.95); ok {
		t.Error("p95 of 199 samples reported with fewer than 10 beyond it")
	}
	samples = append(samples, 199)
	if v, ok := percentile(samples, 0.95); !ok || v != 189 {
		t.Errorf("p95 of 200 samples = %v, %v; want 189, true", v, ok)
	}
	if v := median([]float64{3, 1, 2, 4}); v != 2.5 {
		t.Errorf("median = %v, want 2.5", v)
	}
	rep := &report{Metrics: map[string]metric{}, Info: map[string]metric{}, Attempted: 1}
	endToEnd(rep, window{ops: 50, wall: time.Second, opMs: samples[:50]})
	if _, ok := rep.Info["op_ms_p95"]; ok {
		t.Error("op_ms_p95 reported for a 50-op window")
	}
}

// An unpinned seed runs every workload with no failed op, and the exact
// counts repeat bit for bit across runs of one seed.
func TestUnpinnedSeedEveryWorkload(t *testing.T) {
	endToEnd, _ := benchmarkSpec(t)
	for _, w := range workloadNames {
		rep := quick(t, w, 987654321)
		if !rep.Correct || rep.Failed != 0 || rep.Info["failed_ratio"].Value != 0 {
			t.Errorf("%s: correct=%v failed=%d notes=%v", w, rep.Correct, rep.Failed, rep.Notes)
		}
		sameMetricSet(t, w, rep.Metrics, endToEnd)
		for k, m := range rep.Metrics {
			if !(m.Value > 0) || math.IsInf(m.Value, 0) {
				t.Errorf("%s: %s = %v, want a positive number", w, k, m.Value)
			}
		}
		if w == "paper-sweep" {
			again := quick(t, w, 987654321)
			if again.Digest != rep.Digest || !sameExact(again.Exact, rep.Exact) {
				t.Errorf("%s: exact counts drifted between runs of one seed", w)
			}
		}
	}
}

func TestCPUSharesFoldProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("cpu profiling unavailable:", err)
	}
	quick(t, "paper-sweep", 3)
	pprof.StopCPUProfile()
	shares, err := cpuShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, l := range layers {
		sum += shares[l]
	}
	if math.Abs(sum-100) > 1e-6 || shares["eventsim"] <= 0 {
		t.Errorf("shares %v sum to %v, want 100 with eventsim present", shares, sum)
	}
	if _, err := cpuShares([]byte("not a profile")); err == nil {
		t.Error("garbage profile parsed")
	}
}

func TestLayerOf(t *testing.T) {
	cases := map[string]string{
		"github.com/ipda-sim/ipda/internal/radio.(*Medium).finish": "radio",
		"github.com/ipda-sim/ipda/internal/geom.(*GridIndex).Near": "topology",
		"github.com/ipda-sim/ipda/internal/tag.(*Instance).Run":    "core",
		"crypto/internal/fips140/aes.encryptBlockAsm":              "linksec",
		"internal/runtime/maps.(*Map).getWithKey":                  "runtime",
		"runtime.mallocgc": "runtime",
		"github.com/ipda-sim/ipda/internal/packet.AppendEncode": "other",
		"sort.Slice": "other",
	}
	for fn, want := range cases {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestCompareFlagsFingerprintAndDrift(t *testing.T) {
	a := report{Workload: "paper-sweep", Seed: 4, Digest: "aa", Fingerprint: Fingerprint{CPU: "x", NProc: 2},
		Metrics: map[string]metric{"ops_per_s": {10, "1/s"}}, Exact: map[string]float64{"radio.frames_per_op": 7}}
	b := a
	b.Fingerprint.NProc = 8
	var out strings.Builder
	if code := compareReports(&out, a, b); code != 0 || !strings.Contains(out.String(), "FINGERPRINT MISMATCH") {
		t.Errorf("fingerprint change: code %d, output %q", code, out.String())
	}
	b.Exact = map[string]float64{"radio.frames_per_op": 8}
	out.Reset()
	if code := compareReports(&out, a, b); code != 1 || !strings.Contains(out.String(), "EXACT DRIFT") {
		t.Errorf("exact drift: code %d, output %q", code, out.String())
	}
}

func TestResultLine(t *testing.T) {
	var out bytes.Buffer
	dir := t.TempDir()
	if code := run([]string{"-workload", "scale-hier", "-seed", "5", "-seconds", "0.1", "-trace", "1", "-out", dir}, &out, io.Discard); code != 0 {
		t.Fatalf("exit %d", code)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Attempted < 1 || res.Metrics["shard.regions"].Value != 81 {
		t.Errorf("traced scale-hier result %+v", res)
	}
	_, perLayer := benchmarkSpec(t)
	sameMetricSet(t, "traced scale-hier", res.Metrics, perLayer)
	var sum float64
	for _, l := range layers {
		sum += res.Metrics["cpu_share."+l].Value
	}
	if math.Abs(sum-100) > 1e-6 {
		t.Errorf("cpu shares sum to %v", sum)
	}
}
