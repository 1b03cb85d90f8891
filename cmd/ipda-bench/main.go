// Command ipda-bench regenerates the tables and figures of the paper's
// evaluation (Section IV). Each experiment prints a text table whose rows
// mirror the corresponding paper artifact; see DESIGN.md for the
// experiment index and EXPERIMENTS.md for a recorded reference run.
//
// Usage:
//
//	ipda-bench -exp fig6              # one experiment
//	ipda-bench -exp all               # everything (minutes)
//	ipda-bench -exp fig7 -trials 20   # more trials per point
//	ipda-bench -exp scale -shards 4   # sharded scale run (output is shard-independent)
//	ipda-bench -exp all -progress     # live trials-completed counter + latency quantiles
//	ipda-bench -exp fig7 -qtrace-out q.jsonl  # causal per-query traces (see ipda-trace)
//	ipda-bench -list                  # show experiment IDs
//
// Profiling (see EXPERIMENTS.md):
//
//	ipda-bench -exp fig7 -cpuprofile cpu.out   # CPU profile of the run
//	ipda-bench -exp fig7 -memprofile mem.out   # heap profile at exit
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"github.com/ipda-sim/ipda/internal/experiments"
	"github.com/ipda-sim/ipda/internal/mac"
	"github.com/ipda-sim/ipda/internal/obs"
	"github.com/ipda-sim/ipda/internal/qtrace"
)

func main() {
	var (
		exp       = flag.String("exp", "all", "experiment ID or 'all'")
		trials    = flag.Int("trials", 0, "trials per data point (0 = experiment default)")
		seed      = flag.Uint64("seed", 2024, "root random seed")
		sizes     = flag.String("sizes", "", "comma-separated network sizes (default: paper's 200..600)")
		workers   = flag.Int("workers", 0, "parallel trial workers (0 = GOMAXPROCS)")
		shards    = flag.Int("shards", 0, "intra-trial shard workers for sharded experiments (0 = 1; output is shard-independent)")
		macFlag   = flag.String("mac", "csma", "channel-access scheme: csma | tdma (tdma retimes transmissions; tables differ from csma)")
		coalesce  = flag.Bool("coalesce", false, "grow the overhead experiments with slice-coalesced framing columns (existing columns keep their exact bytes)")
		format    = flag.String("format", "text", "output format: text | csv")
		progress  = flag.Bool("progress", false, "report trials completed per sweep on stderr")
		list      = flag.Bool("list", false, "list experiment IDs and exit")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile of the experiment runs to this file")
		memProf   = flag.String("memprofile", "", "write a heap profile to this file at exit")
		metrics   = flag.String("metrics", "", "write a Prometheus text-format snapshot of harness metrics to this file at exit")
		qtraceOut = flag.String("qtrace-out", "", "write causal per-query traces of every sweep as JSON lines to this file (inspect with ipda-trace)")
	)
	flag.Parse()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ipda-bench: cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "ipda-bench: cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintf(os.Stderr, "ipda-bench: memprofile: %v\n", err)
				os.Exit(1)
			}
			defer f.Close()
			runtime.GC() // report live heap, not transient garbage
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "ipda-bench: memprofile: %v\n", err)
				os.Exit(1)
			}
		}()
	}

	if *list {
		for _, name := range experiments.Names() {
			fmt.Println(name)
		}
		return
	}

	opts := experiments.Options{Trials: *trials, Seed: *seed, Workers: *workers, Shards: *shards, Coalesce: *coalesce}
	scheme, err := mac.ParseScheme(*macFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ipda-bench: %v\n", err)
		os.Exit(2)
	}
	opts.MAC = scheme
	// Progress reporting and -metrics both read the instrumentation
	// registry; experiment tables stay byte-identical either way.
	var reg *obs.Registry
	if *progress || *metrics != "" {
		reg = obs.NewRegistry()
		opts.Obs = reg
	}
	// Trace collection is read-only: tables are byte-identical with and
	// without a store attached.
	var store *qtrace.Store
	if *qtraceOut != "" {
		store = qtrace.NewStore(0)
		opts.QTrace = store
	}
	if *sizes != "" {
		for _, part := range strings.Split(*sizes, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || n <= 0 {
				fmt.Fprintf(os.Stderr, "ipda-bench: bad size %q\n", part)
				os.Exit(2)
			}
			opts.Sizes = append(opts.Sizes, n)
		}
	}

	names := []string{*exp}
	if *exp == "all" {
		names = experiments.Names()
	}
	reported := map[string]bool{}
	for _, name := range names {
		start := time.Now()
		o := opts
		if *progress {
			name := name
			o.Progress = func(done, total int) {
				fmt.Fprintf(os.Stderr, "\r%s: %d/%d trials", name, done, total)
				if done == total {
					fmt.Fprintln(os.Stderr)
				}
			}
		}
		table, err := experiments.Run(name, o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ipda-bench: %s: %v\n", name, err)
			os.Exit(1)
		}
		if *progress && reg != nil {
			reportSweeps(reg, reported)
		}
		switch *format {
		case "csv":
			if err := table.WriteCSV(os.Stdout); err != nil {
				fmt.Fprintf(os.Stderr, "ipda-bench: %s: %v\n", name, err)
				os.Exit(1)
			}
		case "text":
			table.Fprint(os.Stdout)
			fmt.Printf("  (%s in %v)\n\n", name, time.Since(start).Round(time.Millisecond))
		default:
			fmt.Fprintf(os.Stderr, "ipda-bench: unknown format %q\n", *format)
			os.Exit(2)
		}
	}

	if store != nil {
		f, err := os.Create(*qtraceOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ipda-bench: qtrace-out: %v\n", err)
			os.Exit(1)
		}
		if err := store.WriteJSONL(f); err != nil {
			fmt.Fprintf(os.Stderr, "ipda-bench: qtrace-out: %v\n", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "ipda-bench: qtrace-out: %v\n", err)
			os.Exit(1)
		}
	}

	if *metrics != "" && reg != nil {
		f, err := os.Create(*metrics)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ipda-bench: metrics: %v\n", err)
			os.Exit(1)
		}
		if err := reg.WriteProm(f); err != nil {
			fmt.Fprintf(os.Stderr, "ipda-bench: metrics: %v\n", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "ipda-bench: metrics: %v\n", err)
			os.Exit(1)
		}
	}
}

// reportSweeps prints the wall-clock and throughput gauges the harness
// recorded for each sweep not yet reported, plus the simulated per-query
// completion-latency quantiles where the experiment records them. An
// experiment may run several sweeps (one per curve); each gets its own
// line.
func reportSweeps(reg *obs.Registry, reported map[string]bool) {
	elapsed := map[string]float64{}
	rate := map[string]float64{}
	latency := map[string]obs.Sample{}
	var order []string
	for _, s := range reg.Snapshot() {
		if len(s.Labels) != 1 || s.Labels[0].Name != "sweep" {
			continue
		}
		sweep := s.Labels[0].Value
		switch s.Name {
		case "ipda_harness_sweep_elapsed_seconds":
			if !reported[sweep] {
				order = append(order, sweep)
			}
			elapsed[sweep] = s.Value
		case "ipda_harness_sweep_trials_per_second":
			rate[sweep] = s.Value
		case "ipda_harness_query_latency_seconds":
			latency[sweep] = s
		}
	}
	for _, sweep := range order {
		reported[sweep] = true
		line := fmt.Sprintf("%s: %.2fs wall, %.1f trials/s", sweep, elapsed[sweep], rate[sweep])
		if h, ok := latency[sweep]; ok && h.Count > 0 {
			line += fmt.Sprintf(", query latency p50=%.3gs p95=%.3gs p99=%.3gs (%d queries)",
				obs.Quantile(h.Bounds, h.BucketCounts, 0.50),
				obs.Quantile(h.Bounds, h.BucketCounts, 0.95),
				obs.Quantile(h.Bounds, h.BucketCounts, 0.99),
				h.Count)
		}
		fmt.Fprintln(os.Stderr, line)
	}
}
