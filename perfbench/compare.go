package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// compareCmd prints two result files side by side. Timings from hosts
// with different fingerprints are flagged as not comparable; for two runs
// of one workload and seed, any difference in an exact count or the
// digest is drift, reported as a failure (exit status 1).
func compareCmd(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: perfbench compare <base.json> <new.json>")
		return 2
	}
	var reps [2]report
	for i, path := range args {
		b, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(b, &reps[i])
		}
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", path, err)
			return 2
		}
	}
	code := compareReports(stdout, reps[0], reps[1])
	return code
}

func compareReports(w io.Writer, a, b report) int {
	if a.Workload != b.Workload {
		fmt.Fprintf(w, "different workloads: %s vs %s\n", a.Workload, b.Workload)
		return 1
	}
	if a.Fingerprint != b.Fingerprint {
		fmt.Fprintf(w, "FINGERPRINT MISMATCH: timings are not comparable\n  base: %s\n  new:  %s\n", a.Fingerprint, b.Fingerprint)
	}
	for _, k := range sortedKeys(a.Metrics) {
		mb, ok := b.Metrics[k]
		if !ok {
			continue
		}
		ma := a.Metrics[k]
		fmt.Fprintf(w, "  %-28s %14.6g -> %14.6g %-6s %+7.2f%%\n", k, ma.Value, mb.Value, ma.Unit, 100*ratioF(mb.Value-ma.Value, ma.Value))
	}
	if a.Seed != b.Seed {
		return 0
	}
	drift := a.Digest != b.Digest
	for _, k := range sortedKeys(a.Exact) {
		if v, ok := b.Exact[k]; !ok || v != a.Exact[k] {
			fmt.Fprintf(w, "EXACT DRIFT %s: %v -> %v\n", k, a.Exact[k], v)
			drift = true
		}
	}
	if drift {
		fmt.Fprintf(w, "DRIFT: seed %d simulated differently (digest %s -> %s)\n", a.Seed, a.Digest, b.Digest)
		return 1
	}
	return 0
}
