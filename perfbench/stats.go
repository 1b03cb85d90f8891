package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
)

// minBeyond is the number of samples that must lie beyond a reported
// percentile: a tail percentile with fewer is noise, so it is omitted.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile of samples (0 < p < 1)
// and whether at least minBeyond samples lie above its rank.
func percentile(samples []float64, p float64) (float64, bool) {
	n := len(samples)
	if n == 0 {
		return 0, false
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1], n-rank >= minBeyond
}

// median of samples (mean of the middle pair for even counts).
func median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// digest folds simulated statistics into one FNV-1a 64-bit value. Only
// simulated quantities go in, never host timings, so a change that only
// alters speed leaves it identical.
type digest struct{ h hash.Hash64 }

func newDigest() *digest { return &digest{h: fnv.New64a()} }

func (d *digest) u(vs ...uint64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], v)
		d.h.Write(b[:])
	}
}

func (d *digest) i(vs ...int64) {
	for _, v := range vs {
		d.u(uint64(v))
	}
}

func (d *digest) f(vs ...float64) {
	for _, v := range vs {
		d.u(math.Float64bits(v))
	}
}

func (d *digest) b(vs ...bool) {
	for _, v := range vs {
		if v {
			d.u(1)
		} else {
			d.u(0)
		}
	}
}

func (d *digest) hex() string { return fmt.Sprintf("%016x", d.h.Sum64()) }

// Fingerprint identifies the host a result was measured on. Timings are
// comparable only between results with equal fingerprints.
type Fingerprint struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Arch       string `json:"arch"`
}

func hostFingerprint() Fingerprint {
	return Fingerprint{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Arch:       runtime.GOOS + "/" + runtime.GOARCH,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func (f Fingerprint) String() string {
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s arch=%s", f.CPU, f.NProc, f.GOMAXPROCS, f.Go, f.Arch)
}
