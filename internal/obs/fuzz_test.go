package obs

import (
	"bytes"
	"math"
	"testing"
)

// FuzzParseProm checks that the exposition parser never panics, and
// that a series registered under any label value and sample value
// survives WriteProm → ParseProm under its escaped key.
func FuzzParseProm(f *testing.F) {
	f.Add([]byte("# HELP a_total h\n# TYPE a_total counter\na_total{k=\"v\"} 3\n"), `say "hi"`, 1.5)
	f.Add([]byte("h_bucket{le=\"+Inf\"} 2\nh_sum NaN\n"), "a\\b\nc", math.Inf(1))
	f.Add([]byte("x{a=\"1\",b=\"2\"} -Inf\n\n  \n"), "", -0.0)
	f.Fuzz(func(t *testing.T, data []byte, label string, v float64) {
		_, _ = ParseProm(bytes.NewReader(data)) // any error is fine; only a panic fails

		reg := NewRegistry()
		reg.Counter("fuzz_total", "fuzzed series", Label{Name: "v", Value: label}).Add(v)
		var buf bytes.Buffer
		if err := reg.WriteProm(&buf); err != nil {
			t.Fatal(err)
		}
		parsed, err := ParseProm(&buf)
		if err != nil {
			t.Fatalf("ParseProm of WriteProm output: %v\n%s", err, buf.String())
		}
		key := `fuzz_total{v="` + escapeLabel(label) + `"}`
		got, ok := parsed[key]
		if !ok || len(parsed) != 1 {
			t.Fatalf("series %q missing from %v", key, parsed)
		}
		if got != v && !(math.IsNaN(got) && math.IsNaN(v)) {
			t.Fatalf("series %q = %v, want %v", key, got, v)
		}
	})
}
