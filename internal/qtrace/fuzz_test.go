package qtrace

import (
	"bytes"
	"io"
	"os"
	"testing"
)

// FuzzReadJSONL feeds arbitrary bytes through the trace reader and every
// consumer of its output; none may panic. The seeds are a parent-cycle
// regression input and a real trace (ipda-sim -nodes 20 -field 100
// -seed 3 -qtrace).
func FuzzReadJSONL(f *testing.F) {
	f.Add([]byte(dupIDTrace))
	sim, err := os.ReadFile("testdata/sim-20.jsonl")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(sim)
	f.Fuzz(func(t *testing.T, data []byte) {
		lines, _, err := ReadJSONL(bytes.NewReader(data))
		if err != nil {
			return
		}
		groups, order := GroupByTrial(lines)
		for _, k := range order {
			spans := groups[k]
			Analyze(spans)
			for _, write := range []func(io.Writer, []Span) error{WriteText, WriteHealth, WriteChromeTrace} {
				if err := write(io.Discard, spans); err != nil {
					t.Fatal(err)
				}
			}
		}
	})
}
