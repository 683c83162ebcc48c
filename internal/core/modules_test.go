package core

import (
	"context"
	"testing"

	"asyncsyn/internal/bench"
	"asyncsyn/internal/sg"
)

// BenchmarkRunModules measures the module-solve stage — the dominant
// cost between the k=6 sweep and million-state graphs. The graph build
// is inside the loop (runModules mutates the graph), so treat deltas,
// not absolutes, as the signal; allocs/op is gated by cmd/allocheck
// against ALLOCS_0.json, keyed by the sub-benchmark name.
func BenchmarkRunModules(b *testing.B) {
	spec, err := bench.Load("mmu1")
	if err != nil {
		b.Fatal(err)
	}
	b.Run("sequential", func(b *testing.B) {
		opt := Options{Workers: 4}.withDefaults()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			full, err := sg.FromSTG(spec, sg.Options{})
			if err != nil {
				b.Fatal(err)
			}
			res := &Result{Name: spec.Name}
			if _, _, err := runModules(context.Background(), full, spec, opt, res); err != nil {
				b.Fatal(err)
			}
		}
	})
}
