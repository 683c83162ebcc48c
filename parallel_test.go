package asyncsyn

// Determinism contract of the parallel pipeline (DESIGN.md §3.8): the
// synthesized circuit is bit-for-bit identical for every Workers value,
// and the portfolio engine agrees with plain DPLL whenever DPLL decides
// within its budget.

import (
	"fmt"
	"runtime"
	"testing"

	"asyncsyn/internal/bench"
	"asyncsyn/internal/stg"
)

// fingerprint flattens every externally visible synthesis result into a
// single comparable string: counts, area, inserted-signal names, and
// the full SOP cover of every function.
func fingerprint(c *Circuit) string {
	s := fmt.Sprintf("states=%d->%d signals=%d->%d statesigs=%d area=%d aborted=%v\n",
		c.InitialStates, c.FinalStates, c.InitialSignals, c.FinalSignals,
		c.StateSignals, c.Area, c.Aborted)
	for _, f := range c.Functions {
		s += f.String() + "\n"
	}
	for _, m := range c.Modules {
		s += fmt.Sprintf("module %s merged=%d conflicts=%d new=%d inputs=%v\n",
			m.Output, m.MergedStates, m.Conflicts, m.NewSignals, m.InputSet)
	}
	return s
}

func synthWorkers(t *testing.T, name string, opt Options) *Circuit {
	t.Helper()
	src, err := bench.Source(name)
	if err != nil {
		t.Fatal(err)
	}
	g, err := ParseSTGString(src)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Synthesize(g, opt)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return c
}

// TestDeterminismAcrossWorkers pins every externally visible result —
// module reports, function covers, counters and digest — bit-identical
// across Workers values, on Table 1 benchmarks and on seeded random
// STGs round-tripped through the text format.
func TestDeterminismAcrossWorkers(t *testing.T) {
	type input struct{ name, src string }
	var inputs []input
	names := []string{"vbe4a", "nak-pa", "sbuf-ram-write"}
	if !testing.Short() {
		names = append(names, "mmu1")
	}
	for _, name := range names {
		src, err := bench.Source(name)
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, input{name, src})
	}
	for seed := int64(0); seed < 12; seed++ {
		spec, err := stg.Random(seed, stg.RandomOptions{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		inputs = append(inputs, input{fmt.Sprintf("random-%d", seed), stg.Format(spec)})
	}
	workerSet := []int{2, 3, 8, runtime.GOMAXPROCS(0)}
	for _, in := range inputs {
		t.Run(in.name, func(t *testing.T) {
			g, err := ParseSTGString(in.src)
			if err != nil {
				t.Fatal(err)
			}
			seq, err := Synthesize(g, Options{Workers: 1, Metrics: NewMetrics()})
			if err != nil {
				t.Fatal(err)
			}
			want := fingerprint(seq) + counterFingerprint(seq)
			for _, w := range workerSet {
				c, err := Synthesize(g, Options{Workers: w, Metrics: NewMetrics()})
				if err != nil {
					t.Fatalf("Workers=%d failed where Workers=1 succeeded: %v", w, err)
				}
				if got := fingerprint(c) + counterFingerprint(c); got != want {
					t.Errorf("Workers=%d diverges from Workers=1:\n--- got ---\n%s--- want ---\n%s", w, got, want)
				}
				if c.Digest() != seq.Digest() {
					t.Errorf("Workers=%d digest %s, want %s", w, c.Digest(), seq.Digest())
				}
			}
		})
	}
}

// TestPortfolioDeterminism pins the racing engine's contract: repeated
// portfolio runs are identical to each other, and — because the DPLL
// verdict is always preferred when it decides within budget — identical
// to a plain DPLL run.
func TestPortfolioDeterminism(t *testing.T) {
	for _, name := range []string{"vbe4a", "nak-pa", "sbuf-send-ctl"} {
		t.Run(name, func(t *testing.T) {
			dpll := fingerprint(synthWorkers(t, name, Options{Engine: DPLL}))
			p1 := synthWorkers(t, name, Options{Engine: Portfolio})
			p2 := fingerprint(synthWorkers(t, name, Options{Engine: Portfolio}))
			if got := fingerprint(p1); got != p2 {
				t.Errorf("portfolio is not self-consistent:\n--- run1 ---\n%s--- run2 ---\n%s", got, p2)
			}
			if got := fingerprint(p1); got != dpll {
				t.Errorf("portfolio diverges from dpll:\n--- portfolio ---\n%s--- dpll ---\n%s", got, dpll)
			}
			for _, f := range p1.Formulas {
				if f.Engine != "portfolio:dpll" && f.Engine != "portfolio:walksat" {
					t.Errorf("formula %q engine = %q, want portfolio:*", f.Output, f.Engine)
				}
			}
		})
	}
}
