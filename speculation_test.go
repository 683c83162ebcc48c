package asyncsyn

// Sequential module stage at the facade (DESIGN.md §3.15): each module sees
// the state signals earlier modules inserted, so runModules solves the
// modules one after another at every Workers value. Workers counts that
// once engaged a speculative scheduler must give the sequential result
// bit for bit and leave no scheduling trace in any collector.

import (
	"fmt"
	"strings"
	"testing"

	"asyncsyn/internal/metrics"
)

// noSchedulingCounters fails the test for any modspec_* key, the
// scheduling-dependent counters the module stage no longer records.
func noSchedulingCounters(t *testing.T, label string, counters map[string]int64) {
	t.Helper()
	for k := range counters {
		if strings.HasPrefix(k, "modspec_") {
			t.Errorf("%s: scheduling-dependent counter %q recorded", label, k)
		}
	}
}

// TestSpeculationParity pins bit-identical results at Workers 4 and 8
// against Workers 1 on the Table-1 benchmarks, with no modspec_*
// counter in either Circuit.Counters or the raw collector.
func TestSpeculationParity(t *testing.T) {
	names := []string{"vbe4a", "nak-pa", "sbuf-ram-write"}
	if !testing.Short() {
		names = append(names, "mmu1")
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			seq := synthWorkers(t, name, Options{Workers: 1, Metrics: NewMetrics()})
			want := fingerprint(seq) + counterFingerprint(seq)
			for _, w := range []int{4, 8} {
				m := NewMetrics()
				c := synthWorkers(t, name, Options{Workers: w, Metrics: m})
				label := fmt.Sprintf("Workers=%d", w)
				if got := fingerprint(c) + counterFingerprint(c); got != want {
					t.Errorf("%s diverges from sequential:\n--- got ---\n%s--- want ---\n%s", label, got, want)
				}
				if got, wantDigest := c.Digest(), seq.Digest(); got != wantDigest {
					t.Errorf("%s digest = %s, want %s", label, got, wantDigest)
				}
				noSchedulingCounters(t, label, c.Counters)
				noSchedulingCounters(t, label+" collector", m.Map())
			}
		})
	}
}

// TestSpeculationCounters checks the raw collector's module accounting:
// one modules count per module report, at Workers 1 and 4 alike, and
// no scheduling counters.
func TestSpeculationCounters(t *testing.T) {
	for _, w := range []int{1, 4} {
		m := NewMetrics()
		c := synthWorkers(t, "nak-pa", Options{Workers: w, Metrics: m})
		label := fmt.Sprintf("Workers=%d", w)
		if len(c.Modules) == 0 {
			t.Fatalf("%s: no module reports", label)
		}
		if got, want := m.Value(metrics.Modules), int64(len(c.Modules)); got != want {
			t.Errorf("%s: modules counter = %d, want one per module report = %d", label, got, want)
		}
		noSchedulingCounters(t, label, m.Map())
	}
}
