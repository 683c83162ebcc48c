package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"asyncsyn"
)

func TestSelfTimeOverlappingChildren(t *testing.T) {
	parent := span{Start: 0, End: 100, Placed: true}
	children := []span{
		{Start: 10, End: 40, Placed: true},
		{Start: 30, End: 60, Placed: true},         // overlaps the first: union 10..60
		{Start: 55, End: 58, Placed: true},         // nested in the union
		{Start: 90, End: 120, Placed: true},        // runs past the parent: clipped to 90..100
		{Start: 0, End: 0, Dur: 50, Placed: false}, // no interval: ignored
		{Start: 70, End: -1, Placed: true},         // still open: ignored
	}
	if got, want := selfTime(parent, children), time.Duration(40); got != want {
		t.Fatalf("self time = %d, want %d", got, want)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Fatalf("self time without children = %d, want 100", got)
	}
}

func TestP99SuppressedBelowThousandSamples(t *testing.T) {
	xs := make([]float64, p99MinSamples-1)
	for i := range xs {
		xs[i] = float64(i)
	}
	if _, ok := p99(xs); ok {
		t.Fatalf("p99 reported for %d samples", len(xs))
	}
	xs = append(xs, float64(len(xs)))
	v, ok := p99(xs)
	if !ok {
		t.Fatalf("p99 suppressed for %d samples", len(xs))
	}
	// Ten samples (990..999) lie at or beyond the reported value.
	if v < 989 || v > 990 {
		t.Fatalf("p99 of 0..999 = %g, want 989.01", v)
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Fatalf("median = %g, want 2.5", got)
	}
}

func keys(ins []input) string {
	var b strings.Builder
	for _, in := range ins {
		b.WriteString(in.key + "|" + in.src + "\n")
	}
	return b.String()
}

func TestSeedFixesInputs(t *testing.T) {
	for _, w := range workloads {
		ins, err := w.inputs()
		if err != nil {
			t.Fatal(err)
		}
		passes := func(seed int64) string {
			o := newPassOrder(seed)
			return keys(o.next(ins)) + keys(o.next(ins)) + keys(o.next(ins))
		}
		if passes(7) != passes(7) {
			t.Errorf("%s: seed 7 gave two different pass orders", w.name)
		}
		if len(ins) > 1 && passes(7) == passes(8) {
			t.Errorf("%s: seeds 7 and 8 gave the same pass orders", w.name)
		}
	}

	table1, _ := table1ModularInputs()
	seq := func(seed int64, client int) string {
		q := newRequestSeq(seed, client, table1)
		var ins []input
		for range 16 {
			in, err := q.next()
			if err != nil {
				t.Fatal(err)
			}
			ins = append(ins, in)
		}
		return keys(ins)
	}
	if seq(3, 0) != seq(3, 0) {
		t.Fatal("daemon request sequence is not fixed by the seed")
	}
	if seq(3, 0) == seq(3, 1) || seq(3, 0) == seq(4, 0) {
		t.Fatal("daemon clients or seeds share a request sequence")
	}
	if n := strings.Count(seq(3, 0), "modular/rand"); n != 4 {
		t.Fatalf("%d random requests in 16, want 4 (one per block of four)", n)
	}
}

// The smoke runs one operation of each library workload, verified after
// its phase, and one request per daemon client, all of which must pass
// their checks.
func TestSmokeEachWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("synthesizes a k=5 handshake")
	}
	for _, w := range workloads {
		ins, err := w.inputs()
		if err != nil {
			t.Fatal(err)
		}
		r := newRunner(time.Minute)
		if w.daemon {
			d, err := startDaemon()
			if err != nil {
				t.Fatal(err)
			}
			err = r.warm(d, ins)
			if err == nil {
				err = r.warmRandom(d)
			}
			if err == nil {
				p, perr := r.daemonPhase(d, seqsFor(ins), time.Nanosecond, true)
				if perr != nil {
					err = perr
				} else if p.attempted != daemonClients || p.failed != 0 {
					err = errors.New("daemon phase did not pass one request per client")
				}
			}
			d.close()
			if err != nil {
				t.Fatalf("%s: %v %v", w.name, err, r.failures)
			}
			continue
		}
		p := &phase{store: newSpanStore()}
		r.libraryOp(p, ins[0])
		if p.failed != 0 || len(p.unverified) != 1 || p.lat[0] <= 0 || p.records[0].counters["sg_states"] == 0 {
			t.Fatalf("%s %s: phase %+v failures %v", w.name, ins[0].key, p, r.failures)
		}
		r.verifyAwaited(p)
		if p.failed != 0 || p.unverified != nil || !r.isVerified(ins[0].key, r.refs[ins[0].key].digest) {
			t.Fatalf("%s %s: not verified after the phase: %+v %v", w.name, ins[0].key, p, r.failures)
		}
	}
}

func seqsFor(table1 []input) []*requestSeq {
	seqs := make([]*requestSeq, daemonClients)
	for c := range seqs {
		seqs[c] = newRequestSeq(1, c, table1)
	}
	return seqs
}

// A synthesis cut by its time limit is a failure: it keeps its latency
// sample and, traced, the spans it produced and the stage it died in.
func TestForcedFailureLandsInErrorRate(t *testing.T) {
	ins, _ := handshakeInputs()
	r := newRunner(50 * time.Millisecond)
	store := newSpanStore()
	p := &phase{store: store}
	r.libraryOp(p, ins[0])
	if len(r.failures) != 1 || !strings.Contains(r.failures[0].Err, asyncsyn.ErrCanceled.Error()) {
		t.Fatalf("failures %+v, want one ErrCanceled", r.failures)
	}
	if p.attempted != 1 || p.failed != 1 || len(p.lat) != 1 || p.lat[0] < 50 {
		t.Fatalf("phase %+v: the failed operation must count and keep its latency", p)
	}
	if len(r.failures) != 1 || r.failures[0].Stage == "" {
		t.Fatalf("failures %+v: want one naming its stage", r.failures)
	}
	var died bool
	for _, sp := range store.snapshot() {
		if sp.Name == r.failures[0].Stage && sp.Err != "" && sp.End >= sp.Start {
			died = true
		}
	}
	if !died {
		t.Fatalf("no closed %q span with an error among %+v", r.failures[0].Stage, store.snapshot())
	}
}

func TestForcedFailureDaemon(t *testing.T) {
	table1, _ := table1ModularInputs()
	r := newRunner(time.Minute)
	d, err := startDaemon()
	if err != nil {
		t.Fatal(err)
	}
	defer d.close()
	if err := r.warm(d, table1[:2]); err != nil {
		t.Fatal(err)
	}
	r.timeout = time.Nanosecond
	p, err := r.daemonPhase(d, seqsFor(table1), time.Nanosecond, false)
	if err != nil {
		t.Fatal(err)
	}
	if p.attempted != daemonClients || p.failed != p.attempted || len(p.lat) != p.attempted {
		t.Fatalf("attempted %d failed %d samples %d: every request must fail and keep its latency",
			p.attempted, p.failed, len(p.lat))
	}
}

// The command prints a JSON result with correct=false and exits 1 when
// operations fail, and exits 2 without a result on bad arguments.
func TestCommandExitCodes(t *testing.T) {
	var out, errOut bytes.Buffer
	w, _ := workloadByName("table1-modular")
	cfg := config{workload: w, seed: 1, duration: time.Millisecond, timeout: time.Nanosecond, setups: 1, outDir: t.TempDir()}
	code := runConfig(cfg, &out, &errOut)
	if code != 1 {
		t.Fatalf("exit %d, want 1\n%s%s", code, out.String(), errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res struct {
		Correct   bool
		Attempted int
		Failed    int
		Metrics   map[string]struct{ Value float64 }
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Attempted != 23 || res.Failed != 23 {
		t.Fatalf("result %+v: want 23 of 23 failed", res)
	}

	out.Reset()
	if code := run([]string{"--workload", "nope"}, &out, &errOut); code != 2 || out.Len() != 0 {
		t.Fatalf("unknown workload: exit %d, output %q", code, out.String())
	}
}

// The metrics each mode prints are exactly those BENCHMARK.json declares.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	declared := func(list []struct{ Name, Unit string }) map[string]string {
		m := map[string]string{}
		for _, x := range list {
			m[x.Name] = x.Unit
		}
		return m
	}
	emitted := func(ms []metric) map[string]string {
		m := map[string]string{}
		for _, x := range ms {
			m[x.name] = x.unit
		}
		return m
	}
	r := newRunner(time.Minute)
	in := input{key: "k"}
	r.checkDigest(in.key, "d", 1, 1)
	p := &phase{lat: []float64{1}, attempted: 1, heap: []float64{1}, elapsed: time.Second, store: newSpanStore()}
	e2e, err := endToEnd(r, p, []input{in}, []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := emitted(e2e.metrics), declared(spec.EndToEnd); !reflect.DeepEqual(got, want) {
		t.Errorf("end-to-end metrics %v, BENCHMARK.json declares %v", got, want)
	}
	if got, want := emitted(layerMetrics(p, 1)), declared(spec.PerLayer); !reflect.DeepEqual(got, want) {
		t.Errorf("per-layer metrics %v, BENCHMARK.json declares %v", got, want)
	}
}
