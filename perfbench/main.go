// Command perfbench is the repository benchmark: it runs one named
// workload against the synthesis library or the in-process daemon for a
// fixed time, checks every output, and prints every end-to-end metric
// (--trace 0) or every per-layer metric (--trace 1) by name, with its
// unit and sample count. The last line of standard output is one JSON
// object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}, ...}}
//
// Build and run it through perfbench/run.sh from the repository root:
//
//	bash perfbench/run.sh --workload table1-modular --seed 1 --seconds 20 --trace 0
//
// The command exits 1 when any operation failed its checks and 2 when
// the benchmark itself could not run.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// processStart is taken during package initialisation, as close to
// process start as Go code runs; the first set-up is timed from it.
var processStart = time.Now()

// opTimeout bounds each operation (Options.Timeout, or the daemon
// request's timeout), so that a stuck synthesis cannot hold a run past
// its deadline.
const opTimeout = 60 * time.Second

// config is one benchmark invocation.
type config struct {
	workload workload
	seed     int64
	duration time.Duration
	traced   bool
	// timeout bounds each operation: opTimeout, or a tiny value in the
	// self-tests that force failures.
	timeout time.Duration
	// setups is how many times the workload's set-up runs; setup_s is
	// their median.
	setups int
	// outDir receives the traced run's spans.
	outDir string
}

// result is what one invocation measured.
type result struct {
	metrics   []metric
	report    []metric // printed but not part of the JSON line
	attempted int
	failed    int
	failures  []failure
	spans     *spanStore
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload name")
	seed := fl.Int64("seed", 1, "seed fixing every generated input")
	seconds := fl.Float64("seconds", 20, "measured seconds")
	trace := fl.Int("trace", 0, "0: end-to-end metrics untraced; 1: per-layer metrics from a traced run")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	w, err := workloadByName(*name)
	if err == nil && (*trace < 0 || *trace > 1 || *seconds <= 0) {
		err = errors.New("--trace must be 0 or 1 and --seconds positive")
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	cfg := config{
		workload: w, seed: *seed, traced: *trace == 1, timeout: opTimeout,
		duration: time.Duration(*seconds * float64(time.Second)),
		setups:   30, outDir: filepath.Join(".bench_build", "perfbench"),
	}
	if w.daemon {
		cfg.setups = 3
	}
	return runConfig(cfg, stdout, stderr)
}

// runConfig runs one parsed invocation, prints its report and returns
// the exit code.
func runConfig(cfg config, stdout, stderr io.Writer) int {
	res, err := execute(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if res.spans != nil {
		if err := writeTrace(cfg, res); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 2
		}
	}
	if err := printReport(stdout, cfg, res); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if res.failed > 0 {
		return 1
	}
	return 0
}

// execute sets the workload up, runs its timed phases and derives the
// metrics.
func execute(cfg config) (*result, error) {
	if cfg.workload.daemon {
		return executeDaemon(cfg)
	}
	var ins []input
	setups := make([]float64, cfg.setups)
	for i := range setups {
		start := setupStart(i)
		var err error
		if ins, err = setupInputs(cfg.workload); err != nil {
			return nil, err
		}
		setups[i] = time.Since(start).Seconds()
	}
	r := newRunner(cfg.timeout)
	order := newPassOrder(cfg.seed)
	if !cfg.traced {
		p := r.libraryPhase(ins, order, cfg.duration, false)
		return endToEnd(r, p, ins, setups)
	}
	pu := r.libraryPhase(ins, order, cfg.duration/2, false)
	pt := r.libraryPhase(ins, order, cfg.duration/2, true)
	return traced(r, pu, pt), nil
}

func executeDaemon(cfg config) (*result, error) {
	r := newRunner(cfg.timeout)
	var (
		table1 []input
		d      *daemon
	)
	setups := make([]float64, cfg.setups)
	for i := range setups {
		if d != nil {
			d.close()
		}
		start := setupStart(i)
		var err error
		if table1, err = setupInputs(cfg.workload); err != nil {
			return nil, err
		}
		if d, err = startDaemon(); err != nil {
			return nil, err
		}
		if err = r.warm(d, table1); err == nil {
			err = r.warmRandom(d)
		}
		if err != nil {
			d.close()
			return nil, err
		}
		setups[i] = time.Since(start).Seconds()
	}
	defer d.close()
	// The served Table 1 circuits must equal the library's and pass
	// closed-loop verification.
	for _, in := range table1 {
		if err := r.checkLibrary(in); err != nil {
			return nil, fmt.Errorf("reference %s: %w", in.key, err)
		}
	}
	seqs := make([]*requestSeq, daemonClients)
	for c := range seqs {
		seqs[c] = newRequestSeq(cfg.seed, c, table1)
	}
	if !cfg.traced {
		p, err := r.daemonPhase(d, seqs, cfg.duration, false)
		if err != nil {
			return nil, err
		}
		return endToEnd(r, p, table1, setups)
	}
	pu, err := r.daemonPhase(d, seqs, cfg.duration/2, false)
	if err != nil {
		return nil, err
	}
	pt, err := r.daemonPhase(d, seqs, cfg.duration/2, true)
	if err != nil {
		return nil, err
	}
	return traced(r, pu, pt), nil
}

// setupStart returns when set-up number i starts: the first at process
// start, each later one after a collection, so that every repetition
// starts from the same heap state.
func setupStart(i int) time.Time {
	if i == 0 {
		return processStart
	}
	runtime.GC()
	return time.Now()
}

// endToEnd derives the end-to-end metrics of an untraced phase. The
// peak heap is the 99th percentile of the heap-in-use samples taken
// every 5 ms; area and state signals are summed over one pass of
// distinct inputs.
func endToEnd(r *runner, p *phase, pass []input, setups []float64) (*result, error) {
	area, signals, err := r.sums(pass)
	if err != nil && p.failed == 0 {
		return nil, err
	}
	ok := p.attempted - p.failed
	res := &result{attempted: p.attempted, failed: p.failed, failures: r.failures}
	res.metrics = []metric{
		{name: "throughput_per_s", unit: "1/s", value: float64(ok) / p.elapsed.Seconds(), n: ok},
		{name: "latency_p50_ms", unit: "ms", value: median(p.lat), n: len(p.lat)},
		{name: "peak_heap_mib", unit: "MiB", value: quantile(p.heap, 0.99), n: len(p.heap)},
		{name: "area_literals", unit: "literals", value: float64(area), n: len(pass)},
		{name: "state_signals", unit: "count", value: float64(signals), n: len(pass)},
		{name: "setup_s", unit: "s", value: median(setups), n: len(setups)},
	}
	// The absolute maximum rides on single GC-timing spikes and swings
	// by a third from run to run; it is printed, not gated.
	res.report = append(res.report, metric{name: "peak_heap_max_mib", unit: "MiB", value: quantile(p.heap, 1), n: len(p.heap)})
	if v, ok := p99(p.lat); ok {
		res.report = append(res.report, metric{name: "latency_p99_ms", unit: "ms", value: v, n: len(p.lat)})
	}
	res.report = append(res.report, metric{name: "error_rate", unit: "ratio",
		value: float64(p.failed) / float64(p.attempted), n: p.attempted})
	return res, nil
}

// traced derives the per-layer metrics of a traced phase pt, taking the
// tracing overhead against the untraced phase pu.
func traced(r *runner, pu, pt *phase) *result {
	res := &result{
		attempted: pu.attempted + pt.attempted,
		failed:    pu.failed + pt.failed,
		failures:  r.failures,
		spans:     pt.store,
	}
	res.metrics = layerMetrics(pt, median(pu.lat))
	res.report = []metric{
		{name: "untraced.latency_p50_ms", unit: "ms", value: median(pu.lat), n: len(pu.lat)},
		{name: "traced.latency_p50_ms", unit: "ms", value: median(pt.lat), n: len(pt.lat)},
	}
	return res
}

// writeTrace writes the traced run's spans, one JSON object a line, and
// its failures, when the run ends.
func writeTrace(cfg config, res *result) error {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(cfg.outDir, fmt.Sprintf("%s-seed%d", cfg.workload.name, cfg.seed))
	f, err := os.Create(base + ".spans.jsonl")
	if err != nil {
		return err
	}
	if err := res.spans.writeJSONL(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if len(res.failures) == 0 {
		return nil
	}
	b, err := json.MarshalIndent(res.failures, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(base+".failures.json", b, 0o644)
}

// printReport prints the host, every metric with unit and sample count,
// every failure, and last the JSON result line.
func printReport(w io.Writer, cfg config, res *result) error {
	mode := "end-to-end, untraced"
	if cfg.traced {
		mode = "per-layer, traced"
	}
	fmt.Fprintf(w, "# perfbench %s seed=%d seconds=%g (%s)\n", cfg.workload.name, cfg.seed, cfg.duration.Seconds(), mode)
	fmt.Fprintf(w, "# host nproc=%d GOMAXPROCS=%d go=%s commit=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit())
	for _, m := range append(append([]metric(nil), res.metrics...), res.report...) {
		fmt.Fprintf(w, "%-28s %14.6g %-9s n=%d\n", m.name, m.value, m.unit, m.n)
	}
	for _, f := range res.failures {
		fmt.Fprintf(w, "FAILED op=%d key=%s stage=%q output=%q: %s\n", f.Op, f.Key, f.Stage, f.Output, f.Err)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, map[string]value{}}
	for _, m := range res.metrics {
		out.Metrics[m.name] = value{m.value, m.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

// commit reads the checked-out commit from .git in the working
// directory, without looking above it; "unknown" outside a git
// checkout.
func commit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return short(ref)
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return short(strings.TrimSpace(string(b)))
	}
	packed, err := os.ReadFile(filepath.Join(".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return short(sha)
		}
	}
	return "unknown"
}

func short(sha string) string { return sha[:min(12, len(sha))] }
