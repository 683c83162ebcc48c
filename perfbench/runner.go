package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"asyncsyn"
)

// ref is the run's first synthesis of one distinct input: every later
// operation on the same key must reproduce its digest.
type ref struct {
	digest  string
	area    int
	signals int
}

// failure records one failed operation: what failed and, in the traced
// run, the stage and output it died in.
type failure struct {
	Op     int    `json:"op"`
	Key    string `json:"key"`
	Err    string `json:"err"`
	Stage  string `json:"stage,omitempty"`
	Output string `json:"output,omitempty"`
}

// opRecord is what the traced run keeps of one operation besides its
// spans.
type opRecord struct {
	latency  time.Duration
	counters map[string]int64 // the run's collector (library) or the reply's counters (daemon)
	cpuMS    float64          // daemon: the reply's cpu_ms
	alloc    uint64           // library: bytes allocated during the operation
	gcs      uint32           // library: GC cycles completed during the operation
}

// runner holds the state shared by every operation of one benchmark
// run: the reference digests, the verification memo, the failures and
// (in the traced phase) the span store and per-operation records.
type runner struct {
	// timeout bounds each operation (Options.Timeout, or the daemon
	// request's timeout); it keeps a stuck synthesis from holding the
	// run past its deadline.
	timeout time.Duration

	ops atomic.Int64

	mu       sync.Mutex
	refs     map[string]ref
	verified map[string]bool // key + digest whose circuit passed Verify
	failures []failure
}

func newRunner(timeout time.Duration) *runner {
	return &runner{timeout: timeout, refs: map[string]ref{}, verified: map[string]bool{}}
}

// phase is the outcome of one timed closed-loop phase.
type phase struct {
	lat       []float64 // per-operation latency, ms; failed operations included
	attempted int
	failed    int
	elapsed   time.Duration
	heap      []float64 // heap-in-use samples, MiB
	// unverified holds the library circuits verified after the clock
	// stops, by input key and digest.
	unverified map[string]*unverified

	// Traced phases only.
	store   *spanStore
	records []opRecord
	server  map[string]float64 // daemon: /metrics deltas over the phase
	alloc   uint64             // daemon: process-wide bytes allocated over the phase
	gcs     uint32             // daemon: process-wide GC cycles over the phase
}

func (p *phase) add(lat time.Duration, err error, rec *opRecord) {
	p.lat = append(p.lat, ms(lat))
	p.attempted++
	if err != nil {
		p.failed++
	}
	if rec != nil {
		p.records = append(p.records, *rec)
	}
}

// fail records a failed operation.
func (r *runner) fail(op int, key string, err error, stage, output string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failures = append(r.failures, failure{Op: op, Key: key, Err: err.Error(), Stage: stage, Output: output})
}

// checkDigest compares a digest with the run's first synthesis of the
// same input, registering it as the reference when it is the first.
func (r *runner) checkDigest(key, digest string, area, signals int) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	first, ok := r.refs[key]
	if !ok {
		r.refs[key] = ref{digest: digest, area: area, signals: signals}
		return nil
	}
	if first.digest != digest {
		return fmt.Errorf("digest %s differs from the run's first synthesis %s", digest, first.digest)
	}
	return nil
}

// checkOutcome applies the checks that run inside the timed loop to
// one library outcome: no error or abort, and a digest equal to the
// run's first synthesis of the same input. It returns the digest.
func (r *runner) checkOutcome(in input, c *asyncsyn.Circuit, err error) (string, error) {
	if err != nil {
		return "", err
	}
	if c.Aborted {
		return "", asyncsyn.ErrBacktrackLimit
	}
	d := c.Digest()
	return d, r.checkDigest(in.key, d, c.Area, c.StateSignals)
}

// checkCircuit applies checkOutcome and a clean closed-loop Verify.
func (r *runner) checkCircuit(in input, s *asyncsyn.STG, c *asyncsyn.Circuit, err error) error {
	d, err := r.checkOutcome(in, c, err)
	if err != nil {
		return err
	}
	return r.verify(in.key, d, s, c)
}

// verify runs closed-loop verification of one circuit. Equal digests
// mean equal equations, so each distinct (input, digest) pair is
// verified once a run.
func (r *runner) verify(key, digest string, s *asyncsyn.STG, c *asyncsyn.Circuit) error {
	if r.isVerified(key, digest) {
		return nil
	}
	if v := c.Verify(s, verifyStates, 0); len(v) > 0 {
		return fmt.Errorf("closed-loop verification: %d violations, first: %s", len(v), v[0])
	}
	r.mu.Lock()
	r.verified[key+"\x00"+digest] = true
	r.mu.Unlock()
	return nil
}

// isVerified reports whether the run has verified the circuit with this
// digest for this input.
func (r *runner) isVerified(key, digest string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.verified[key+"\x00"+digest]
}

// unverified is a circuit a timed phase produced whose closed-loop
// verification waits until the phase's clock stops: the first
// operation that produced it, and how many operations did.
type unverified struct {
	op     int
	in     input
	digest string
	s      *asyncsyn.STG
	c      *asyncsyn.Circuit
	ops    int
}

// await defers the verification of a circuit that passed the in-loop
// checks to the end of the phase, unless the run verified it already.
func (p *phase) await(r *runner, op int, in input, digest string, s *asyncsyn.STG, c *asyncsyn.Circuit) {
	if r.isVerified(in.key, digest) {
		return
	}
	memo := in.key + "\x00" + digest
	if u, ok := p.unverified[memo]; ok {
		u.ops++
		return
	}
	if p.unverified == nil {
		p.unverified = map[string]*unverified{}
	}
	p.unverified[memo] = &unverified{op: op, in: in, digest: digest, s: s, c: c, ops: 1}
}

// verifyAwaited verifies the phase's awaited circuits in operation
// order. A violation fails every operation that produced the circuit.
func (r *runner) verifyAwaited(p *phase) {
	us := make([]*unverified, 0, len(p.unverified))
	for _, u := range p.unverified {
		us = append(us, u)
	}
	sort.Slice(us, func(i, j int) bool { return us[i].op < us[j].op })
	for _, u := range us {
		vs := p.store.begin(u.op, 0, "verify")
		err := r.verify(u.in.key, u.digest, u.s, u.c)
		p.store.end(vs, errString(err))
		if err != nil {
			p.failed += u.ops
			r.fail(u.op, u.in.key, err, "", "")
		}
	}
	p.unverified = nil
}

// sums returns the summed literal count and inserted state signals of
// the first synthesis of every input.
func (r *runner) sums(ins []input) (area, signals int, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, in := range ins {
		f, ok := r.refs[in.key]
		if !ok {
			return 0, 0, fmt.Errorf("no synthesis of %s", in.key)
		}
		area += f.area
		signals += f.signals
	}
	return area, signals, nil
}

// libraryPhase runs one closed-loop caller over whole passes of ins,
// each in the next seeded order, until d has elapsed (at least one
// pass), with tracing on when traced is set. The circuits are verified
// after the clock stops.
func (r *runner) libraryPhase(ins []input, order *passOrder, d time.Duration, traced bool) *phase {
	p := &phase{}
	if traced {
		p.store = newSpanStore()
	}
	runtime.GC()
	hw := watchHeap()
	start := time.Now()
	for {
		for _, in := range order.next(ins) {
			r.libraryOp(p, in)
		}
		if time.Since(start) >= d {
			break
		}
	}
	p.elapsed = time.Since(start)
	p.heap = hw.stop()
	r.verifyAwaited(p)
	return p
}

// libraryOp parses and synthesizes one input at library defaults,
// applies the in-loop checks and adds the operation to p, leaving its
// circuit's verification to the end of the phase. The latency covers
// parse and synthesis only; a failed operation keeps its elapsed time.
// In a traced phase the operation runs under a benchmark-owned tracer
// and collector.
func (r *runner) libraryOp(p *phase, in input) {
	op := int(r.ops.Add(1))
	store := p.store
	opt := asyncsyn.Options{Method: in.method, Timeout: r.timeout}
	var (
		rec    *opRecord
		tr     *opTracer
		m      *asyncsyn.Metrics
		before runtime.MemStats
		opSpan int
	)
	if store != nil {
		rec = &opRecord{}
		m = asyncsyn.NewMetrics()
		opt.Metrics = m
		runtime.ReadMemStats(&before)
		opSpan = store.begin(op, 0, "op")
	}

	start := time.Now()
	var (
		s   *asyncsyn.STG
		c   *asyncsyn.Circuit
		err error
	)
	ps := store.begin(op, opSpan, "parse")
	s, err = asyncsyn.ParseSTGString(in.src)
	store.end(ps, errString(err))
	if err == nil {
		ss := store.begin(op, opSpan, "synthesize")
		if store != nil {
			tr = newOpTracer(store, op, ss)
			opt.Tracer = tr
		}
		c, err = asyncsyn.Synthesize(s, opt)
		store.end(ss, errString(err))
	}
	// A failed synthesis keeps the spans it produced; stage spans still
	// open are closed where it died.
	var stage, output string
	if err != nil && tr != nil {
		stage, output = tr.abort(err.Error())
	}
	lat := time.Since(start)
	store.end(opSpan, errString(err))

	if store != nil {
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		rec.latency = lat
		rec.counters = m.Map()
		rec.alloc = after.TotalAlloc - before.TotalAlloc
		rec.gcs = after.NumGC - before.NumGC
	}

	d, err := r.checkOutcome(in, c, err)
	if err != nil {
		r.fail(op, in.key, err, stage, output)
	} else {
		p.await(r, op, in, d, s, c)
	}
	p.add(lat, err, rec)
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// heapWatch samples the Go heap in use (HeapInuse) on a fixed interval
// during a timed phase.
type heapWatch struct {
	samples []float64 // MiB; written by the sampler, read after stop
	quit    chan struct{}
	done    chan struct{}
}

const heapInterval = 5 * time.Millisecond

func watchHeap() *heapWatch {
	w := &heapWatch{quit: make(chan struct{}), done: make(chan struct{})}
	w.sample()
	go func() {
		defer close(w.done)
		t := time.NewTicker(heapInterval)
		defer t.Stop()
		for {
			select {
			case <-w.quit:
				return
			case <-t.C:
				w.sample()
			}
		}
	}()
	return w
}

// heapInUse reads the bytes in in-use heap spans (MemStats.HeapInuse)
// through runtime/metrics, which does not stop the world.
var heapInUse = []metrics.Sample{
	{Name: "/memory/classes/heap/objects:bytes"},
	{Name: "/memory/classes/heap/unused:bytes"},
}

func (w *heapWatch) sample() {
	s := append([]metrics.Sample(nil), heapInUse...)
	metrics.Read(s)
	w.samples = append(w.samples, float64(s[0].Value.Uint64()+s[1].Value.Uint64())/mib)
}

// stop ends sampling, waits for the sampler and returns every sample.
func (w *heapWatch) stop() []float64 {
	close(w.quit)
	<-w.done
	w.sample()
	return w.samples
}
