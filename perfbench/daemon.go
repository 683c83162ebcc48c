package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"asyncsyn"
	"asyncsyn/internal/server"
)

// daemonClients is the number of closed-loop clients posting to the
// in-process daemon, sized for a 2-CPU host.
const daemonClients = 2

// daemon is an in-process internal/server handler on a loopback
// listener, sharing the benchmark's process.
type daemon struct {
	srv    *server.Server
	hs     *http.Server
	url    string
	client *http.Client
	served chan struct{}
}

func startDaemon() (*daemon, error) {
	srv, err := server.New(server.Config{})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{
		srv: srv,
		hs:  &http.Server{Handler: srv.Handler()},
		url: "http://" + ln.Addr().String(),
		client: &http.Client{
			Timeout:   150 * time.Second,
			Transport: &http.Transport{MaxIdleConnsPerHost: daemonClients},
		},
		served: make(chan struct{}),
	}
	go func() {
		defer close(d.served)
		d.hs.Serve(ln)
	}()
	return d, nil
}

// close drains the daemon, stops the listener and waits for the serve
// loop to return.
func (d *daemon) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	d.srv.Shutdown(ctx)
	d.hs.Shutdown(ctx)
	<-d.served
	d.client.CloseIdleConnections()
}

// post sends one POST /v1/synthesize and decodes the reply.
func (d *daemon) post(in input, traced bool, timeout time.Duration) (*server.Response, int, error) {
	req := server.Request{Method: in.method.String()}
	if in.bench != "" {
		req.Bench = in.bench
	} else {
		req.STG = in.src
	}
	if timeout > 0 {
		req.Timeout = timeout.String()
	}
	body, err := json.Marshal(req)
	if err != nil {
		return nil, 0, err
	}
	url := d.url + "/v1/synthesize"
	if traced {
		url += "?trace=1"
	}
	hr, err := d.client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	defer hr.Body.Close()
	var resp server.Response
	if err := json.NewDecoder(hr.Body).Decode(&resp); err != nil {
		return nil, hr.StatusCode, fmt.Errorf("decode reply: %w", err)
	}
	return &resp, hr.StatusCode, nil
}

// scrape reads the unlabelled series of GET /metrics.
func (d *daemon) scrape() (map[string]float64, error) {
	hr, err := d.client.Get(d.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer hr.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(hr.Body)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 2 || strings.HasPrefix(f[0], "#") || strings.Contains(f[0], "{") {
			continue
		}
		v, err := strconv.ParseFloat(f[1], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", sc.Text(), err)
		}
		out[f[0]] = v
	}
	return out, sc.Err()
}

// warm posts every Table 1 input once, filling the shared solve cache;
// each reply becomes the run's first synthesis of its input.
func (r *runner) warm(d *daemon, table1 []input) error {
	for _, in := range table1 {
		resp, status, err := d.post(in, false, r.timeout)
		if err == nil {
			err = r.checkReply(in, resp, status)
		}
		if err != nil {
			return fmt.Errorf("warm %s: %w", in.key, err)
		}
	}
	return nil
}

// warmRandomSpecs is how many stg.Random specifications (generator
// seeds 0 to warmRandomSpecs-1) set-up posts after Table 1. At two
// branches at most the generator yields few distinct module problems:
// seeds 0 to 124 reach every one that seeded request streams reach (no
// miss in 5 000 further specifications). So every run starts from the
// same cache state and its requests are served from the cache.
const warmRandomSpecs = 256

// warmRandom posts the warm-up stg.Random specifications.
func (r *runner) warmRandom(d *daemon) error {
	for seed := range int64(warmRandomSpecs) {
		in, err := randomInput(seed)
		if err != nil {
			return err
		}
		resp, status, err := d.post(in, false, r.timeout)
		if err == nil {
			err = r.checkReply(in, resp, status)
		}
		if err != nil {
			return fmt.Errorf("warm %s: %w", in.key, err)
		}
	}
	return nil
}

// checkReply checks one daemon reply: a 200 without abort, and for a
// Table 1 input a digest equal to the run's first synthesis of it.
// Fresh random inputs are checked after the phase (checkPending).
func (r *runner) checkReply(in input, resp *server.Response, status int) error {
	if status != http.StatusOK {
		return fmt.Errorf("HTTP %d: %s", status, resp.Error)
	}
	if resp.Aborted || resp.Digest == "" {
		return fmt.Errorf("reply without digest (aborted %v)", resp.Aborted)
	}
	return r.checkDigest(in.key, resp.Digest, resp.Area, resp.StateSignals)
}

// pending is a served random input whose circuit is checked after the
// timed phase.
type pending struct {
	op int
	in input
}

// checkLibrary synthesizes an input through the library and checks it
// against the run's first synthesis (for a daemon input, the reply) and
// by closed-loop verification. It runs the pipeline sequentially
// (Workers 1), which gives the same circuit as any worker count.
func (r *runner) checkLibrary(in input) error {
	s, err := asyncsyn.ParseSTGString(in.src)
	if err != nil {
		return err
	}
	c, err := asyncsyn.Synthesize(s, asyncsyn.Options{Method: in.method, Timeout: r.timeout, Workers: 1})
	return r.checkCircuit(in, s, c, err)
}

// checkPending checks the served random inputs after the timed phase,
// one sequential library synthesis per daemon client at a time, and
// returns how many failed.
func (r *runner) checkPending(waiting []pending) int {
	var (
		wg     sync.WaitGroup
		next   atomic.Int64
		failed atomic.Int64
	)
	for range daemonClients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(waiting); i = int(next.Add(1)) - 1 {
				w := waiting[i]
				if err := r.checkLibrary(w.in); err != nil {
					failed.Add(1)
					r.fail(w.op, w.in.key, err, "", "")
				}
			}
		}()
	}
	wg.Wait()
	return int(failed.Load())
}

// daemonPhase runs daemonClients closed-loop clients against the daemon
// until dur has elapsed (at least one request each). Each client takes
// its requests from its own seeded sequence. Random inputs are verified
// after the clock stops.
func (r *runner) daemonPhase(d *daemon, seqs []*requestSeq, dur time.Duration, traced bool) (*phase, error) {
	p := &phase{}
	var before map[string]float64
	var ms0 runtime.MemStats
	if traced {
		p.store = newSpanStore()
		var err error
		if before, err = d.scrape(); err != nil {
			return nil, err
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	hw := watchHeap()
	var (
		mu      sync.Mutex
		wg      sync.WaitGroup
		waiting []pending
	)
	start := time.Now()
	for _, seq := range seqs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				lat, err, rec, pend := r.daemonOp(d, seq, p.store)
				mu.Lock()
				p.add(lat, err, rec)
				if pend != nil {
					waiting = append(waiting, *pend)
				}
				mu.Unlock()
				if time.Since(start) >= dur {
					return
				}
			}
		}()
	}
	wg.Wait()
	p.elapsed = time.Since(start)
	p.heap = hw.stop()
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	p.alloc, p.gcs = ms1.TotalAlloc-ms0.TotalAlloc, ms1.NumGC-ms0.NumGC
	if traced {
		after, err := d.scrape()
		if err != nil {
			return nil, err
		}
		p.server = map[string]float64{}
		for k, v := range after {
			p.server[k] = v - before[k]
		}
	}
	p.failed += r.checkPending(waiting)
	return p, nil
}

// daemonOp takes the client's next request, sends it and checks the
// reply. The latency is the client's round trip; a failed request keeps
// it. In the traced phase the benchmark also times ParseSTGString on
// the request's specification (outside the round trip), asks for the
// daemon's ?trace=1 section and rebuilds the stage and formula spans
// from it.
func (r *runner) daemonOp(d *daemon, seq *requestSeq, store *spanStore) (time.Duration, error, *opRecord, *pending) {
	op := int(r.ops.Add(1))
	in, err := seq.next()
	if err != nil {
		r.fail(op, "random", err, "", "")
		return 0, err, nil, nil
	}
	traced := store != nil
	if traced {
		ps := store.begin(op, 0, "parse")
		_, perr := asyncsyn.ParseSTGString(in.src)
		store.end(ps, errString(perr))
	}
	reqSpan := store.begin(op, 0, "request")
	start := time.Now()
	resp, status, err := d.post(in, traced, r.timeout)
	lat := time.Since(start)
	if err == nil {
		err = r.checkReply(in, resp, status)
	}
	store.end(reqSpan, errString(err))

	var rec *opRecord
	var stage, output string
	if traced && resp != nil {
		rec = &opRecord{latency: lat, counters: resp.Counters, cpuMS: resp.CPUMS}
		stage, output = replayTrace(store, op, reqSpan, resp)
	}
	if err != nil {
		r.fail(op, in.key, err, stage, output)
		return lat, err, rec, nil
	}
	if in.bench == "" {
		return lat, nil, rec, &pending{op: op, in: in}
	}
	return lat, nil, rec, nil
}

// traceEvent is the wire form of one ?trace=1 event.
type traceEvent struct {
	Type   string  `json:"type"`
	Method string  `json:"method"`
	Stage  string  `json:"stage"`
	Output string  `json:"output"`
	Status string  `json:"status"`
	MS     float64 `json:"ms"`
	Err    string  `json:"err"`
}

// replayTrace records a reply's stage and formula events as unplaced
// spans under the request span and returns the last stage started and
// the last output a formula was solved for.
func replayTrace(store *spanStore, op, parent int, resp *server.Response) (stage, output string) {
	for _, raw := range resp.Trace {
		var e traceEvent
		if json.Unmarshal(raw, &e) != nil {
			continue
		}
		dur := time.Duration(e.MS * float64(time.Millisecond))
		switch e.Type {
		case "stage_start":
			stage = e.Stage
		case "stage_end":
			store.add(span{Op: op, Parent: parent, Name: e.Stage, Method: e.Method, Dur: dur, Err: e.Err})
		case "formula":
			output = e.Output
			store.add(span{Op: op, Parent: parent, Name: "formula", Method: e.Method, Stage: e.Stage,
				Output: e.Output, Dur: dur, Err: statusErr(e.Status)})
		}
	}
	return stage, output
}
