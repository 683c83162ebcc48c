package main

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"

	"asyncsyn"
)

// span is one timed interval of the traced run. Start and End are
// offsets from the store's epoch. Spans the benchmark times itself
// (operations, parses, verifications, pipeline stages seen through the
// tracer hook) are placed; spans rebuilt from reported durations alone
// (a daemon reply's stage list) are not, and carry only Dur.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"` // 0 = root
	Op     int           `json:"op"`     // operation id shared by every span of one operation
	Name   string        `json:"name"`
	Method string        `json:"method,omitempty"`
	Stage  string        `json:"stage,omitempty"`  // formula spans: the stage that emitted it
	Output string        `json:"output,omitempty"` // formula spans: the output whose module produced it
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"` // -1 while open
	Dur    time.Duration `json:"dur_ns"` // reported duration (formula events, daemon stages)
	Placed bool          `json:"placed"`
	Err    string        `json:"err,omitempty"`
}

// duration is the span's measured length: End−Start for placed spans,
// the reported duration otherwise.
func (s span) duration() time.Duration {
	if s.Placed && s.Dur == 0 {
		return s.End - s.Start
	}
	return s.Dur
}

// spanStore keeps every span of a traced run in memory; it is written
// out once, when the run ends. Safe for concurrent use.
type spanStore struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newSpanStore() *spanStore { return &spanStore{epoch: time.Now()} }

func (st *spanStore) now() time.Duration { return time.Since(st.epoch) }

// begin opens a placed span and returns its id.
// On a nil store (tracing off) it does nothing and returns 0.
func (st *spanStore) begin(op, parent int, name string) int {
	if st == nil {
		return 0
	}
	return st.add(span{Op: op, Parent: parent, Name: name, Start: st.now(), End: -1, Placed: true})
}

// end closes an open span, recording err when non-empty.
// No-op on a nil store.
func (st *spanStore) end(id int, err string) {
	if st == nil {
		return
	}
	t := st.now()
	st.mu.Lock()
	defer st.mu.Unlock()
	if id <= 0 || id > len(st.spans) {
		return
	}
	sp := &st.spans[id-1]
	if sp.End < 0 {
		sp.End = t
		sp.Err = err
	}
}

// add appends a span and returns its id (1-based; 0 means "no span").
func (st *spanStore) add(sp span) int {
	st.mu.Lock()
	defer st.mu.Unlock()
	sp.ID = len(st.spans) + 1
	st.spans = append(st.spans, sp)
	return sp.ID
}

// snapshot returns a copy of every span.
func (st *spanStore) snapshot() []span {
	st.mu.Lock()
	defer st.mu.Unlock()
	return append([]span(nil), st.spans...)
}

// writeJSONL writes one span per line.
func (st *spanStore) writeJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, sp := range st.snapshot() {
		if err := enc.Encode(sp); err != nil {
			return err
		}
	}
	return nil
}

// opTracer is the asyncsyn.Tracer the benchmark attaches to one
// operation: stage events open and close stage spans under the
// operation's synthesis span; formula events become spans ending when
// they are received and lasting their reported duration. Under the
// speculative scheduler formula events are replayed at commit, so their
// placement is approximate; their durations are exact.
type opTracer struct {
	store  *spanStore
	op     int
	parent int

	mu         sync.Mutex
	open       map[string]int
	lastStage  string
	lastOutput string
}

var _ asyncsyn.Tracer = (*opTracer)(nil)

func newOpTracer(store *spanStore, op, parent int) *opTracer {
	return &opTracer{store: store, op: op, parent: parent, open: map[string]int{}}
}

func (t *opTracer) StageStart(e asyncsyn.StageEvent) {
	id := t.store.add(span{Op: t.op, Parent: t.parent, Name: e.Stage, Method: e.Method,
		Start: t.store.now(), End: -1, Placed: true})
	t.mu.Lock()
	t.open[e.Stage] = id
	t.lastStage = e.Stage
	t.mu.Unlock()
}

func (t *opTracer) StageEnd(e asyncsyn.StageEvent) {
	t.mu.Lock()
	id := t.open[e.Stage]
	delete(t.open, e.Stage)
	t.mu.Unlock()
	t.store.end(id, e.Err)
}

func (t *opTracer) FormulaSolved(e asyncsyn.FormulaEvent) {
	end := t.store.now()
	t.mu.Lock()
	parent, ok := t.open[e.Stage]
	if !ok {
		parent = t.parent
	}
	t.lastOutput = e.Output
	t.mu.Unlock()
	t.store.add(span{Op: t.op, Parent: parent, Name: "formula", Method: e.Method, Stage: e.Stage, Output: e.Output,
		Start: end - e.Duration, End: end, Dur: e.Duration, Placed: true, Err: statusErr(e.Status)})
}

func statusErr(status string) string {
	if status == "SAT" || status == "UNSAT" {
		return ""
	}
	return status
}

// abort closes every stage span still open when the operation failed,
// so a failed operation keeps the spans it produced, and returns where
// it died: the innermost stage reached and the last output a formula
// was solved for.
func (t *opTracer) abort(err string) (stage, output string) {
	t.mu.Lock()
	open := t.open
	t.open = map[string]int{}
	stage, output = t.lastStage, t.lastOutput
	t.mu.Unlock()
	for _, id := range open {
		t.store.end(id, err)
	}
	return stage, output
}

// selfTime is a span's duration minus the union of the parts of its
// children's intervals that lie inside it. Unplaced children are
// ignored: they have no interval.
func selfTime(parent span, children []span) time.Duration {
	return parent.End - parent.Start - covered(parent.Start, parent.End, children)
}

// covered returns how much of [lo, hi) the union of the placed spans
// covers.
func covered(lo, hi time.Duration, spans []span) time.Duration {
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, c := range spans {
		if !c.Placed || c.End < 0 {
			continue
		}
		a, b := max(c.Start, lo), min(c.End, hi)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total time.Duration
	cur := iv{-1, -1}
	for _, v := range ivs {
		if v.a > cur.b {
			total += cur.b - cur.a
			cur = v
		} else if v.b > cur.b {
			cur.b = v.b
		}
	}
	return total + cur.b - cur.a
}
