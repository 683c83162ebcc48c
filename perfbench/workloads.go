package main

import (
	"fmt"
	"math/rand"
	"strings"

	"asyncsyn"
	"asyncsyn/internal/bench"
	"asyncsyn/internal/stg"
)

// input is one synthesis problem as the program receives it: ".g" text
// and a method. key names the distinct input; every operation on the
// same key must reproduce the digest of the run's first one.
type input struct {
	key    string
	src    string
	bench  string // Table 1 name, when the input is an embedded benchmark
	method asyncsyn.Method
}

// workload is one named set of inputs and the way the benchmark drives
// them: library workloads through one closed-loop caller, the daemon
// workload through daemonClients closed-loop HTTP clients.
type workload struct {
	name string
	// inputs returns the workload's distinct inputs. Library workloads
	// run them in passes, each in its own seeded order (passOrder); the
	// daemon workload's requests name them in a seeded sequence.
	inputs func() ([]input, error)
	// daemon marks the workload served through the in-process HTTP
	// daemon instead of library calls.
	daemon bool
}

// verifyStates bounds the closed-loop product exploration of
// Circuit.Verify (the bound cmd/modsyn uses).
const verifyStates = 200000

var workloads = []workload{
	{
		name:   "handshake-k5",
		inputs: handshakeInputs,
	},
	{
		name:   "table1-modular",
		inputs: table1ModularInputs,
	},
	{
		name:   "daemon-mixed",
		inputs: table1ModularInputs,
		daemon: true,
	},
	{
		name:   "table1-baselines",
		inputs: table1BaselineInputs,
	},
}

// setupInputs generates a workload's inputs and checks that each one
// parses and validates, so no timed operation fails on a malformed
// input.
func setupInputs(w workload) ([]input, error) {
	ins, err := w.inputs()
	if err != nil {
		return nil, err
	}
	for _, in := range ins {
		s, err := asyncsyn.ParseSTGString(in.src)
		if err == nil {
			err = s.Validate()
		}
		if err != nil {
			return nil, fmt.Errorf("input %s: %w", in.key, err)
		}
	}
	return ins, nil
}

func workloadByName(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// handshakeInputs is modular synthesis of stg.Handshakes(k=5, rounds=2).
func handshakeInputs() ([]input, error) {
	g, err := stg.Handshakes("", 5, 2)
	if err != nil {
		return nil, err
	}
	return []input{{key: "modular/" + g.Name, src: stg.Format(g), method: asyncsyn.Modular}}, nil
}

// table1ModularInputs is the 23 embedded Table 1 STGs under the
// modular method.
func table1ModularInputs() ([]input, error) { return table1Inputs(asyncsyn.Modular, nil) }

// baselineExcluded lists the baseline runs the table1-baselines pass
// leaves out. The three Direct runs each take 13–31 s on a 2-CPU host
// (67 s together), longer than one benchmark run; the Lavagno run on
// mr0 ends in a deterministic backtrack-limit abort, and a benchmark run
// admits no failed operation.
var baselineExcluded = map[string]bool{
	"direct/mr0":  true,
	"direct/mr1":  true,
	"direct/mmu0": true,
	"lavagno/mr0": true,
}

// table1BaselineInputs is the Direct and Lavagno methods over the Table
// 1 STGs, less baselineExcluded.
func table1BaselineInputs() ([]input, error) {
	var ins []input
	for _, m := range []asyncsyn.Method{asyncsyn.Direct, asyncsyn.Lavagno} {
		part, err := table1Inputs(m, baselineExcluded)
		if err != nil {
			return nil, err
		}
		ins = append(ins, part...)
	}
	return ins, nil
}

func table1Inputs(m asyncsyn.Method, exclude map[string]bool) ([]input, error) {
	var ins []input
	for _, name := range bench.Names() {
		key := m.String() + "/" + name
		if exclude[key] {
			continue
		}
		src, err := bench.Source(name)
		if err != nil {
			return nil, err
		}
		ins = append(ins, input{key: key, src: src, bench: name, method: m})
	}
	return ins, nil
}

// passOrder draws the order of each library pass from the seed: every
// pass is a fresh permutation of the distinct inputs, so a run averages
// over many orders instead of measuring one.
type passOrder struct{ rng *rand.Rand }

func newPassOrder(seed int64) *passOrder { return &passOrder{rand.New(rand.NewSource(seed))} }

func (o *passOrder) next(ins []input) []input {
	p := append([]input(nil), ins...)
	o.rng.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// randomInput returns the fresh stg.Random specification with the given
// generator seed. Two branches at most keep the cost light-tailed (about
// 3 ms, none above 25 ms); at the default three, one specification in a
// hundred takes over 100 ms and the run-to-run spread of the daemon's
// throughput doubles.
func randomInput(genSeed int64) (input, error) {
	g, err := stg.Random(genSeed, stg.RandomOptions{MaxBranches: 2, TwoRounds: true})
	if err != nil {
		return input{}, err
	}
	return input{key: "modular/" + g.Name, src: stg.Format(g), method: asyncsyn.Modular}, nil
}

// requestSeq is one daemon client's seeded request sequence: blocks of
// four requests, three naming a Table 1 benchmark and one (at a seeded
// position) carrying a fresh stg.Random specification.
type requestSeq struct {
	rng    *rand.Rand
	table1 []input
	block  [4]int // index into table1, or -1 for the random slot
	pos    int
}

func newRequestSeq(seed int64, client int, table1 []input) *requestSeq {
	return &requestSeq{rng: rand.New(rand.NewSource(seed*1000003 + int64(client))), table1: table1, pos: 4}
}

func (q *requestSeq) next() (input, error) {
	if q.pos == 4 {
		q.pos = 0
		slot := q.rng.Intn(4)
		for i := range q.block {
			q.block[i] = q.rng.Intn(len(q.table1))
			if i == slot {
				q.block[i] = -1
			}
		}
	}
	i := q.block[q.pos]
	q.pos++
	if i >= 0 {
		return q.table1[i], nil
	}
	// Non-negative and practically never repeated: every random request
	// is a new specification to parse, validate and hash, though its
	// module problems are served from the cache warmed in set-up.
	return randomInput(q.rng.Int63n(1 << 40))
}
