package main

import (
	"math"
	"time"
)

// metric is one reported number with its unit and the sample count it
// rests on.
type metric struct {
	name  string
	unit  string
	value float64
	n     int
}

const mib = 1 << 20

// stageSpans maps the pipeline stage names seen through the tracer hook
// to their per-layer metric. The whole-graph "csc" stage is split by
// method: csc.Solve under Direct, lavagno.Solve under Lavagno.
var stageSpans = map[string]string{
	"elaborate":   "sg.elaborate_s",
	"expand":      "sg.expand_s",
	"modules":     "core.modules_s",
	"residual":    "csc.residual_s",
	"logic":       "logic.derive_s",
	"csc/direct":  "csc.solve_s",
	"csc/lavagno": "lavagno.solve_s",
}

func stageMetric(sp span) (string, bool) {
	name := sp.Name
	if name == "csc" {
		name += "/" + sp.Method
	}
	m, ok := stageSpans[name]
	return m, ok
}

// perOpCounters maps collector counters (schema names) to the per-layer
// metrics reported as a per-operation mean.
var perOpCounters = []struct{ counter, metric string }{
	{"sg_states", "sg.states"},
	{"sg_states_streamed", "sg.states_streamed"},
	{"modules", "core.modules"},
	{"sat_formulas", "sat.formulas"},
	{"sat_decisions", "sat.decisions"},
	{"sat_conflicts", "sat.conflicts"},
	{"sat_propagations", "sat.propagations"},
	{"sat_vars", "sat.vars"},
	{"sat_clauses", "sat.clauses"},
	{"espresso_expand", "logic.espresso_expand"},
	{"espresso_reduce", "logic.espresso_reduce"},
}

// sharedCounters are counters a library operation reads from its own
// collector and a daemon phase reads from /metrics (the daemon's shared
// collector), reported as a per-operation mean.
var sharedCounters = []struct{ counter, metric string }{
	{"modcache_hits", "modcache.hits"},
	{"modcache_misses", "modcache.misses"},
	{"modspec_commits", "core.modspec_commits"},
	{"modspec_aborts", "core.modspec_aborts"},
	{"modspec_resolves", "core.modspec_resolves"},
}

// layerMetrics derives the per-layer metrics of a traced phase from its
// spans, its per-operation records and (daemon) its /metrics deltas.
// untracedP50 is the untraced phase's median latency, for the tracing
// overhead. Layers that did not run on the workload read 0.
func layerMetrics(p *phase, untracedP50 float64) []metric {
	ops := len(p.records)
	perOp := func(x float64) float64 { return ratio(x, float64(ops)) }
	spans := p.store.snapshot()

	stage := map[string]time.Duration{}
	var satAll, satModules, parse time.Duration
	parses := 0
	children := map[int][]span{}
	for _, sp := range spans {
		children[sp.Parent] = append(children[sp.Parent], sp)
		if m, ok := stageMetric(sp); ok {
			stage[m] += sp.duration()
		}
		switch sp.Name {
		case "formula":
			satAll += sp.Dur
			if sp.Stage == "modules" {
				satModules += sp.Dur
			}
		case "parse":
			parse += sp.duration()
			parses++
		}
	}

	// Stage coverage: the least share of any synthesis span covered by
	// its stage spans (one minus its self time).
	coverage := math.NaN()
	for _, sp := range spans {
		if sp.Name != "synthesize" || sp.End <= sp.Start {
			continue
		}
		var stages []span
		for _, c := range children[sp.ID] {
			if _, ok := stageMetric(c); ok {
				stages = append(stages, c)
			}
		}
		share := 1 - float64(selfTime(sp, stages))/float64(sp.End-sp.Start)
		if math.IsNaN(coverage) || share < coverage {
			coverage = share
		}
	}
	if math.IsNaN(coverage) {
		coverage = 0 // the daemon reports stage durations, not intervals
	}

	counters := map[string]float64{}
	var peakFrontier int64
	var alloc uint64
	var gcs uint32
	var overhead []float64
	for _, rec := range p.records {
		for k, v := range rec.counters {
			counters[k] += float64(v)
		}
		peakFrontier = max(peakFrontier, rec.counters["sg_peak_frontier"])
		alloc += rec.alloc
		gcs += rec.gcs
		if rec.cpuMS > 0 {
			overhead = append(overhead, ms(rec.latency)-rec.cpuMS)
		}
	}
	if p.server != nil {
		for _, c := range sharedCounters {
			counters[c.counter] = p.server["asyncsyn_"+c.counter]
		}
		alloc, gcs = p.alloc, p.gcs
	}

	secs := func(d time.Duration) float64 { return perOp(d.Seconds()) }
	out := []metric{
		{name: "stg.parse_ms", unit: "ms", value: ratio(ms(parse), float64(parses)), n: parses},
	}
	for _, name := range []string{"sg.elaborate_s", "sg.expand_s"} {
		out = append(out, metric{name: name, unit: "s", value: secs(stage[name]), n: ops})
	}
	out = append(out, metric{name: "sg.peak_frontier", unit: "count", value: float64(peakFrontier), n: ops})
	out = append(out,
		metric{name: "core.modules_s", unit: "s", value: secs(stage["core.modules_s"]), n: ops},
		metric{name: "core.modules_self_s", unit: "s", value: secs(stage["core.modules_s"] - satModules), n: ops},
		metric{name: "core.stage_coverage", unit: "ratio", value: coverage, n: ops},
	)
	for _, c := range append(perOpCounters, sharedCounters...) {
		out = append(out, metric{name: c.metric, unit: "count", value: perOp(counters[c.counter]), n: ops})
	}
	commits, aborts, resolves := counters["modspec_commits"], counters["modspec_aborts"], counters["modspec_resolves"]
	hits, misses := counters["modcache_hits"], counters["modcache_misses"]
	out = append(out,
		metric{name: "core.modspec_useful_ratio", unit: "ratio", value: ratio(commits, commits+aborts+resolves), n: ops},
		metric{name: "modcache.hit_ratio", unit: "ratio", value: ratio(hits, hits+misses), n: ops},
		metric{name: "sat.solve_s", unit: "s", value: secs(satAll), n: ops},
		metric{name: "sat.decisions_per_s", unit: "1/s", value: ratio(counters["sat_decisions"], satAll.Seconds()), n: ops},
	)
	for _, name := range []string{"csc.solve_s", "lavagno.solve_s", "csc.residual_s", "logic.derive_s"} {
		out = append(out, metric{name: name, unit: "s", value: secs(stage[name]), n: ops})
	}
	overheadP50 := 0.0
	if len(overhead) > 0 {
		overheadP50 = median(overhead)
	}
	out = append(out,
		metric{name: "server.overhead_ms_p50", unit: "ms", value: overheadP50, n: len(overhead)},
		metric{name: "server.deduped", unit: "count", value: p.server["modsynd_deduped_total"], n: ops},
		metric{name: "server.rejected", unit: "count", value: p.server["modsynd_rejected_total"], n: ops},
		metric{name: "runtime.alloc_mib_per_op", unit: "MiB", value: perOp(float64(alloc) / mib), n: ops},
		metric{name: "runtime.gc_cycles", unit: "count", value: perOp(float64(gcs)), n: ops},
		metric{name: "trace.overhead_ms", unit: "ms", value: median(p.lat) - untracedP50, n: len(p.lat)},
		metric{name: "trace.ops", unit: "count", value: float64(ops), n: ops},
	)
	return out
}
