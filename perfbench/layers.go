package main

import (
	"fmt"
	"runtime"
)

// layers holds the per-layer metrics of a traced run. A layer the
// workload never reaches, or that is not observable from where the
// benchmark stands (the server's UDF bodies run in another process),
// reads 0.
type layers struct {
	parseUS, planUS                  float64
	scanNSPerRow, groupResolveMS     float64
	sampleMS, sampledPerQuery        float64
	solveMS                          float64
	probEvalMS, probEvalEvals        float64
	udfCallsPerQuery, udfBusyMS      float64
	udfPositiveRatio, udfInvokeNS    float64
	allocsPerRow                     float64
	udfWallShare, workerUtilization  float64
	renderNSPerCell                  float64
	cacheHitRatio                    float64
	catalogReopenMS, bytesPerVerdict float64
	retriesPerQuery, failedRows      float64
	serverMS, wireMS, bytesPerRow    float64
	traceOverheadMS                  float64
	plainP50, tracedP50              float64
	evalsPerQuery                    float64 // Stats.Evaluations, for comparison with UDF calls
}

// fromSpans fills the span-derived metrics (self times from the traced
// pass) and the Stats-derived ones (from the untraced pass).
func (l *layers) fromSpans(plain, traced *recorder) {
	l.scanNSPerRow = ratio(float64(traced.selfUS["op:scan"])*1e3, traced.scanRows)
	l.groupResolveMS = traced.spanMeanMS("op:group-resolve")
	l.sampleMS = traced.spanMeanMS("op:sample")
	l.solveMS = traced.spanMeanMS("op:solve")
	l.probEvalMS = traced.spanMeanMS("op:prob-eval")
	l.renderNSPerCell = ratio(float64(traced.selfUS["materialize"])*1e3, traced.renderCells)
	l.sampledPerQuery = mean(plain.sampled)
	l.evalsPerQuery = mean(plain.evals)
	l.probEvalEvals = mean(plain.probEvals)
	l.cacheHitRatio = ratio(plain.cacheHits, plain.cacheHits+plain.misses)
	queries := float64(len(plain.latencyMS))
	l.retriesPerQuery = ratio(plain.retries, queries)
	l.failedRows = plain.failed
	l.plainP50 = median(plain.latencyMS)
	l.tracedP50 = median(traced.latencyMS)
	l.traceOverheadMS = l.tracedP50 - l.plainP50
}

func (l *layers) metrics() []metric {
	return []metric{
		{Name: "sqlparse.parse_us", Unit: "us", Value: l.parseUS, Note: "(mean over the workload SQL of the median Parse)"},
		{Name: "plan.bind_plan_us", Unit: "us", Value: l.planUS, Note: "(mean over the workload SQL of the median Engine.Plan)"},
		{Name: "engine.scan_ns_per_row", Unit: "ns/row", Value: l.scanNSPerRow, Note: "(span op:scan ÷ table rows)"},
		{Name: "engine.group_resolve_ms", Unit: "ms", Value: l.groupResolveMS, Note: "(span op:group-resolve, per query running it)"},
		{Name: "core.sample_ms", Unit: "ms", Value: l.sampleMS, Note: "(span op:sample, per query running it)"},
		{Name: "core.sampled_per_query", Unit: "count", Value: l.sampledPerQuery, Note: "(Stats.Sampled, approximate queries)"},
		{Name: "solver.solve_ms", Unit: "ms", Value: l.solveMS, Note: "(span op:solve, per query running it)"},
		{Name: "core.prob_eval_ms", Unit: "ms", Value: l.probEvalMS, Note: "(span op:prob-eval, per query running it)"},
		{Name: "core.prob_eval_evals_per_query", Unit: "count", Value: l.probEvalEvals, Note: "(max(Evaluations − Sampled, 0), approximate queries)"},
		{Name: "udf.calls_per_query", Unit: "count", Value: l.udfCallsPerQuery,
			Note: fmt.Sprintf("(UDF body invocations; Stats.Evaluations: %.4g per query)", l.evalsPerQuery)},
		{Name: "udf.busy_ms_per_query", Unit: "ms", Value: l.udfBusyMS},
		{Name: "udf.positive_ratio", Unit: "ratio", Value: l.udfPositiveRatio},
		{Name: "udf.invoke_overhead_ns", Unit: "ns/call", Value: l.udfInvokeNS, Note: "((exact-eval + conj-waves − UDF busy) ÷ calls, exact shapes)"},
		{Name: "engine.allocs_per_row", Unit: "allocs/row", Value: l.allocsPerRow, Note: "(Mallocs delta ÷ rows in scope)"},
		{Name: "exec.udf_wall_share", Unit: "ratio", Value: l.udfWallShare, Note: "(union of UDF-call intervals ÷ query wall)"},
		{Name: "exec.worker_utilization", Unit: "ratio", Value: l.workerUtilization, Note: "(UDF busy ÷ (parallelism × union))"},
		{Name: "predeval.render_ns_per_cell", Unit: "ns/cell", Value: l.renderNSPerCell, Note: "(span materialize ÷ cells returned)"},
		{Name: "cache.hit_ratio", Unit: "ratio", Value: l.cacheHitRatio},
		{Name: "catalog.reopen_ms", Unit: "ms", Value: l.catalogReopenMS, Note: "(warm-life start to /healthz)"},
		{Name: "catalog.bytes_per_verdict", Unit: "B/verdict", Value: l.bytesPerVerdict},
		{Name: "resilience.retries_per_query", Unit: "count", Value: l.retriesPerQuery},
		{Name: "resilience.failed_rows", Unit: "count", Value: l.failedRows},
		{Name: "predsqld.server_ms", Unit: "ms", Value: l.serverMS, Note: "(/metrics query-duration sum ÷ count)"},
		{Name: "predsqld.wire_ms", Unit: "ms", Value: l.wireMS, Note: "(mean client latency − server_ms)"},
		{Name: "predsqld.bytes_per_row", Unit: "B/row", Value: l.bytesPerRow},
		{Name: "trace.overhead_ms", Unit: "ms", Value: l.traceOverheadMS,
			Note: fmt.Sprintf("(traced %.3f − untraced %.3f query_p50_ms)", l.tracedP50, l.plainP50)},
	}
}

// perLayer assembles an in-process workload's per-layer metrics.
func (w *libWorkload) perLayer(plain, traced *libPass, parseUS, planUS float64) []metric {
	l := layers{parseUS: parseUS, planUS: planUS}
	l.fromSpans(plain.rec, traced.rec)
	queries := float64(len(plain.rec.latencyMS))
	l.udfCallsPerQuery = ratio(float64(plain.udfCalls), queries)
	l.udfBusyMS = ratio(float64(plain.udfBusyNS)/1e6, queries)
	l.udfPositiveRatio = ratio(float64(plain.udfPositives), float64(plain.udfCalls))
	l.udfInvokeNS = ratio(float64(traced.invokeUS)*1e3-float64(traced.invokeBusyNS), float64(traced.invokeCalls))
	l.allocsPerRow = ratio(float64(plain.mallocs), plain.rec.scopeRows)
	l.udfWallShare = ratio(float64(plain.udfUnionNS), float64(plain.queryWallNS))
	par := w.parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	l.workerUtilization = ratio(float64(plain.udfBusyNS), float64(par)*float64(plain.udfUnionNS))
	return l.metrics()
}
