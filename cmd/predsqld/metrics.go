package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"sync"

	"repro/internal/obs"
)

// The /metrics surface: every counter the server already keeps (admission,
// resilience, catalog) is exposed as Prometheus text exposition via
// scrape-time collectors over the same atomics GET /stats reads, plus two
// histogram families the handlers feed directly — query latency and
// per-UDF invocation duration. Collectors read live state, so /metrics
// needs no second bookkeeping path that could drift from /stats.

// registerMetrics wires the server's state into its registry. Called once
// from newServer; collectors run at scrape time.
func (s *server) registerMetrics() {
	reg := s.metrics
	s.queryDur = reg.Histogram("predsqld_query_duration_seconds",
		"Wall time of executed queries (excludes admission waiting).", obs.DefBuckets)

	reg.Collect("predsqld_queries_total", "Queries by outcome.", "counter", func() []obs.Sample {
		status := func(name string, v int64) obs.Sample {
			return obs.Sample{Labels: []obs.Label{{Name: "status", Value: name}}, Value: float64(v)}
		}
		return []obs.Sample{
			status("ok", s.served.Load()),
			status("error", s.failed.Load()),
			status("timeout", s.timeouts.Load()),
			status("rejected", s.rejected.Load()),
			status("disconnect", s.disconnects.Load()),
		}
	})
	reg.GaugeFunc("predsqld_in_flight",
		"Queries currently executing (post-admission).",
		func() float64 { return float64(s.inflight.Load()) })
	reg.GaugeFunc("predsqld_admission_waiting",
		"Queries queued for an execution slot right now.",
		func() float64 { return float64(s.waiting.Load()) })
	reg.GaugeFunc("predsqld_max_concurrent",
		"Admission-control width (-max-concurrent).",
		func() float64 { return float64(s.cfg.MaxConcurrent) })

	// Batch execution observability, read live off the engine's atomics.
	reg.GaugeFunc("predsqld_batches_in_flight",
		"Result batches currently being processed downstream of the engine.",
		func() float64 {
			inFlight, _, _ := s.db.Engine().BatchCounters()
			return float64(inFlight)
		})
	reg.GaugeFunc("predsqld_peak_batch_rows",
		"Largest result batch (in rows) any query has emitted.",
		func() float64 {
			_, peak, _ := s.db.Engine().BatchCounters()
			return float64(peak)
		})
	reg.Collect("predsqld_batches_total",
		"Result batches emitted by the engine, for buffered and streamed queries alike.", "counter",
		func() []obs.Sample {
			_, _, total := s.db.Engine().BatchCounters()
			return []obs.Sample{{Value: float64(total)}}
		})

	reg.Collect("predsqld_udf_retries_total",
		"UDF retry attempts summed over all queries.", "counter",
		func() []obs.Sample { return []obs.Sample{{Value: float64(s.retries.Load())}} })
	reg.Collect("predsqld_failed_rows_total",
		"Rows whose UDF invocation ultimately failed, summed over all queries.", "counter",
		func() []obs.Sample { return []obs.Sample{{Value: float64(s.failedRows.Load())}} })
	reg.Collect("predsqld_degraded_queries_total",
		"Queries answered with a partial (degraded) result.", "counter",
		func() []obs.Sample { return []obs.Sample{{Value: float64(s.degraded.Load())}} })
	reg.Collect("predsqld_handler_panics_total",
		"Handler panics recovered by the middleware.", "counter",
		func() []obs.Sample { return []obs.Sample{{Value: float64(s.panics.Load())}} })

	// Breaker state transitions (trips) and current position, one series per
	// (table, UDF) breaker. BreakerStatuses returns in sorted order.
	breakerLabels := func(table, udf string) []obs.Label {
		return []obs.Label{{Name: "table", Value: table}, {Name: "udf", Value: udf}}
	}
	reg.Collect("predsqld_breaker_trips_total",
		"Closed-to-open transitions per circuit breaker.", "counter",
		func() []obs.Sample {
			var out []obs.Sample
			for _, b := range s.db.BreakerStatuses() {
				out = append(out, obs.Sample{Labels: breakerLabels(b.Table, b.UDF), Value: float64(b.Trips)})
			}
			return out
		})
	reg.Collect("predsqld_breaker_open",
		"1 when the breaker is open or half-open (shedding or probing), 0 when closed.", "gauge",
		func() []obs.Sample {
			var out []obs.Sample
			for _, b := range s.db.BreakerStatuses() {
				v := 0.0
				if b.State != "closed" {
					v = 1.0
				}
				out = append(out, obs.Sample{Labels: breakerLabels(b.Table, b.UDF), Value: v})
			}
			return out
		})

	reg.Collect("predsqld_cache_total",
		"Cross-query outcome cache lookups by result.", "counter",
		func() []obs.Sample {
			cc := s.db.CacheCounters()
			return []obs.Sample{
				{Labels: []obs.Label{{Name: "result", Value: "hit"}}, Value: float64(cc.Hits)},
				{Labels: []obs.Label{{Name: "result", Value: "miss"}}, Value: float64(cc.Misses)},
			}
		})
	reg.Collect("predsqld_catalog_flushes_total",
		"Completed catalog flushes.", "counter",
		func() []obs.Sample { return []obs.Sample{{Value: float64(s.flushes.Load())}} })
	reg.Collect("predsqld_catalog_flush_errors_total",
		"Failed catalog flushes.", "counter",
		func() []obs.Sample { return []obs.Sample{{Value: float64(s.flushErrors.Load())}} })
}

// instrumentUDF wraps a fallible UDF body so every invocation's wall time
// lands in the per-UDF duration histogram. The observation covers one
// attempt (retries observe once each), so the histogram reflects what the
// predicate actually costs per call.
func instrumentUDF(reg *obs.Registry, name string, body func(context.Context, any) (bool, error)) func(context.Context, any) (bool, error) {
	h := reg.Histogram("predsqld_udf_duration_seconds",
		"UDF invocation wall time per attempt, by UDF.", obs.DefBuckets,
		obs.Label{Name: "udf", Value: name})
	return func(ctx context.Context, v any) (bool, error) {
		start := obs.Now()
		defer h.ObserveSince(start)
		return body(ctx, v)
	}
}

// instrumentPredicate is instrumentUDF for an infallible predicate body
// (the non-chaos registration path).
func instrumentPredicate(reg *obs.Registry, name string, body func(any) bool) func(any) bool {
	h := reg.Histogram("predsqld_udf_duration_seconds",
		"UDF invocation wall time per attempt, by UDF.", obs.DefBuckets,
		obs.Label{Name: "udf", Value: name})
	return func(v any) bool {
		start := obs.Now()
		defer h.ObserveSince(start)
		return body(v)
	}
}

// handleMetrics serves the registry as Prometheus text exposition
// (format 0.0.4). Scraping is lock-brief and safe while queries run.
func (s *server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.metrics.WriteExposition(w); err != nil {
		// The header is already out; nothing useful left to send.
		return
	}
}

// traceLogger appends one JSON line per traced query to -trace-log. A
// mutex serializes whole lines, so concurrent queries never interleave.
type traceLogger struct {
	mu sync.Mutex
	w  io.Writer
}

// traceRecord is one -trace-log line.
type traceRecord struct {
	SQL   string         `json:"sql"`
	Spans []obs.SpanJSON `json:"spans"`
}

func (l *traceLogger) log(sql string, spans []obs.SpanJSON) {
	if l == nil {
		return
	}
	line, err := json.Marshal(traceRecord{SQL: sql, Spans: spans})
	if err != nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	_, _ = l.w.Write(append(line, '\n'))
}
