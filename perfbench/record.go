package main

import (
	"fmt"
	"time"

	predeval "repro"
)

// answer is one completed query as the client saw it.
type answer struct {
	ids      []int
	cells    [][]string
	stats    predeval.Stats
	latency  time.Duration
	firstRow time.Duration // streams only; 0 when no row arrived
	bytes    int           // response bytes (server workload only)
	spans    []span        // traced passes only
}

// recorder accumulates one pass of a workload's timed loop.
type recorder struct {
	ops        outcomes
	latencyMS  []float64
	byShape    map[string][]float64 // latency per shape name
	accByShape map[string][]accuracy
	firstRowMS []float64
	evals      []float64
	acc        []accuracy
	approxCost float64 // Σ Stats.Cost of approximate queries
	exactCost  float64 // Σ o_e × rows in scope of the same queries
	wall       time.Duration
	checkTime  time.Duration // spent verifying answers, excluded from wall

	// Layer counters.
	sampled, probEvals []float64 // approximate queries
	cacheHits, misses  float64
	retries, failed    float64
	rowsReturned       float64
	scopeRows          float64 // Σ rows in scope
	respBytes          float64
	selfUS             map[string]int64 // Σ span self time per span name
	spanQueries        map[string]int   // queries that recorded the span
	scanRows           float64          // Σ table rows of queries with op:scan
	renderCells        float64          // Σ cells of materialized answers
}

func newRecorder() *recorder {
	return &recorder{byShape: map[string][]float64{}, accByShape: map[string][]accuracy{}, selfUS: map[string]int64{}, spanQueries: map[string]int{}}
}

// add records one completed query of shape s and checks it. The returned
// error is a wrong answer, which fails the run.
func (r *recorder) add(s *shape, a *answer, tableRows int) error {
	start := time.Now()
	defer func() { r.checkTime += time.Since(start) }()
	if err := s.checkRows(a.ids, a.cells); err != nil {
		return fmt.Errorf("%w: %v", errWrongAnswer, err)
	}
	r.latencyMS = append(r.latencyMS, ms(a.latency))
	r.byShape[s.name] = append(r.byShape[s.name], ms(a.latency))
	if s.stream && a.firstRow > 0 {
		r.firstRowMS = append(r.firstRowMS, ms(a.firstRow))
	}
	st := a.stats
	r.evals = append(r.evals, float64(st.Evaluations))
	if s.approx {
		acc := realizedAccuracy(a.ids, s.scope, s.positive, s.weightOf, s.alpha, s.beta, s.checkRecall)
		r.acc = append(r.acc, acc)
		r.accByShape[s.name] = append(r.accByShape[s.name], acc)
		r.approxCost += st.Cost
		r.exactCost += s.exactCost
		r.sampled = append(r.sampled, float64(st.Sampled))
		// Cache-served samples are not charged, so Sampled can exceed
		// Evaluations; the paid prob-eval work is then at least 0.
		r.probEvals = append(r.probEvals, float64(max(st.Evaluations-st.Sampled, 0)))
	}
	r.cacheHits += float64(st.CacheHits)
	r.misses += float64(st.CacheMisses)
	r.retries += float64(st.Retries)
	r.failed += float64(st.FailedRows)
	r.rowsReturned += float64(len(a.ids))
	r.scopeRows += float64(len(s.scope))
	r.respBytes += float64(a.bytes)
	if len(a.spans) > 0 {
		self := selfTimes(a.spans)
		for name, us := range self {
			r.selfUS[name] += us
			r.spanQueries[name]++
		}
		if _, ok := self["op:scan"]; ok {
			r.scanRows += float64(tableRows)
		}
		if _, ok := self["materialize"]; ok {
			r.renderCells += float64(len(a.ids) * s.cols)
		}
	}
	return nil
}

// spanMeanMS is a span's mean self time per query that recorded it.
func (r *recorder) spanMeanMS(name string) float64 {
	return ratio(float64(r.selfUS[name])/1e3, float64(r.spanQueries[name]))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// shapeNotes summarizes latency per shape for the human-readable report.
func (r *recorder) shapeNotes() []string {
	var out []string
	for _, name := range sortedKeys(r.byShape) {
		xs := r.byShape[name]
		line := fmt.Sprintf("shape %-20s n=%-5d p50=%.3fms max=%.3fms", name, len(xs), median(xs), tailPercentile(xs, 0).Value)
		if as, ok := r.accByShape[name]; ok {
			sum := summarizeAccuracy(as)
			line += fmt.Sprintf(" precision=%.3f recall=%.3f met=%.3f", sum.PrecisionMean, sum.RecallMean, sum.MetFrac)
		}
		out = append(out, line)
	}
	return out
}
