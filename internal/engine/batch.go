package engine

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/table"
)

// Batch execution. Every physical plan is a linear chain, and runPipeline
// drives it in three parts: the scan with the cheap filters fused in
// (filtered-out rows never materialize anywhere); the blocking stages in
// order — everything whose algorithm needs the whole input (grouping,
// sampling, solving, the §5 pipeline, merge); and an optional streaming
// wave terminal (exact-eval, conj-waves) that pushes one batch at a time
// through a core.ConjWaveRunner. A chain without a terminal hands its
// finished result to the sink in batches.
//
// The determinism contract is untouched: batches are planned sequentially
// in row order, UDF evaluation inside a batch fans out through
// internal/exec, and verdicts merge back at their batch slot — so output
// rows and every Stats counter are bit-identical at any parallelism AND
// any batch size. The one documented exception is circuit-breaker timing:
// a breaker arms/trips on evaluation-order fold points, and batch
// boundaries are fold points, so workloads that trip breakers mid-query
// may deny different rows at different batch sizes (exactly as they
// already did at different breaker Segment sizes). See DESIGN.md, "Batch
// execution & streaming".

// DefaultBatchSize is the number of rows per batch when Engine.BatchSize
// is unset.
const DefaultBatchSize = 1024

// Batch is one unit of rows flowing through the pipeline: a selection
// vector of row ids into the (columnar) base table, at most
// Engine.BatchSize long. The slice is owned by the producer and valid only
// until its next Next call — consumers that retain rows must copy them.
type Batch struct {
	Rows []int
}

// RowSink receives result-row batches as execution produces them. The
// slice is only valid during the call (copy to retain). Returning
// ErrStopStream stops production — no further batch is evaluated and the
// query finishes with statistics covering the work actually done; any
// other error aborts the query with that error.
type RowSink func(rows []int) error

// ErrStopStream is returned by a RowSink to stop a streaming query early
// (e.g. a row limit was reached). Evaluation of batches not yet pulled is
// skipped entirely.
var ErrStopStream = errors.New("engine: stop streaming")

// scan walks a row universe in order — the table's row ids, or a given
// row list — applying the compiled cheap filters inline (operator fusion:
// a filtered row costs one typed comparison and is never appended
// anywhere), and yields the survivors in batches. The batch buffer is
// reused across Next calls, so a fully-streamed scan allocates O(batch),
// not O(table).
type scan struct {
	n     int              // rows in the universe
	rows  []int            // the universe's row ids; nil means 0..n-1
	preds []func(int) bool // compiled cheap filters
	// replay marks a re-walk of a blocking chain's row universe for the
	// wave terminal: it is not the table scan, so it opens no op:scan span.
	replay bool

	cursor    int
	buf       []int
	batch     Batch
	done      bool
	emitted   int // rows yielded so far
	elapsedNS int64
}

// newScan walks rows, or every row of tbl when rows is nil, in batches of
// size rows that pass preds.
func newScan(tbl *table.Table, rows []int, preds []func(int) bool, size int) *scan {
	n := tbl.NumRows()
	if rows != nil {
		n = len(rows)
	}
	return &scan{n: n, rows: rows, preds: preds, buf: make([]int, 0, size)}
}

// Next returns the next non-empty batch, or (nil, nil) at the end.
func (s *scan) Next(ctx context.Context) (*Batch, error) {
	if s.done {
		return nil, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	tr := obs.FromContext(ctx)
	if s.replay {
		tr = nil
	}
	sp := tr.Start("op:scan")
	start := obs.Now()
	s.buf = s.buf[:0]
	// Scan until the batch holds a full batch of survivors (or the
	// universe ends): downstream work per batch is constant regardless of
	// filter selectivity.
	for s.cursor < s.n && len(s.buf) < cap(s.buf) {
		r := s.cursor
		if s.rows != nil {
			r = s.rows[r]
		}
		s.cursor++
		keep := true
		for _, p := range s.preds {
			if !p(r) {
				keep = false
				break
			}
		}
		if keep {
			s.buf = append(s.buf, r)
		}
	}
	s.elapsedNS += int64(obs.Since(start))
	sp.End()
	if len(s.buf) == 0 {
		s.done = true
		return nil, nil
	}
	s.emitted += len(s.buf)
	s.batch.Rows = s.buf
	return &s.batch, nil
}

// drain pulls the scan dry into one materialized row list — non-nil even
// when empty, since a nil subset means "every row".
func (s *scan) drain(ctx context.Context) ([]int, error) {
	rows := []int{}
	for {
		b, err := s.Next(ctx)
		if err != nil {
			return nil, err
		}
		if b == nil {
			return rows, nil
		}
		rows = append(rows, b.Rows...)
	}
}

// runPipeline drives one statement's physical chain (a linear
// single-child tree) bottom-up: the fused scan(+filter), then each
// blocking stage in order, then delivery — the wave terminal streaming
// survivors to the sink batch by batch, or the finished result handed to
// the sink in batches. When blocking stages exist and filters exist, the
// scan is first drained into st.subset (the row universe every stage
// reads); without filters subset stays nil ("all rows") and the scan never
// runs. An ErrStopStream from the sink stops evaluation, leaving Stats
// covering the work actually performed.
func (e *Engine) runPipeline(ctx context.Context, root *plan.Node, st *pipeState, sink RowSink) error {
	var chain []*plan.Node
	for n := root; n != nil; n = n.Child() {
		if len(n.Children) > 1 {
			return fmt.Errorf("engine: physical node %q has %d children, want a linear chain", n.Op, len(n.Children))
		}
		chain = append(chain, n)
	}
	i := len(chain) - 1
	if chain[i].Op != plan.OpScan {
		return fmt.Errorf("engine: pipeline does not end in a scan (got %q)", chain[i].Op)
	}
	scanNode := chain[i]
	i--
	var filterNode *plan.Node
	if i >= 0 && chain[i].Op == plan.OpFilter {
		filterNode = chain[i] // fused: the scan applies the filters inline
		i--
	}
	sc := newScan(st.tbl, nil, st.filters, e.batchSize())
	var terminal *plan.Node
	staged := false
	// Nodes above a terminal (the merge of the greedy conjunction shape)
	// describe work the terminal performs itself; they carry no Actual.
	for ; i >= 0 && terminal == nil; i-- {
		n := chain[i]
		switch {
		case n.Op == plan.OpConjSolve || (n.Op == plan.OpConjSample && n.Mode == plan.ModeTwoPred):
			// Display-only nodes of the fused §5 shape: the conj-exec stage
			// performs their work.
		case n.Op == plan.OpExactEval || n.Op == plan.OpConjWaves:
			terminal = n
		default:
			if !staged && filterNode != nil {
				subset, err := sc.drain(ctx)
				if err != nil {
					return err
				}
				st.subset = subset
			}
			staged = true
			if err := e.runStage(ctx, n, st); err != nil {
				return err
			}
		}
	}
	var err error
	if terminal == nil {
		err = e.deliver(ctx, st, sink)
	} else {
		src := sc
		if staged {
			// The stages consumed the scan; the waves walk its universe again.
			src = newScan(st.tbl, st.subset, nil, e.batchSize())
			src.replay = true
		}
		err = e.runWaves(ctx, terminal, src, st, sink)
	}
	if err != nil {
		return err
	}
	// The scan reports the table's row universe (every row is read, whether
	// pulled in batches or implicit under a blocking chain); the fused
	// filter reports the survivors it passed. Neither charges UDF counters:
	// cheap predicates run on resident column data.
	if st.analyze {
		scanNode.Actual = &plan.Actual{Rows: st.tbl.NumRows(), ElapsedNS: sc.elapsedNS}
		if filterNode != nil {
			filterNode.Actual = &plan.Actual{Rows: sc.emitted}
		}
	}
	return nil
}

// runStage runs one blocking stage under its op:<op> span and records its
// Actual under EXPLAIN ANALYZE. A stage whose predecessor already finished
// the result (an operator short-circuit, e.g. the empty join) is skipped.
func (e *Engine) runStage(ctx context.Context, n *plan.Node, st *pipeState) error {
	if st.res != nil {
		return nil
	}
	sp := obs.FromContext(ctx).Start("op:" + string(n.Op))
	defer sp.End()
	var before predTotals
	var start time.Time
	if st.analyze {
		before, start = st.predTotals(), obs.Now()
	}
	var err error
	switch n.Op {
	case plan.OpGroupResolve:
		err = e.opGroupResolve(ctx, st)
	case plan.OpJoinGroup:
		err = e.opJoinGroup(st)
	case plan.OpSample:
		err = e.opSample(ctx, st)
	case plan.OpSolve:
		err = e.opSolve(n.Mode, st)
	case plan.OpProbEval:
		err = e.opProbEval(ctx, st)
	case plan.OpMerge:
		err = e.opMerge(st)
	case plan.OpConjSample:
		err = e.opConjSample(ctx, st)
	case plan.OpConjExec:
		err = e.opConjExec(ctx, st)
	default:
		err = fmt.Errorf("engine: unknown physical operator %q", n.Op)
	}
	if err != nil || !st.analyze {
		return err
	}
	n.Actual = st.actual(before, 0, int64(obs.Since(start)))
	st.fillActualRows(n.Op, n.Actual)
	return nil
}

// deliver hands a blocking chain's finished result to the sink in batches.
func (e *Engine) deliver(ctx context.Context, st *pipeState, sink RowSink) error {
	if st.res == nil {
		return fmt.Errorf("engine: pipeline finished without a result")
	}
	rows, size := st.res.Rows, e.batchSize()
	for lo := 0; ; lo += size {
		if err := ctx.Err(); err != nil {
			return err
		}
		if lo >= len(rows) {
			return nil
		}
		if stop, err := e.emit(sink, rows[lo:min(lo+size, len(rows))]); stop || err != nil {
			return err
		}
	}
}

// runWaves is the streaming terminal: every batch src yields goes through
// one ConjWaveRunner — an exact selection is a one-predicate, query-order
// wave — and its survivors go to the sink. The wave order and the free
// sampled outcomes are fixed before the first batch, so every batch flows
// through identical waves. Stats are assembled from the work done, at the
// end of the stream or after an early stop.
func (e *Engine) runWaves(ctx context.Context, n *plan.Node, src *scan, st *pipeState, sink RowSink) error {
	var before predTotals
	if st.analyze {
		before = st.predTotals()
	}
	runner, sampled, err := e.waveRunner(n.Mode, st)
	if err != nil {
		return err
	}
	name := "op:" + string(n.Op)
	emitted := 0
	var elapsedNS int64
	for {
		b, err := src.Next(ctx)
		if err != nil {
			return err
		}
		if b == nil {
			break
		}
		sp := obs.FromContext(ctx).Start(name)
		start := obs.Now()
		survivors, err := runner.Run(ctx, b.Rows)
		if err != nil {
			sp.End()
			return err
		}
		elapsedNS += int64(obs.Since(start))
		sp.End()
		if len(survivors) == 0 {
			continue // batch fully rejected; pull the next one
		}
		emitted += len(survivors)
		stop, err := e.emit(sink, survivors)
		if err != nil {
			return err
		}
		if stop {
			break
		}
	}
	// Every returned row was verified under every predicate, so the answer
	// is exact even on the sampled (approximate) path — the accuracy
	// contract is met deterministically and the sampling spend bought the
	// wave ordering instead.
	stats := st.stats(sampled + runner.Result().Retrieved)
	stats.ChosenColumn, stats.Sampled, stats.Exact = st.chosen, sampled, true
	st.res = &Result{Stats: stats}
	if st.analyze {
		n.Actual = st.actual(before, emitted, elapsedNS)
	}
	return nil
}

// waveRunner builds the terminal's runner: the predicates in query order
// with nothing known, or — greedy — the cheapest-first order from the
// sampled selectivities with every sampled outcome free. It also returns
// the number of sampled rows.
func (e *Engine) waveRunner(mode string, st *pipeState) (*core.ConjWaveRunner, int, error) {
	udfs := make([]core.UDF, len(st.preds))
	order := make([]int, len(st.preds))
	for i, p := range st.preds {
		udfs[i], order[i] = p.meter, i
	}
	var known []map[int]bool
	sampled := 0
	if mode == plan.ModeGreedyOrder {
		costs := make([]float64, len(st.preds))
		for i, p := range st.preds {
			costs[i] = p.cost
		}
		var err error
		if order, err = core.OrderPredicates(costs, st.conjSels); err != nil {
			return nil, 0, err
		}
		known = make([]map[int]bool, len(st.preds))
		for j := range known {
			known[j] = make(map[int]bool)
		}
		for _, s := range st.conjSamples {
			sampled += len(s.Results)
			for row, outs := range s.Results {
				for j, v := range outs {
					known[j][row] = v
				}
			}
		}
	}
	runner, err := core.NewConjWaveRunner(order, known, udfs, e.parallelism())
	return runner, sampled, err
}

// emit hands one result batch to the sink, maintaining the batch
// observability counters around it; stop reports an ErrStopStream.
func (e *Engine) emit(sink RowSink, rows []int) (stop bool, err error) {
	e.noteBatch(len(rows))
	err = sink(rows)
	e.batchesInFlight.Add(-1)
	if errors.Is(err, ErrStopStream) {
		return true, nil
	}
	return false, err
}

// batchSize resolves the effective rows-per-batch.
func (e *Engine) batchSize() int {
	if e.BatchSize > 0 {
		return e.BatchSize
	}
	return DefaultBatchSize
}

// noteBatch counts one emitted batch into the engine-lifetime batch
// observability counters.
func (e *Engine) noteBatch(rows int) {
	e.batchesInFlight.Add(1)
	e.batchesTotal.Add(1)
	for {
		cur := e.peakBatchRows.Load()
		if int64(rows) <= cur || e.peakBatchRows.CompareAndSwap(cur, int64(rows)) {
			break
		}
	}
}

// BatchCounters reports engine-lifetime batch execution observability:
// batches currently being processed downstream (in flight), the largest
// batch (in rows) any query emitted, and the total batches emitted.
func (e *Engine) BatchCounters() (inFlight, peakRows, total int64) {
	return e.batchesInFlight.Load(), e.peakBatchRows.Load(), e.batchesTotal.Load()
}

// Renderer resolves the query's projection against its base table and
// returns the projected column names plus a per-row cell renderer: each
// cell is the column's canonical StringAt, so rows are formatted without
// materializing a result table.
func (e *Engine) Renderer(q Query) ([]string, func(row int) []string, error) {
	tbl, err := e.Table(q.Table)
	if err != nil {
		return nil, nil, err
	}
	idxs, err := e.projection(tbl, q.Columns)
	if err != nil {
		return nil, nil, err
	}
	if idxs == nil {
		idxs = make([]int, tbl.Schema().Len())
		for i := range idxs {
			idxs[i] = i
		}
	}
	names := make([]string, len(idxs))
	cols := make([]table.Column, len(idxs))
	for i, j := range idxs {
		names[i] = tbl.Schema().Col(j).Name
		cols[i] = tbl.Column(j)
	}
	render := func(row int) []string {
		cells := make([]string, len(cols))
		for i, c := range cols {
			cells[i] = c.StringAt(row)
		}
		return cells
	}
	return names, render, nil
}
