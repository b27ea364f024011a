package engine

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/table"
)

// Volcano-style batch execution. The planner's physical chain is compiled
// into a pull pipeline of BatchOperators: the scan yields row-id batches
// lazily from the column store with the cheap compiled filters fused in
// (filtered-out rows never materialize anywhere), streaming operators
// (exact-eval, conj-waves) evaluate one batch at a time, and blocking
// stages — everything whose algorithm needs the whole input (grouping,
// sampling, solving, the §5 pipeline, merge) — run their operator body
// once during Open and then replay their product downstream in batches.
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

// Batch is one unit of rows flowing between operators: a selection vector
// of row ids into the (columnar) base table, at most Engine.BatchSize
// long. The slice is owned by the producing operator and valid only until
// its next Next call — consumers that retain rows must copy them.
type Batch struct {
	Rows []int
}

// BatchOperator is the Volcano iterator contract every physical operator
// implements. Open prepares the operator (and its children; blocking
// stages do their work here), Next returns the next non-empty batch or
// (nil, nil) at end-of-stream, Close releases resources. Operators are
// single-consumer: Next must not be called concurrently.
type BatchOperator interface {
	Open(ctx context.Context) error
	Next(ctx context.Context) (*Batch, error)
	Close() error
}

// RowSink receives result-row batches as execution produces them. The
// slice is only valid during the call (copy to retain). Returning
// ErrStopStream stops production — upstream operators are cancelled and
// the query finishes with statistics covering the work actually done;
// any other error aborts the query with that error.
type RowSink func(rows []int) error

// ErrStopStream is returned by a RowSink to stop a streaming query early
// (e.g. a row limit was reached). Evaluation of batches not yet pulled is
// skipped entirely.
var ErrStopStream = errors.New("engine: stop streaming")

// scanOp is the pipeline leaf: it walks the table's row ids in order,
// applying the compiled cheap filters inline (operator fusion — a filtered
// row costs one typed comparison and is never appended anywhere), and
// yields surviving rows in batches of the engine's batch size. The batch
// buffer is reused across Next calls, so a fully-streamed scan allocates
// O(batch), not O(table).
type scanOp struct {
	e          *Engine
	st         *pipeState
	node       *plan.Node // scan node (EXPLAIN ANALYZE attribution)
	filterNode *plan.Node // filter node fused into this scan; nil without filters

	preds     []func(int) bool
	cursor    int
	buf       []int
	batch     Batch
	opened    bool
	done      bool
	scanned   int // rows read off the table so far
	emitted   int // rows surviving the fused filters
	elapsedNS int64
}

func (s *scanOp) Open(ctx context.Context) error {
	if s.opened {
		return nil
	}
	s.opened = true
	filters := s.st.q.Filters
	s.preds = make([]func(int) bool, len(filters))
	for i, f := range filters {
		col := s.st.tbl.ColumnByName(f.Column)
		if col == nil {
			return fmt.Errorf("engine: table %q has no column %q to filter on", s.st.tbl.Name(), f.Column)
		}
		s.preds[i] = compileFilter(col, f.Value)
	}
	s.buf = make([]int, 0, s.e.batchSize())
	return nil
}

func (s *scanOp) Next(ctx context.Context) (*Batch, error) {
	if s.done {
		return nil, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sp := obs.FromContext(ctx).Start("op:scan")
	start := obs.Now()
	n := s.st.tbl.NumRows()
	size := cap(s.buf)
	s.buf = s.buf[:0]
	// Scan until the batch holds `size` survivors (or the table ends):
	// batches carry surviving rows, so downstream work per batch is
	// constant regardless of filter selectivity.
	for s.cursor < n && len(s.buf) < size {
		r := s.cursor
		s.cursor++
		s.scanned++
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

func (s *scanOp) Close() error { return nil }

// stageOp wraps one blocking operator body (group-resolve, sample, solve,
// prob-eval, merge, join-group, conj-sample, conj-exec) in the iterator
// contract: Open runs the children first (pipeline tail), then the body —
// exactly the legacy walker's child-first order, so RNG splits and meter
// charges happen in the same sequence — and Next replays the operator's
// row universe downstream in batches for consumers that stream (the
// conj-waves operator above a conj-sample stage). A stage whose child
// already finished the result (an operator short-circuit, e.g. the empty
// join) skips its body, exactly like the legacy walker.
type stageOp struct {
	e     *Engine
	st    *pipeState
	node  *plan.Node
	child BatchOperator
	run   func(ctx context.Context) error
	// drain: this is the lowest blocking stage and cheap filters exist, so
	// the fused scan is pulled dry here to materialize st.subset (the row
	// universe every blocking body reads). Without filters the drain is
	// skipped and subset stays nil ("all rows"), so the scan never runs.
	drain bool

	opened bool
	cursor int
	buf    []int
	batch  Batch
}

func (s *stageOp) Open(ctx context.Context) error {
	if s.opened {
		return nil
	}
	s.opened = true
	if err := s.child.Open(ctx); err != nil {
		return err
	}
	if s.drain {
		subset := []int{}
		for {
			b, err := s.child.Next(ctx)
			if err != nil {
				return err
			}
			if b == nil {
				break
			}
			subset = append(subset, b.Rows...)
		}
		s.st.subset = subset
	}
	if s.st.res != nil {
		return nil // a lower operator already finished the result
	}
	sp := obs.FromContext(ctx).Start("op:" + string(s.node.Op))
	var before predTotals
	var start time.Time
	if s.st.analyze {
		before = s.st.predTotals()
		start = obs.Now()
	}
	err := s.run(ctx)
	if err == nil && s.st.analyze {
		after := s.st.predTotals()
		a := &plan.Actual{
			Calls:       after.calls - before.calls,
			CacheHits:   after.hits - before.hits,
			CacheMisses: after.misses - before.misses,
			Retries:     after.retries - before.retries,
			Denied:      after.denied - before.denied,
			Failed:      after.failed - before.failed,
			ElapsedNS:   int64(obs.Since(start)),
		}
		s.st.fillActualRows(s.node.Op, a)
		s.node.Actual = a
	}
	sp.End()
	return err
}

// Next replays the (possibly filtered) row universe in batches: blocking
// stages consume groups and samples out of pipeState, so what flows up to
// a streaming consumer is the scan universe itself.
func (s *stageOp) Next(ctx context.Context) (*Batch, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if s.buf == nil {
		s.buf = make([]int, 0, s.e.batchSize())
	}
	sub := s.st.subset
	total := s.st.tbl.NumRows()
	if sub != nil {
		total = len(sub)
	}
	if s.cursor >= total {
		return nil, nil
	}
	end := s.cursor + cap(s.buf)
	if end > total {
		end = total
	}
	s.buf = s.buf[:0]
	for i := s.cursor; i < end; i++ {
		if sub != nil {
			s.buf = append(s.buf, sub[i])
		} else {
			s.buf = append(s.buf, i)
		}
	}
	s.cursor = end
	s.batch.Rows = s.buf
	return &s.batch, nil
}

func (s *stageOp) Close() error { return s.child.Close() }

// resultOp terminates blocking chains: once Open has run every stage (and
// st.res is finished), Next serves the result rows in batches — which is
// what streams a fully-materialized shape's output incrementally.
type resultOp struct {
	e      *Engine
	st     *pipeState
	child  BatchOperator
	cursor int
	batch  Batch
}

func (r *resultOp) Open(ctx context.Context) error { return r.child.Open(ctx) }

func (r *resultOp) Next(ctx context.Context) (*Batch, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if r.st.res == nil {
		return nil, fmt.Errorf("engine: pipeline finished without a result")
	}
	rows := r.st.res.Rows
	if r.cursor >= len(rows) {
		return nil, nil
	}
	end := r.cursor + r.e.batchSize()
	if end > len(rows) {
		end = len(rows)
	}
	r.batch.Rows = rows[r.cursor:end]
	r.cursor = end
	return &r.batch, nil
}

func (r *resultOp) Close() error { return r.child.Close() }

// streamingOp is the extra contract of terminal operators that produce
// result rows batch-by-batch (exact-eval, conj-waves): finalize assembles
// st.res from whatever was evaluated so far — at end-of-stream, or after
// an early stop.
type streamingOp interface {
	BatchOperator
	finalize()
}

// exactEvalOp evaluates the predicate on each pulled batch. Verdicts land
// at their batch slot, so output order matches the sequential scan exactly;
// rows whose invocation failed carry verdict false and drop out.
type exactEvalOp struct {
	e     *Engine
	st    *pipeState
	node  *plan.Node
	child BatchOperator

	pool      *exec.Pool
	pulled    int // rows pulled from the child (= retrievals so far)
	emitted   int
	buf       []int
	batch     Batch
	opened    bool
	finalized bool
	before    predTotals
	elapsedNS int64
}

func (o *exactEvalOp) Open(ctx context.Context) error {
	if o.opened {
		return nil
	}
	o.opened = true
	if err := o.child.Open(ctx); err != nil {
		return err
	}
	o.pool = o.e.pool()
	if o.st.analyze {
		o.before = o.st.predTotals()
	}
	return nil
}

func (o *exactEvalOp) Next(ctx context.Context) (*Batch, error) {
	meter := o.st.preds[0].meter
	for {
		cb, err := o.child.Next(ctx)
		if err != nil {
			return nil, err
		}
		if cb == nil {
			o.finalize()
			return nil, nil
		}
		sp := obs.FromContext(ctx).Start("op:exact-eval")
		start := obs.Now()
		verdicts, _, err := core.EvalRowsResilient(ctx, o.pool, cb.Rows, meter)
		if err != nil {
			sp.End()
			return nil, err
		}
		o.pulled += len(cb.Rows)
		o.buf = o.buf[:0]
		for i, r := range cb.Rows {
			if verdicts[i] {
				o.buf = append(o.buf, r)
			}
		}
		o.elapsedNS += int64(obs.Since(start))
		sp.End()
		o.emitted += len(o.buf)
		if len(o.buf) == 0 {
			continue // batch fully rejected; pull the next one
		}
		o.batch.Rows = o.buf
		return &o.batch, nil
	}
}

func (o *exactEvalOp) finalize() {
	if o.finalized {
		return
	}
	o.finalized = true
	st := o.st
	meter := st.preds[0].meter
	n := o.pulled
	st.res = &Result{
		Stats: Stats{
			Evaluations: meter.Calls(),
			Retrievals:  n,
			Cost:        float64(n)*st.cost.Retrieve + float64(meter.Calls())*st.cost.Evaluate,
			Exact:       true,
			CacheHits:   meter.CacheHits(),
			CacheMisses: meter.CacheMisses(),
		},
	}
	o.recordActual()
}

func (o *exactEvalOp) recordActual() {
	if !o.st.analyze {
		return
	}
	after := o.st.predTotals()
	o.node.Actual = &plan.Actual{
		Rows:        o.emitted,
		Calls:       after.calls - o.before.calls,
		CacheHits:   after.hits - o.before.hits,
		CacheMisses: after.misses - o.before.misses,
		Retries:     after.retries - o.before.retries,
		Denied:      after.denied - o.before.denied,
		Failed:      after.failed - o.before.failed,
		ElapsedNS:   o.elapsedNS,
	}
}

func (o *exactEvalOp) Close() error { return o.child.Close() }

// conjWavesOp evaluates the conjunction in short-circuit waves, one pulled
// batch at a time. The wave order and the free sampled outcomes are fixed
// during Open (after the child chain — including any conj-sample stage —
// has run), so every batch flows through identical waves; rows never
// interact across batches, which is why batching leaves calls, survivors
// and counters bit-identical (see core.ConjWaveRunner).
type conjWavesOp struct {
	e     *Engine
	st    *pipeState
	node  *plan.Node
	mode  string
	child BatchOperator

	runner      *core.ConjWaveRunner
	sampledRows int
	pulled      int
	emitted     int
	batch       Batch
	opened      bool
	finalized   bool
	before      predTotals
	elapsedNS   int64
}

func (o *conjWavesOp) Open(ctx context.Context) error {
	if o.opened {
		return nil
	}
	o.opened = true
	if err := o.child.Open(ctx); err != nil {
		return err
	}
	st := o.st
	if o.st.analyze {
		o.before = st.predTotals()
	}
	udfs := make([]core.UDF, len(st.preds))
	for i, p := range st.preds {
		udfs[i] = p.meter
	}
	order := make([]int, len(st.preds))
	for i := range order {
		order[i] = i
	}
	var known []map[int]bool
	if o.mode == plan.ModeGreedyOrder {
		costs := make([]float64, len(st.preds))
		for i, p := range st.preds {
			costs[i] = p.cost
		}
		var err error
		order, err = core.OrderPredicates(costs, st.conjSels)
		if err != nil {
			return err
		}
		known = make([]map[int]bool, len(st.preds))
		for j := range known {
			known[j] = make(map[int]bool)
		}
		for _, s := range st.conjSamples {
			o.sampledRows += len(s.Results)
			for row, outs := range s.Results {
				for j, v := range outs {
					known[j][row] = v
				}
			}
		}
	}
	runner, err := core.NewConjWaveRunner(order, known, udfs, o.e.parallelism())
	if err != nil {
		return err
	}
	o.runner = runner
	return nil
}

func (o *conjWavesOp) Next(ctx context.Context) (*Batch, error) {
	for {
		cb, err := o.child.Next(ctx)
		if err != nil {
			return nil, err
		}
		if cb == nil {
			o.finalize()
			return nil, nil
		}
		sp := obs.FromContext(ctx).Start("op:conj-waves")
		start := obs.Now()
		survivors, err := o.runner.Run(ctx, cb.Rows)
		if err != nil {
			sp.End()
			return nil, err
		}
		o.pulled += len(cb.Rows)
		o.elapsedNS += int64(obs.Since(start))
		sp.End()
		o.emitted += len(survivors)
		if len(survivors) == 0 {
			continue
		}
		o.batch.Rows = survivors
		return &o.batch, nil
	}
}

func (o *conjWavesOp) finalize() {
	if o.finalized {
		return
	}
	o.finalized = true
	st := o.st
	// Billing is per predicate: each predicate's charged calls pay its own
	// o_e — the same per-predicate costs the greedy ordering and the
	// EXPLAIN estimates use.
	evals := 0
	evalCost := 0.0
	hits, misses := 0, 0
	for _, p := range st.preds {
		evals += p.meter.Calls()
		evalCost += float64(p.meter.Calls()) * p.cost
		hits += p.meter.CacheHits()
		misses += p.meter.CacheMisses()
	}
	stats := Stats{
		Evaluations:  evals,
		ChosenColumn: st.chosen,
		CacheHits:    hits,
		CacheMisses:  misses,
		// Every returned row was verified under every predicate, so the
		// answer is exact even on the sampled (approximate) path — the
		// accuracy contract is met deterministically and the sampling
		// spend bought the wave ordering instead.
		Exact: true,
	}
	if st.q.Approx == nil {
		stats.Retrievals = o.pulled
	} else {
		stats.Sampled = o.sampledRows
		stats.Retrievals = o.sampledRows + o.runner.Result().Retrieved
	}
	stats.Cost = float64(stats.Retrievals)*st.cost.Retrieve + evalCost
	st.res = &Result{Stats: stats}
	o.recordActual()
}

func (o *conjWavesOp) recordActual() {
	if !o.st.analyze {
		return
	}
	after := o.st.predTotals()
	o.node.Actual = &plan.Actual{
		Rows:        o.emitted,
		Calls:       after.calls - o.before.calls,
		CacheHits:   after.hits - o.before.hits,
		CacheMisses: after.misses - o.before.misses,
		Retries:     after.retries - o.before.retries,
		Denied:      after.denied - o.before.denied,
		Failed:      after.failed - o.before.failed,
		ElapsedNS:   o.elapsedNS,
	}
}

func (o *conjWavesOp) Close() error { return o.child.Close() }

// pipeline is a compiled operator chain plus what the executor needs to
// drive and account for it.
type pipeline struct {
	st     *pipeState
	root   BatchOperator
	scan   *scanOp
	stream streamingOp // nil when the terminal is a blocking resultOp
}

// buildPipeline compiles the physical plan chain (a linear single-child
// tree) into a pull pipeline.
func (e *Engine) buildPipeline(root *plan.Node, st *pipeState) (*pipeline, error) {
	var chain []*plan.Node
	for n := root; n != nil; n = n.Child() {
		if len(n.Children) > 1 {
			return nil, fmt.Errorf("engine: physical node %q has %d children, want a linear chain", n.Op, len(n.Children))
		}
		chain = append(chain, n)
	}
	i := len(chain) - 1
	if chain[i].Op != plan.OpScan {
		return nil, fmt.Errorf("engine: pipeline does not end in a scan (got %q)", chain[i].Op)
	}
	scan := &scanOp{e: e, st: st, node: chain[i]}
	i--
	if i >= 0 && chain[i].Op == plan.OpFilter {
		scan.filterNode = chain[i] // fused: the scan applies the filters inline
		i--
	}
	p := &pipeline{st: st, scan: scan}
	var cur BatchOperator = scan
	lowestStage := true
	for ; i >= 0; i-- {
		n := chain[i]
		if p.stream != nil {
			// Nodes above a streaming terminal (the merge of the greedy
			// conjunction shape) describe work the terminal performs
			// itself; the legacy walker skipped them via the result
			// short-circuit, so they carry no Actual here either.
			continue
		}
		switch {
		case n.Op == plan.OpConjSolve || (n.Op == plan.OpConjSample && n.Mode == plan.ModeTwoPred):
			// Display-only nodes of the fused §5 shape: the conj-exec
			// operator performs their work internally.
			continue
		case n.Op == plan.OpExactEval:
			t := &exactEvalOp{e: e, st: st, node: n, child: cur}
			cur, p.stream = t, t
		case n.Op == plan.OpConjWaves:
			t := &conjWavesOp{e: e, st: st, node: n, mode: n.Mode, child: cur}
			cur, p.stream = t, t
		default:
			body, err := e.stageBody(n, st)
			if err != nil {
				return nil, err
			}
			cur = &stageOp{
				e: e, st: st, node: n, child: cur, run: body,
				drain: lowestStage && scan.filterNode != nil,
			}
			lowestStage = false
		}
	}
	if p.stream == nil {
		cur = &resultOp{e: e, st: st, child: cur}
	}
	p.root = cur
	return p, nil
}

// stageBody resolves the blocking operator body for a stage node.
func (e *Engine) stageBody(n *plan.Node, st *pipeState) (func(ctx context.Context) error, error) {
	switch n.Op {
	case plan.OpGroupResolve:
		return func(ctx context.Context) error { return e.opGroupResolve(ctx, st) }, nil
	case plan.OpJoinGroup:
		return func(ctx context.Context) error { return e.opJoinGroup(st) }, nil
	case plan.OpSample:
		return func(ctx context.Context) error { return e.opSample(ctx, st) }, nil
	case plan.OpSolve:
		mode := n.Mode
		return func(ctx context.Context) error { return e.opSolve(mode, st) }, nil
	case plan.OpProbEval:
		return func(ctx context.Context) error { return e.opProbEval(ctx, st) }, nil
	case plan.OpMerge:
		return func(ctx context.Context) error { return e.opMerge(st) }, nil
	case plan.OpConjSample:
		return func(ctx context.Context) error { return e.opConjSample(ctx, st) }, nil
	case plan.OpConjExec:
		return func(ctx context.Context) error { return e.opConjExec(ctx, st) }, nil
	default:
		return nil, fmt.Errorf("engine: unknown physical operator %q", n.Op)
	}
}

// recordScanActuals attributes the fused scan(+filter) under EXPLAIN
// ANALYZE: the scan reports the table's row universe (every row is read,
// whether pulled in batches or implicit under a blocking chain), the
// filter node reports the survivors its fused predicates passed. Neither
// charges UDF counters — cheap predicates run on resident column data.
func (p *pipeline) recordScanActuals() {
	if !p.st.analyze {
		return
	}
	sc := p.scan
	sc.node.Actual = &plan.Actual{Rows: p.st.tbl.NumRows(), ElapsedNS: sc.elapsedNS}
	if sc.filterNode != nil {
		rows := sc.emitted
		if !sc.done && p.st.subset != nil {
			rows = len(p.st.subset)
		}
		sc.filterNode.Actual = &plan.Actual{Rows: rows}
	}
}

// runPipeline compiles and drives the batch pipeline for one statement:
// result batches are delivered to the sink as produced, and an
// ErrStopStream from the sink cancels upstream work, leaving Stats
// covering the evaluation actually performed.
func (e *Engine) runPipeline(ctx context.Context, root *plan.Node, st *pipeState, sink RowSink) error {
	pipe, err := e.buildPipeline(root, st)
	if err != nil {
		return err
	}
	defer pipe.root.Close()
	pctx, cancel := context.WithCancel(ctx)
	defer cancel()
	if err := pipe.root.Open(pctx); err != nil {
		return err
	}
	for {
		b, err := pipe.root.Next(pctx)
		if err != nil {
			return err
		}
		if b == nil {
			break
		}
		e.noteBatch(len(b.Rows))
		err = sink(b.Rows)
		e.batchDone()
		if err != nil {
			if errors.Is(err, ErrStopStream) {
				cancel()
				break
			}
			return err
		}
	}
	if pipe.stream != nil && st.res == nil {
		// Early stop before end-of-stream: assemble Stats from the work done.
		pipe.stream.finalize()
	}
	pipe.recordScanActuals()
	return nil
}

// batchSize resolves the effective rows-per-batch.
func (e *Engine) batchSize() int {
	if e.BatchSize > 0 {
		return e.BatchSize
	}
	return DefaultBatchSize
}

// noteBatch / batchDone maintain the engine-lifetime batch observability
// counters around one emitted batch's downstream processing.
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

func (e *Engine) batchDone() { e.batchesInFlight.Add(-1) }

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
