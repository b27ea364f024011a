package engine

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/ml"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/resilience"
	"repro/internal/stats"
	"repro/internal/table"
)

// Engine executes selection queries with expensive UDF predicates against
// registered tables, using the core optimizer for approximate execution.
type Engine struct {
	mu       sync.RWMutex
	tables   map[string]*table.Table
	registry *Registry
	// Cost is the engine-wide cost model; a UDF's own Cost overrides
	// Evaluate when set.
	Cost core.CostModel
	// LabelFraction is the fraction of tuples labeled to discover a
	// correlated column (default 0.01, the paper's 1%).
	LabelFraction float64
	// VirtualBuckets is the bucket count for the logistic-regression
	// virtual column (default 10).
	VirtualBuckets int
	// MaxCandidateCardinality caps candidate correlated columns (default
	// 50, matching the paper's column scan).
	MaxCandidateCardinality int
	// Parallelism caps the number of workers UDF evaluation fans out
	// across (labeling, sampling, execution and exact scans). Default
	// runtime.GOMAXPROCS(0); 1 reproduces the sequential legacy behavior;
	// ≤ 0 also means GOMAXPROCS. For a given seed, query results are
	// bit-for-bit identical at every setting — only wall clock changes.
	// Values above GOMAXPROCS are honored (useful for I/O-bound UDFs).
	// UDF bodies must tolerate concurrent invocation when Parallelism > 1.
	// Set before serving queries; changing it while a query runs on
	// another goroutine is a data race.
	Parallelism int
	// CacheUDFResults enables the cross-query (table, UDF, column)
	// outcome cache: rows evaluated by one query are never re-paid by a
	// later one. On by default; set before serving queries. See cache.go.
	CacheUDFResults bool
	// Retry tunes per-invocation retry/backoff and the per-call deadline
	// (see resilience.Policy; the zero value means 3 attempts, 1ms..50ms
	// capped exponential backoff, no deadline). The jitter seed defaults to
	// the engine seed. Set before serving queries.
	Retry resilience.Policy
	// Breaker tunes the per-(table, UDF) circuit breakers (the zero value
	// uses the documented defaults). Set before serving queries; existing
	// breakers keep the config they were created with.
	Breaker resilience.BreakerConfig
	// OnFailure is the default failure policy for queries that do not set
	// their own ("" means FailOnError). See resilience.go.
	OnFailure FailurePolicy
	// BatchSize is the number of rows per execution batch in the Volcano
	// pipeline (see batch.go); ≤ 0 means DefaultBatchSize. Results are
	// bit-identical at any setting (breaker-tripping workloads excepted —
	// fold points move with batch boundaries; see DESIGN.md). Set before
	// serving queries.
	BatchSize int

	rng  *stats.RNG
	seed uint64

	breakerMu sync.Mutex
	breakers  map[breakerKey]*resilience.Breaker

	cacheMu    sync.Mutex
	evalCaches map[evalCacheKey]*core.SharedEvalCache
	// catalog, when non-nil, persists eval-cache outcomes, sampling
	// evidence and column choices across restarts (see catalog.go). Guarded
	// by cacheMu; attach before serving queries.
	catalog *catalog.Catalog

	// flushedLens remembers each eval cache's size at its last catalog
	// flush; outcomes only accumulate (invalidation drops whole caches),
	// so an unchanged size means nothing new to persist and FlushCatalog
	// skips the snapshot+diff for that key. Guarded by cacheMu.
	flushedLens map[evalCacheKey]int
	// invalidations counts UDF invalidation events. Queries capture it
	// before evaluating and refuse to persist learnings if it moved: a
	// body replaced mid-query must not have its stale verdicts re-persisted
	// after the catalog tombstone. Mutated under cacheMu.
	invalidations atomic.Int64

	// Engine-lifetime observability counters (summed over completed
	// queries / warm-start events).
	cacheHits      atomic.Int64
	cacheMisses    atomic.Int64
	columnMemoHits atomic.Int64
	seededRows     atomic.Int64

	// Batch execution observability (see BatchCounters).
	batchesInFlight atomic.Int64
	peakBatchRows   atomic.Int64
	batchesTotal    atomic.Int64
}

// New returns an engine with the paper's default cost model (o_r = 1,
// o_e = 3) and the given deterministic seed.
func New(seed uint64) *Engine {
	return &Engine{
		tables:                  make(map[string]*table.Table),
		registry:                NewRegistry(),
		Cost:                    core.DefaultCost,
		LabelFraction:           0.01,
		VirtualBuckets:          10,
		MaxCandidateCardinality: 50,
		Parallelism:             runtime.GOMAXPROCS(0),
		CacheUDFResults:         true,
		rng:                     stats.NewRNG(seed),
		seed:                    seed,
		breakers:                make(map[breakerKey]*resilience.Breaker),
		evalCaches:              make(map[evalCacheKey]*core.SharedEvalCache),
		flushedLens:             make(map[evalCacheKey]int),
	}
}

// parallelism resolves the effective worker cap.
func (e *Engine) parallelism() int {
	if e.Parallelism <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return e.Parallelism
}

// pool returns a worker pool at the engine's parallelism.
func (e *Engine) pool() *exec.Pool { return exec.NewPool(e.parallelism()) }

// RegisterTable adds a table; the name must be unused.
func (e *Engine) RegisterTable(t *table.Table) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, dup := e.tables[t.Name()]; dup {
		return fmt.Errorf("engine: table %q already registered", t.Name())
	}
	e.tables[t.Name()] = t
	return nil
}

// TableNames lists the registered tables in sorted order.
func (e *Engine) TableNames() []string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	names := make([]string, 0, len(e.tables))
	for name := range e.tables {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Table looks up a registered table.
func (e *Engine) Table(name string) (*table.Table, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	t, ok := e.tables[name]
	if !ok {
		return nil, fmt.Errorf("engine: unknown table %q", name)
	}
	return t, nil
}

// RegisterUDF adds a UDF to the engine's registry. Re-registering an
// existing name replaces its body, so every cached outcome for that name
// is dropped — from the in-memory eval caches AND from the attached
// durable catalog (durably, before this returns) — because a changed body
// must never serve verdicts the old body computed. A first-time
// registration invalidates nothing: persisted verdicts from earlier
// process lives stay warm, which is the whole point of the catalog (the
// durability contract trusts the operator to register the same body
// across restarts; see DESIGN.md).
func (e *Engine) RegisterUDF(u UDF) error {
	if !e.registry.Has(u.Name) {
		return e.registry.Register(u)
	}
	// Invalidate BEFORE swapping the body in: if the durable tombstone
	// cannot be written, the old body stays active and the persisted
	// verdicts remain consistent with it — never the other way around.
	// Holding cacheMu across memory drop + tombstone serializes against
	// FlushCatalog and persistQueryLearnings, so no stale verdict can be
	// re-persisted after the tombstone.
	e.cacheMu.Lock()
	e.invalidateUDFLocked(u.Name)
	c := e.catalog
	var err error
	if c != nil {
		err = c.InvalidateUDF(u.Name)
	}
	e.cacheMu.Unlock()
	if err != nil {
		return fmt.Errorf("engine: invalidating catalog entries for UDF %q: %w", u.Name, err)
	}
	return e.registry.Register(u)
}

// udfFault collects the first panic a UDF body raised during a query, so
// a buggy user function surfaces as a query error instead of crashing the
// process. The faulting tuple is treated as non-matching (it is never
// returned), and the error is reported once execution finishes. It is safe
// for concurrent use: parallel evaluation may fault on several rows at
// once, and only the first capture wins.
type udfFault struct {
	mu  sync.Mutex
	err error
}

// record stores err if no earlier fault was captured.
func (f *udfFault) record(err error) {
	f.mu.Lock()
	if f.err == nil {
		f.err = err
	}
	f.mu.Unlock()
}

// Err returns the recorded fault, if any.
func (f *udfFault) Err() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.err
}

// costModel resolves the effective costs for the query's UDF.
func (e *Engine) costModel(q Query) core.CostModel {
	cost := e.Cost
	if u, err := e.registry.Lookup(q.UDFName); err == nil && u.Cost > 0 {
		cost.Evaluate = u.Cost
	}
	return cost
}

// Run is the one execution path for every query shape: validate, bind
// tables and predicates, lower into the physical operator tree, and run it
// as a batch pull pipeline (see batch.go), delivering the result rows to
// sink in deterministic batches as execution produces them. A materialized
// result is a sink that collects. For streaming shapes (exact selections
// and conjunction waves) the first batch arrives while later batches are
// still unevaluated; blocking shapes (sampling pipelines, the §5
// two-predicate plan, joins) finish evaluating first and then deliver the
// finished result in batches. join, when non-nil, runs q as the
// selection-before-join extension. The returned Stats cover the
// evaluation performed — after the sink returns ErrStopStream they reflect
// only the batches actually pulled. With analyze set, the executed tree
// comes back with per-operator Actual counts (EXPLAIN ANALYZE); the
// returned root is nil otherwise. A trace attached to ctx (obs.WithTrace)
// gets bind/plan/operator spans either way.
//
// Every UDF-evaluating phase (labeling, sampling, execution, exact scans)
// checks ctx between work items, so a cancel or deadline returns ctx.Err()
// after at most one in-flight UDF call per worker. A cancelled query
// leaves the engine fully reusable — the cross-query outcome cache keeps
// every completed (and paid) evaluation, no entry is ever stored
// partially, and a later run of the same query completes normally. See
// DESIGN.md, "Cancellation contract".
func (e *Engine) Run(ctx context.Context, q Query, join *SelectJoinQuery, analyze bool, sink RowSink) (Stats, *plan.Node, error) {
	if sink == nil {
		return Stats{}, nil, fmt.Errorf("engine: Run requires a sink")
	}
	if err := q.Validate(); err != nil {
		return Stats{}, nil, err
	}
	if err := validateShape(q, join); err != nil {
		return Stats{}, nil, err
	}
	if err := ctx.Err(); err != nil {
		return Stats{}, nil, err
	}
	tr := obs.FromContext(ctx)
	sp := tr.Start("bind")
	st, err := e.bindStatement(q, join)
	sp.End()
	if err != nil {
		return Stats{}, nil, err
	}
	st.analyze = analyze
	sp = tr.Start("plan")
	root, err := plan.Physical(e.buildSpec(st))
	sp.End()
	if err != nil {
		return Stats{}, nil, err
	}
	// Trip baselines for the breakers this statement touches (deduped by
	// pointer — duplicate predicates share one breaker), so Stats can report
	// the trips THIS statement caused, not the engine-lifetime totals.
	baselines := make(map[*resilience.Breaker]int64)
	for _, p := range st.preds {
		if b, ok := p.meter.Gate().(*resilience.Breaker); ok && b != nil {
			if _, seen := baselines[b]; !seen {
				baselines[b] = b.Trips()
			}
		}
	}
	// Captured before any evaluation: if a UDF body is replaced while this
	// query runs, its learnings are not persisted (see persistQueryLearnings).
	st.epoch = e.invalidations.Load()
	if q.Approx != nil {
		// One split per approximate query, exactly like the legacy paths —
		// exact shapes must not consume the engine's RNG stream.
		e.mu.Lock()
		st.rng = e.rng.Split()
		e.mu.Unlock()
	}
	if err := e.runPipeline(ctx, root, st, sink); err != nil {
		return Stats{}, nil, err
	}
	for _, p := range st.preds {
		if err := p.fault.Err(); err != nil {
			return Stats{}, nil, err
		}
	}
	// Resilience accounting: failed rows and retries from the per-predicate
	// sinks, breaker trips as deltas against the captured baselines.
	for _, p := range st.preds {
		f, r := p.sink.counts()
		st.res.Stats.FailedRows += f
		st.res.Stats.Retries += r
	}
	for b, base := range baselines {
		st.res.Stats.BreakerTrips += int(b.Trips() - base)
	}
	if e.policyFor(q) == DegradeFailed && st.res.Stats.FailedRows > 0 {
		st.res.Stats.Degraded = true
	}
	e.cacheHits.Add(int64(st.res.Stats.CacheHits))
	e.cacheMisses.Add(int64(st.res.Stats.CacheMisses))
	if !analyze {
		root = nil
	}
	return st.res.Stats, root, nil
}

// universe resolves a row subset: nil means every row of the table.
func universe(tbl *table.Table, subset []int) []int {
	if subset != nil {
		return subset
	}
	rows := make([]int, tbl.NumRows())
	for i := range rows {
		rows[i] = i
	}
	return rows
}

// resolveGroups determines the grouping the optimizer will use: the pinned
// column, a discovered correlated column, or the logistic-regression
// virtual column. It returns the groups, the column's display name, and
// any rows labeled along the way (row → outcome) for reuse.
func (e *Engine) resolveGroups(ctx context.Context, tbl *table.Table, q Query, meter *core.Meter, cons core.Constraints, cost core.CostModel, rng *stats.RNG, subset []int) ([]core.Group, string, map[int]bool, error) {
	switch q.GroupOn {
	case "":
		// A memoized Section 4.4 choice skips the labeling scan entirely;
		// the RNG draws it would have consumed are simply not made (warm
		// runs are deterministic among themselves, not vs. cold runs).
		if groups, col, ok := e.memoizedColumn(tbl, q, cost, subset); ok {
			return groups, col, nil, nil
		}
		return e.discoverColumn(ctx, tbl, q, meter, cons, cost, rng, subset)
	case VirtualColumn:
		return e.virtualColumn(ctx, tbl, q, meter, rng, subset)
	default:
		groups, err := groupsFromColumn(tbl, q.GroupOn, subset)
		if err != nil {
			return nil, "", nil, err
		}
		return groups, q.GroupOn, nil, nil
	}
}

// VirtualColumn is the GroupOn value requesting a logistic-regression
// virtual column (Section 6.3.2).
const VirtualColumn = "virtual"

func groupsFromColumn(tbl *table.Table, column string, subset []int) ([]core.Group, error) {
	col := tbl.ColumnByName(column)
	if col == nil {
		return nil, fmt.Errorf("engine: table %q has no column %q to group on", tbl.Name(), column)
	}
	byKey := make(map[string][]int)
	var keys []string
	for _, r := range universe(tbl, subset) {
		k := col.StringAt(r)
		if _, seen := byKey[k]; !seen {
			keys = append(keys, k)
		}
		byKey[k] = append(byKey[k], r)
	}
	sort.Strings(keys)
	groups := make([]core.Group, 0, len(keys))
	for _, k := range keys {
		groups = append(groups, core.Group{Key: k, Rows: byKey[k]})
	}
	return groups, nil
}

// discoverColumn implements Section 4.4's column scan: label a small
// fraction of tuples, score every low-cardinality column with the
// Section 3.2 planner, pick the cheapest. The labeled rows are returned
// for reuse by the sampler.
func (e *Engine) discoverColumn(ctx context.Context, tbl *table.Table, q Query, meter *core.Meter, cons core.Constraints, cost core.CostModel, rng *stats.RNG, subset []int) ([]core.Group, string, map[int]bool, error) {
	var cands []core.Candidate
	for i := 0; i < tbl.Schema().Len(); i++ {
		def := tbl.Schema().Col(i)
		if def.Name == q.UDFArg {
			continue // the UDF argument (usually a key) is not a predictor
		}
		groups, err := groupsFromColumn(tbl, def.Name, subset)
		if err != nil {
			return nil, "", nil, err
		}
		if len(groups) < 2 || len(groups) > e.MaxCandidateCardinality {
			continue
		}
		cands = append(cands, core.Candidate{Name: def.Name, Groups: groups})
	}
	if len(cands) == 0 {
		return nil, "", nil, fmt.Errorf("engine: table %q has no candidate correlated columns; use GROUP ON or %q", q.Table, VirtualColumn)
	}

	rows := universe(tbl, subset)
	frac := e.LabelFraction
	if frac <= 0 {
		frac = 0.01
	}
	labeled := make(map[int]bool)
	for attempt := 0; attempt < 8; attempt++ {
		batch, err := core.LabelFractionParallelCtx(ctx, rows, frac, meter, rng, e.parallelism())
		if err != nil {
			return nil, "", nil, err
		}
		for row, v := range batch {
			labeled[row] = v
		}
		choice, err := core.SelectColumn(cands, labeled, cons, cost)
		if err == nil {
			return cands[choice.Index].Groups, choice.Name, labeled, nil
		}
		frac *= 2 // every candidate disqualified: label more and retry
		if frac > 1 {
			break
		}
	}
	return nil, "", nil, fmt.Errorf("engine: could not qualify any correlated column for table %q", q.Table)
}

// virtualColumn implements Section 6.3.2: label ~1% of rows, train a
// logistic regression over the table's encodable features, score every
// row, and bucket the scores into equal-frequency groups.
func (e *Engine) virtualColumn(ctx context.Context, tbl *table.Table, q Query, meter *core.Meter, rng *stats.RNG, subset []int) ([]core.Group, string, map[int]bool, error) {
	enc, err := ml.BuildEncoder(tbl, ml.Encoder{
		MaxCardinality: e.MaxCandidateCardinality,
		Exclude:        []string{q.UDFArg},
	})
	if err != nil {
		return nil, "", nil, fmt.Errorf("engine: virtual column needs encodable features: %w", err)
	}
	rows := universe(tbl, subset)
	frac := e.LabelFraction
	if frac <= 0 {
		frac = 0.01
	}
	labeled, err := core.LabelFractionParallelCtx(ctx, rows, frac, meter, rng, e.parallelism())
	if err != nil {
		return nil, "", nil, err
	}

	// Train in sorted row order: ranging over the map would feed the
	// gradient accumulation in Go's randomized iteration order, making
	// same-seed runs diverge at the last ulp (and occasionally across a
	// bucket boundary).
	labeledRows := make([]int, 0, len(labeled))
	for row := range labeled {
		labeledRows = append(labeledRows, row)
	}
	sort.Ints(labeledRows)
	X := make([][]float64, 0, len(labeled))
	y := make([]bool, 0, len(labeled))
	for _, row := range labeledRows {
		X = append(X, enc.EncodeRow(tbl, row))
		y = append(y, labeled[row])
	}
	var model ml.LogisticRegression
	if err := model.Fit(X, y); err != nil {
		return nil, "", nil, fmt.Errorf("engine: training virtual column: %w", err)
	}
	scores := make([]float64, len(rows))
	for i, r := range rows {
		scores[i] = model.Prob(enc.EncodeRow(tbl, r))
	}
	k := e.VirtualBuckets
	if k <= 1 {
		k = 10
	}
	buckets := ml.EqualFrequencyBuckets(scores, k)
	byBucket := make([][]int, k)
	for i, b := range buckets {
		byBucket[b] = append(byBucket[b], rows[i])
	}
	var groups []core.Group
	for b, rws := range byBucket {
		if len(rws) == 0 {
			continue
		}
		groups = append(groups, core.Group{Key: fmt.Sprintf("bucket%02d", b), Rows: rws})
	}
	if len(groups) < 2 {
		return nil, "", nil, fmt.Errorf("engine: virtual column collapsed to %d buckets", len(groups))
	}
	return groups, VirtualColumn, labeled, nil
}

// projection validates the requested columns and returns their indices
// (nil means all columns).
func (e *Engine) projection(tbl *table.Table, cols []string) ([]int, error) {
	if len(cols) == 0 || (len(cols) == 1 && cols[0] == "*") {
		return nil, nil
	}
	idxs := make([]int, len(cols))
	for i, name := range cols {
		j := tbl.Schema().Lookup(name)
		if j < 0 {
			return nil, fmt.Errorf("engine: table %q has no column %q", tbl.Name(), name)
		}
		idxs[i] = j
	}
	return idxs, nil
}
