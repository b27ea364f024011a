// Package core implements the paper's contribution: optimizers that decide,
// per group of tuples sharing a correlated-attribute value, the probability
// of retrieving (Rₐ) and evaluating (Eₐ) tuples so that a selection query
// with an expensive UDF predicate meets user-specified precision (α),
// recall (β) and satisfaction-probability (ρ) constraints at minimum
// expected cost.
//
// Three information regimes are supported, mirroring Section 3:
//
//   - Perfect information (exact correct/incorrect counts): the NP-hard 0/1
//     problem, solved exactly by branch and bound (SolvePerfectInformation).
//   - Perfect selectivities: the Hoeffding-tightened linear program solved by
//     the O(|A| log |A|) BIGREEDY-LP algorithm (PlanPerfectSelectivities).
//   - Estimated selectivities: the Chebyshev-tightened convex programs for
//     unknown correlations and independent groups, and the sampling-aware
//     variant of Section 4 (PlanEstimated*, PlanWithSamples).
//
// The package also implements the Section 4 machinery for jointly
// estimating and exploiting selectivities (sampling allocators, Beta
// posterior estimates, adaptive sampling, correlated-column selection), the
// probabilistic executor, the experiment baselines, and the Section 5
// extensions (cost budgets, multiple predicates, selection before join).
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/exec"
	"repro/internal/stats"
)

// Constraints carries the user's accuracy requirements: precision lower
// bound Alpha, recall lower bound Beta, and satisfaction probability Rho
// (each constraint must hold with probability at least Rho).
type Constraints struct {
	Alpha float64
	Beta  float64
	Rho   float64
}

// Validate checks all fields lie in [0, 1].
func (c Constraints) Validate() error {
	if c.Alpha < 0 || c.Alpha > 1 {
		return fmt.Errorf("core: precision bound α=%v outside [0,1]", c.Alpha)
	}
	if c.Beta < 0 || c.Beta > 1 {
		return fmt.Errorf("core: recall bound β=%v outside [0,1]", c.Beta)
	}
	if c.Rho < 0 || c.Rho >= 1 {
		return fmt.Errorf("core: satisfaction probability ρ=%v outside [0,1)", c.Rho)
	}
	return nil
}

// CostModel carries the per-tuple costs: Retrieve is o_r (fetching a tuple
// from storage) and Evaluate is o_e (one UDF invocation). Evaluating a
// tuple always retrieves it first, so its total cost is o_r + o_e.
type CostModel struct {
	Retrieve float64
	Evaluate float64
}

// DefaultCost matches the paper's experimental setting: o_r = 1, o_e = 3.
var DefaultCost = CostModel{Retrieve: 1, Evaluate: 3}

// Validate checks costs are non-negative.
func (c CostModel) Validate() error {
	if c.Retrieve < 0 || c.Evaluate < 0 {
		return fmt.Errorf("core: negative cost (o_r=%v, o_e=%v)", c.Retrieve, c.Evaluate)
	}
	return nil
}

// GroupInfo is what the optimizer knows about one group of tuples sharing a
// correlated-attribute value.
type GroupInfo struct {
	// Size is tₐ, the number of tuples in the group (always known).
	Size int
	// Selectivity is sₐ: exact in the perfect-selectivity regime, the
	// posterior mean in the estimated regime.
	Selectivity float64
	// Variance is vₐ, the variance of the selectivity estimate; zero when
	// selectivities are known exactly.
	Variance float64
	// Sampled is Fₐ, the number of tuples already retrieved and evaluated
	// while estimating selectivities (Section 4). Zero if none.
	Sampled int
	// SampledPositive is F⁺ₐ, how many sampled tuples satisfied the
	// predicate. At most Sampled.
	SampledPositive int
}

// Remaining returns tₐ − Fₐ, the tuples the execution strategy still acts
// on.
func (g GroupInfo) Remaining() int { return g.Size - g.Sampled }

// Validate checks internal consistency.
func (g GroupInfo) Validate() error {
	if g.Size < 0 {
		return fmt.Errorf("core: negative group size %d", g.Size)
	}
	if g.Selectivity < 0 || g.Selectivity > 1 {
		return fmt.Errorf("core: selectivity %v outside [0,1]", g.Selectivity)
	}
	if g.Variance < 0 {
		return fmt.Errorf("core: negative variance %v", g.Variance)
	}
	if g.Sampled < 0 || g.Sampled > g.Size {
		return fmt.Errorf("core: sampled count %d outside [0,%d]", g.Sampled, g.Size)
	}
	if g.SampledPositive < 0 || g.SampledPositive > g.Sampled {
		return fmt.Errorf("core: sampled positives %d outside [0,%d]", g.SampledPositive, g.Sampled)
	}
	return nil
}

// GroupInfoFromSample builds the estimated-selectivity view of a group from
// its sampling outcome, using the Beta-posterior estimates of Section 4.1:
// sₐ = (F⁺+1)/(F+2) and vₐ = sₐ(1−sₐ)/(F+3).
func GroupInfoFromSample(size, sampled, positives int) GroupInfo {
	post := stats.NewBetaPosterior(positives, sampled-positives)
	return GroupInfo{
		Size:            size,
		Selectivity:     post.Mean(),
		Variance:        post.Variance(),
		Sampled:         sampled,
		SampledPositive: positives,
	}
}

// TotalSize sums tₐ over the groups.
func TotalSize(groups []GroupInfo) int {
	total := 0
	for _, g := range groups {
		total += g.Size
	}
	return total
}

// ExpectedCorrect returns Σ tₐ·sₐ, the expected number of correct tuples.
func ExpectedCorrect(groups []GroupInfo) float64 {
	total := 0.0
	for _, g := range groups {
		total += float64(g.Size) * g.Selectivity
	}
	return total
}

// Strategy is a probabilistic execution strategy: per group, the
// probability R of retrieving each tuple and the probability E of
// retrieving and evaluating it (so the conditional evaluation probability
// given retrieval is E/R). Invariant: 0 ≤ E[i] ≤ R[i] ≤ 1.
type Strategy struct {
	R []float64
	E []float64
	// RecallCapped records that the planner hit the "retrieve everything"
	// ceiling: recall is then 1 deterministically even though the
	// margin-tightened linear constraint could not be met.
	RecallCapped bool
	// PrecisionCapped records that the planner hit the "evaluate everything
	// retrieved" ceiling: the output then contains only verified tuples
	// (plus none unverified), so precision is 1 deterministically.
	PrecisionCapped bool
}

// NewStrategy returns an all-zero (discard everything) strategy over n
// groups.
func NewStrategy(n int) Strategy {
	return Strategy{R: make([]float64, n), E: make([]float64, n)}
}

// Len returns the number of groups the strategy covers.
func (s Strategy) Len() int { return len(s.R) }

// Validate checks the 0 ≤ E ≤ R ≤ 1 invariant (with tolerance eps).
func (s Strategy) Validate() error {
	if len(s.R) != len(s.E) {
		return errors.New("core: strategy R/E length mismatch")
	}
	const eps = 1e-9
	for i := range s.R {
		if s.R[i] < -eps || s.R[i] > 1+eps {
			return fmt.Errorf("core: R[%d]=%v outside [0,1]", i, s.R[i])
		}
		if s.E[i] < -eps || s.E[i] > s.R[i]+eps {
			return fmt.Errorf("core: E[%d]=%v outside [0,R=%v]", i, s.E[i], s.R[i])
		}
	}
	return nil
}

// ExpectedCost returns the expected execution cost
// Σ wₐ·(o_r·Rₐ + o_e·Eₐ) over the not-yet-sampled tuples (wₐ = tₐ − Fₐ).
// Sampling costs already paid are not included; see SampleOutcome.Cost.
func (s Strategy) ExpectedCost(groups []GroupInfo, cost CostModel) float64 {
	total := 0.0
	for i, g := range groups {
		w := float64(g.Remaining())
		total += w * (cost.Retrieve*s.R[i] + cost.Evaluate*s.E[i])
	}
	return total
}

// ExpectedEvaluations returns Σ wₐ·Eₐ, the expected number of UDF calls the
// strategy will make (excluding sampling).
func (s Strategy) ExpectedEvaluations(groups []GroupInfo) float64 {
	total := 0.0
	for i, g := range groups {
		total += float64(g.Remaining()) * s.E[i]
	}
	return total
}

// ExpectedRetrievals returns Σ wₐ·Rₐ (excluding sampling).
func (s Strategy) ExpectedRetrievals(groups []GroupInfo) float64 {
	total := 0.0
	for i, g := range groups {
		total += float64(g.Remaining()) * s.R[i]
	}
	return total
}

// FullEvaluation returns the exact-query strategy (retrieve and evaluate
// everything), which satisfies any constraints deterministically.
func FullEvaluation(n int) Strategy {
	s := NewStrategy(n)
	for i := range s.R {
		s.R[i], s.E[i] = 1, 1
	}
	s.RecallCapped, s.PrecisionCapped = true, true
	return s
}

// Clone returns a deep copy of the strategy.
func (s Strategy) Clone() Strategy {
	out := Strategy{
		R:               append([]float64(nil), s.R...),
		E:               append([]float64(nil), s.E...),
		RecallCapped:    s.RecallCapped,
		PrecisionCapped: s.PrecisionCapped,
	}
	return out
}

// clamp tidies tiny numerical violations after solver arithmetic.
func (s *Strategy) clamp() {
	for i := range s.R {
		s.R[i] = stats.Clamp01(s.R[i])
		if s.E[i] < 0 {
			s.E[i] = 0
		}
		if s.E[i] > s.R[i] {
			s.E[i] = s.R[i]
		}
	}
}

// UDF is the expensive predicate f: given a tuple's row id it reports
// whether the tuple satisfies the predicate. Implementations are expected
// to be deterministic per row within one query execution.
type UDF interface {
	Eval(row int) bool
}

// UDFFunc adapts a function to the UDF interface.
type UDFFunc func(row int) bool

// Eval implements UDF.
func (f UDFFunc) Eval(row int) bool { return f(row) }

// EvalCache is a store of already-paid-for UDF outcomes shared across
// queries (the engine keeps one per (table, UDF, column, want) key).
// Implementations must be safe for concurrent use.
type EvalCache interface {
	// Lookup reports a cached outcome for the row, if one exists.
	Lookup(row int) (bool, bool)
	// Store records the row's outcome.
	Store(row int, v bool)
}

// SharedEvalCache is the standard EvalCache: a mutex-guarded row → outcome
// map, safe for concurrent queries.
type SharedEvalCache struct {
	mu   sync.RWMutex
	vals map[int]bool
}

// NewSharedEvalCache returns an empty cache.
func NewSharedEvalCache() *SharedEvalCache {
	return &SharedEvalCache{vals: make(map[int]bool)}
}

// Lookup implements EvalCache.
func (c *SharedEvalCache) Lookup(row int) (bool, bool) {
	c.mu.RLock()
	v, ok := c.vals[row]
	c.mu.RUnlock()
	return v, ok
}

// Store implements EvalCache.
func (c *SharedEvalCache) Store(row int, v bool) {
	c.mu.Lock()
	c.vals[row] = v
	c.mu.Unlock()
}

// Len reports how many rows have cached outcomes.
func (c *SharedEvalCache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.vals)
}

// Preload bulk-loads outcomes (e.g. restored from a durable catalog).
func (c *SharedEvalCache) Preload(m map[int]bool) {
	c.mu.Lock()
	for row, v := range m {
		c.vals[row] = v
	}
	c.mu.Unlock()
}

// Snapshot copies the current outcomes (e.g. for persisting).
func (c *SharedEvalCache) Snapshot() map[int]bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make(map[int]bool, len(c.vals))
	for row, v := range c.vals {
		out[row] = v
	}
	return out
}

// Meter wraps a UDF and counts invocations; it memoizes results so repeated
// evaluations of the same tuple (e.g. sampled during estimation and touched
// again at execution) are charged once, matching the paper's accounting.
//
// Meter is safe for concurrent use: parallel batch evaluation may hit the
// same row from several goroutines, and single-flight de-duplication
// guarantees the underlying UDF runs (and is charged) at most once per row,
// keeping Calls deterministic at any parallelism level. An optional shared
// EvalCache supplies outcomes already paid for by earlier queries; hits are
// NOT charged to this meter.
//
// Every meter evaluates through the fallible path (see resilient.go):
// NewMeter adapts an infallible UDF, NewResilientMeter takes a fallible
// one plus an optional circuit breaker and failure callback.
type Meter struct {
	calls  atomic.Int64
	shared EvalCache // may be nil
	// fudf is the row evaluator. Failed rows are memoized as failed-final,
	// never charged, never cached, and reported once through onFailure.
	// gate, when non-nil, is the circuit breaker consulted by gated batch
	// evaluation.
	fudf      FallibleUDF
	gate      exec.Gate
	onFailure func(row int, err error)
	// cacheHits / cacheMisses count shared-cache lookups (zero when shared
	// is nil). Single-flight guarantees at most one lookup per row, so both
	// are deterministic at any parallelism level.
	cacheHits   atomic.Int64
	cacheMisses atomic.Int64

	mu   sync.Mutex
	memo map[int]*meterEntry
}

// meterEntry is a single-flight slot: the first goroutine to claim a row
// evaluates it and closes done; later arrivals wait on done. failed marks
// an evaluation that panicked or was cancelled (written before done
// closes): waiters retry instead of trusting the zero-value verdict.
// errFinal marks an evaluation that ultimately failed (after its own
// retries): the row stays memoized as failed for the meter's lifetime, so
// every phase of a query sees the same rows excluded.
type meterEntry struct {
	done     chan struct{}
	val      bool
	failed   bool
	errFinal bool
}

// NewMeter wraps udf with call counting and memoization. udf never fails,
// so every evaluated row is charged.
func NewMeter(udf UDF) *Meter {
	return NewResilientMeter(infallible{udf}, nil, nil, nil)
}

// infallible adapts a UDF to FallibleUDF: it never reports an error.
type infallible struct{ udf UDF }

// EvalErr implements FallibleUDF.
func (f infallible) EvalErr(_ context.Context, row int) (bool, error) {
	return f.udf.Eval(row), nil
}

// Eval implements UDF, charging only the first evaluation per row. A row
// whose evaluation ultimately failed reports false (the failure was
// already delivered through onFailure); batch paths use EvalRowsResilient
// for the per-row failure flags.
//
//predlint:allow ctxflow — UDF interface method; cancellable batch paths use EvalRowsResilient
func (m *Meter) Eval(row int) bool {
	v, _ := m.EvalFallible(context.Background(), row)
	return v
}

// Calls returns the number of distinct UDF invocations charged so far.
func (m *Meter) Calls() int { return int(m.calls.Load()) }

// CacheHits returns how many rows the shared cross-query cache served
// without charging an evaluation (always 0 without a shared cache).
func (m *Meter) CacheHits() int { return int(m.cacheHits.Load()) }

// CacheMisses returns how many shared-cache lookups fell through to a
// charged UDF invocation (always 0 without a shared cache).
func (m *Meter) CacheMisses() int { return int(m.cacheMisses.Load()) }

// Known reports whether row's value is already memoized (and what it is).
// In-flight evaluations on other goroutines and failed rows report as
// unknown.
func (m *Meter) Known(row int) (bool, bool) {
	m.mu.Lock()
	e, ok := m.memo[row]
	m.mu.Unlock()
	if !ok {
		return false, false
	}
	select {
	case <-e.done:
		if e.failed || e.errFinal {
			// The evaluation panicked or was cancelled after we fetched the
			// entry, or it failed for good: no verdict was computed.
			return false, false
		}
		return e.val, true
	default:
		return false, false
	}
}

// Group binds a group key to the row ids of its tuples.
type Group struct {
	Key  string
	Rows []int
}

// infeasibleMargin is the tolerance used when verifying planner output
// against its own constraints.
const feasEps = 1e-6

// almostGE reports a ≥ b within feasEps scaled by the magnitude of b.
func almostGE(a, b float64) bool {
	scale := math.Abs(b)
	if scale < 1 {
		scale = 1
	}
	return a >= b-feasEps*scale
}
