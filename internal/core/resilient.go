package core

import (
	"context"
	"errors"

	"repro/internal/exec"
	"repro/internal/resilience"
)

// Resilient evaluation: the core algorithms (sampling, labeling, the
// probabilistic executor, conjunction waves) evaluate UDFs through the
// EvalRowsResilient helper below, which runs one gated batch: per-row
// failure flags come back, the meter's circuit breaker (if any) decides
// admissions segment by segment, and every caller excludes failed rows
// from its evidence (samples, labels, output) so a flaky UDF degrades a
// query instead of poisoning it.

// FallibleUDF is a row evaluator that can fail. Implementations perform
// their own retries (see resilience.Do); an error here is final for the
// row. A cancellation error (ctx.Err()) must be returned unwrapped so the
// meter can tell "this row failed" from "this batch is aborting".
type FallibleUDF interface {
	EvalErr(ctx context.Context, row int) (bool, error)
}

// EvalRowsResilient evaluates rows under udf honoring ctx as one gated
// batch; the second slice flags failed rows. A *Meter steers the batch
// with its circuit breaker (if any) and evaluates through its
// single-flight body; any other UDF is evaluated as infallible with no
// gate. On cancellation all outputs are withheld: (nil, nil, ctx.Err()).
func EvalRowsResilient(ctx context.Context, pool *exec.Pool, rows []int, udf UDF) ([]bool, []bool, error) {
	if m, ok := udf.(*Meter); ok {
		return pool.EvalRowsGatedCtx(ctx, rows, m.gate, m.EvalFallible, m.ResolveDenied)
	}
	eval := func(_ context.Context, row int) (bool, bool) { return udf.Eval(row), false }
	return pool.EvalRowsGatedCtx(ctx, rows, nil, eval, nil)
}

// NewResilientMeter wraps a fallible row evaluator with the standard meter
// guarantees — call counting, single-flight memoization, an optional
// shared cross-query cache — plus failure semantics: a row whose
// evaluation ultimately fails (after the evaluator's own retries) is
// memoized as failed for the meter's lifetime, is never charged to Calls,
// never stored in the shared cache, and is reported exactly once through
// onFailure. gate, when non-nil, is consulted by gated batch evaluation
// (EvalRowsResilient); denied rows resolve from the memo or cache when
// known and fail otherwise. Both gate and onFailure may be nil.
func NewResilientMeter(fudf FallibleUDF, cache EvalCache, gate exec.Gate, onFailure func(row int, err error)) *Meter {
	return &Meter{fudf: fudf, shared: cache, gate: gate, onFailure: onFailure, memo: make(map[int]*meterEntry)}
}

// Gate returns the circuit breaker steering the meter's gated batches
// (nil = none).
func (m *Meter) Gate() exec.Gate { return m.gate }

// EvalFallible is the meter's single-flight evaluation, reporting
// (verdict, failed); a failed row always carries verdict false. Failure
// handling:
//
//   - a genuine failure memoizes the row as failed-final (every later
//     phase of the query sees the same exclusion), skips the charge and the
//     cache store, and fires onFailure once;
//   - a cancellation (the batch is aborting) forgets the row — a later run
//     of the query must re-evaluate it;
//   - a panic in the evaluator (or the shared cache) forgets the row too,
//     releases waiters flagged failed so they retry rather than inherit a
//     zero-value verdict, and propagates to the caller.
func (m *Meter) EvalFallible(ctx context.Context, row int) (bool, bool) {
	var e *meterEntry
	for {
		m.mu.Lock()
		if cur, ok := m.memo[row]; ok {
			m.mu.Unlock()
			<-cur.done
			if cur.failed {
				// The owner panicked or was cancelled; the row was
				// forgotten — retry.
				continue
			}
			return cur.val, cur.errFinal
		}
		e = &meterEntry{done: make(chan struct{})}
		m.memo[row] = e
		m.mu.Unlock()
		break
	}

	completed := false
	defer func() {
		if !completed {
			m.forget(row, e)
		}
	}()
	if m.shared != nil {
		if v, ok := m.shared.Lookup(row); ok {
			m.cacheHits.Add(1)
			e.val = v
			completed = true
			close(e.done)
			return v, false
		}
		m.cacheMisses.Add(1)
	}
	v, err := m.fudf.EvalErr(ctx, row)
	completed = true
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			// Batch abort, not a row failure.
			m.forget(row, e)
			return false, true
		}
		e.errFinal = true
		close(e.done)
		if m.onFailure != nil {
			m.onFailure(row, err)
		}
		return false, true
	}
	m.calls.Add(1)
	e.val = v
	close(e.done)
	if m.shared != nil {
		m.shared.Store(row, v)
	}
	return v, false
}

// forget drops row's in-flight slot e so a later evaluation starts afresh,
// and releases its waiters flagged failed so they retry.
func (m *Meter) forget(row int, e *meterEntry) {
	e.failed = true
	m.mu.Lock()
	delete(m.memo, row)
	m.mu.Unlock()
	close(e.done)
}

// ResolveDenied resolves a breaker-denied row without invoking the UDF,
// reporting (verdict, failed). A row whose outcome is already memoized or
// cached resolves normally (denial costs nothing); otherwise the row is
// memoized as failed-final so the whole query treats it consistently, and
// onFailure fires with resilience.ErrBreakerOpen.
func (m *Meter) ResolveDenied(row int) (bool, bool) {
	m.mu.Lock()
	if cur, ok := m.memo[row]; ok {
		m.mu.Unlock()
		select {
		case <-cur.done:
			if !cur.failed {
				return cur.val, cur.errFinal
			}
		default:
		}
		// In-flight or forgotten entries cannot happen on the sequential
		// deny path of a gated batch; fail safe by denying.
		return false, true
	}
	e := &meterEntry{done: make(chan struct{})}
	m.memo[row] = e
	m.mu.Unlock()

	if m.shared != nil {
		if v, ok := m.shared.Lookup(row); ok {
			m.cacheHits.Add(1)
			e.val = v
			close(e.done)
			return v, false
		}
		m.cacheMisses.Add(1)
	}
	e.errFinal = true
	close(e.done)
	if m.onFailure != nil {
		m.onFailure(row, resilience.ErrBreakerOpen)
	}
	return false, true
}
