package engine

import (
	"fmt"

	"repro/internal/core"
)

// Approx carries the accuracy contract of an approximate query.
type Approx struct {
	Precision   float64 // α
	Recall      float64 // β
	Probability float64 // ρ
}

// Constraints converts to the core representation.
func (a Approx) Constraints() core.Constraints {
	return core.Constraints{Alpha: a.Precision, Beta: a.Recall, Rho: a.Probability}
}

// Query is the engine's logical plan for
//
//	SELECT cols FROM table WHERE udf(arg) = want
//	[WITH PRECISION α RECALL β PROBABILITY ρ] [GROUP ON col] [BUDGET b]
type Query struct {
	// Table to select from.
	Table string
	// Columns to project; empty or ["*"] means all.
	Columns []string
	// UDFName / UDFArg form the predicate UDFName(UDFArg) = Want.
	UDFName string
	UDFArg  string
	// Want is the required predicate outcome (true for "= 1").
	Want bool
	// Approx, when non-nil, allows approximate evaluation; nil demands the
	// exact answer (evaluate every tuple).
	Approx *Approx
	// GroupOn optionally pins the correlated column; empty lets the engine
	// discover one (Section 4.4), and the special value "virtual" requests
	// the logistic-regression virtual column of Section 6.3.2.
	GroupOn string
	// Budget, when positive, switches to the fixed-budget objective:
	// maximize recall subject to the precision bound and cost ≤ Budget.
	Budget float64
	// Conjuncts adds further expensive predicates ANDed with the first
	// (Section 5 and its N-ary generalization): for each c,
	// AND c.UDFName(c.UDFArg) = c.Want. With exactly one conjunct and
	// Approx set, the planner uses the paper's five-action two-predicate
	// optimizer (which requires an explicit GroupOn column); with two or
	// more, it samples every predicate, orders them cheapest-first and
	// evaluates in short-circuit waves. Without Approx, conjunctions of any
	// arity evaluate exactly, each wave touching only prior survivors.
	Conjuncts []Conjunct
	// Filters are cheap equality predicates evaluated before any UDF work.
	Filters []Filter
	// OnFailure decides what a row whose UDF invocation ultimately fails
	// (after retries, or denied by an open circuit breaker) means: fail the
	// query (FailOnError, the default), silently exclude the row
	// (SkipFailed), or exclude it and mark the result degraded
	// (DegradeFailed). "" defers to the engine default.
	OnFailure FailurePolicy
}

// Conjunct is one additional expensive predicate of a conjunction.
type Conjunct struct {
	UDFName string
	UDFArg  string
	Want    bool
}

// predicates lists every expensive predicate of the query, first predicate
// first.
func (q Query) predicates() []Conjunct {
	preds := make([]Conjunct, 0, 1+len(q.Conjuncts))
	preds = append(preds, Conjunct{UDFName: q.UDFName, UDFArg: q.UDFArg, Want: q.Want})
	return append(preds, q.Conjuncts...)
}

// Filter is a cheap (non-UDF) equality predicate. Per Section 5, cheap
// predicates execute first: the engine scans the column store, keeps only
// matching rows, and runs the expensive-predicate machinery on that
// subset. Values compare against the canonical string rendering of the
// cell (so "42", "42.5" and "A" all work).
type Filter struct {
	Column string
	Value  string
}

// Validate performs static checks (table/UDF existence is checked at
// execution time).
func (q Query) Validate() error {
	if q.Table == "" {
		return fmt.Errorf("engine: query without table")
	}
	if q.UDFName == "" || q.UDFArg == "" {
		return fmt.Errorf("engine: query without UDF predicate")
	}
	if q.Approx != nil {
		c := q.Approx.Constraints()
		if err := c.Validate(); err != nil {
			return err
		}
	}
	if q.Budget < 0 {
		return fmt.Errorf("engine: negative budget %v", q.Budget)
	}
	if q.Budget > 0 && q.Approx == nil {
		return fmt.Errorf("engine: BUDGET requires WITH PRECISION/RECALL/PROBABILITY")
	}
	for _, c := range q.Conjuncts {
		if c.UDFName == "" || c.UDFArg == "" {
			return fmt.Errorf("engine: empty AND predicate")
		}
	}
	if len(q.Conjuncts) > 0 && q.Budget > 0 {
		return fmt.Errorf("engine: BUDGET is not supported with AND conjunctions")
	}
	if _, err := ParseFailurePolicy(string(q.OnFailure)); err != nil {
		return err
	}
	return nil
}

// Stats reports how a query execution spent its budget.
type Stats struct {
	// Evaluations is the number of UDF invocations (sampling + execution).
	Evaluations int
	// Retrievals is the number of tuples fetched.
	Retrievals int
	// Cost is o_r·Retrievals + o_e·Evaluations.
	Cost float64
	// ChosenColumn is the correlated column the optimizer used ("" for
	// exact execution).
	ChosenColumn string
	// Sampled is the number of tuples examined while estimating
	// selectivities (labeling + sampling). Zero for exact queries. On a
	// cold UDF cache every sampled tuple is also an Evaluation; when the
	// cross-query cache is warm, sampled tuples served from cache are not
	// charged, so Sampled may exceed Evaluations.
	Sampled int
	// Exact reports whether the query ran without approximation.
	Exact bool
	// AchievedRecallBound is set for budget queries: the recall bound the
	// planner could afford.
	AchievedRecallBound float64
	// CacheHits counts rows this query was served from the cross-query
	// outcome cache (no UDF invocation charged). Zero when the cache is
	// disabled.
	CacheHits int
	// CacheMisses counts cache lookups this query paid for with a fresh
	// UDF invocation. Zero when the cache is disabled.
	CacheMisses int
	// FailedRows counts rows whose UDF invocation ultimately failed (after
	// retries, or denied by an open circuit breaker), summed per predicate:
	// a row failing under two predicates counts twice. Failed rows are
	// excluded from the output and from all learned evidence.
	FailedRows int
	// Retries counts the extra UDF invocation attempts retries made beyond
	// each row's first.
	Retries int
	// BreakerTrips counts how many times this query tripped a circuit
	// breaker open.
	BreakerTrips int
	// Degraded marks a partial result: the failure policy was "degrade"
	// and at least one row was excluded because its UDF invocation failed.
	Degraded bool
}

// Result is a plan's product as its operators assemble it: the execution
// statistics plus, for blocking shapes, the finished row ids of the base
// table that the pipeline's terminal then delivers to Run's sink.
// Streaming terminals deliver their rows batch by batch and leave Rows nil.
type Result struct {
	Rows  []int
	Stats Stats
}
