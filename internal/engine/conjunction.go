package engine

import (
	"context"
	"sort"

	"repro/internal/core"
)

// Conjunctions of expensive predicates. Two shapes exist:
//
//   - Exactly two predicates with accuracy bounds run the paper's §5
//     pipeline (opConjExec): sample both UDFs per group, estimate joint
//     selectivities, and plan one of five actions per group (discard /
//     assume both / evaluate either / evaluate both with short-circuit).
//     This requires an explicit GROUP ON column, like the paper.
//
//   - Every other conjunction runs short-circuit waves (conjWavesOp in
//     batch.go): each
//     predicate is evaluated only on the survivors of the ones before it.
//     Exact queries keep the predicates in query order; approximate N-ary
//     queries first sample every predicate (opConjSample) and order them
//     greedily cheapest-first by sampled cost/(1−selectivity). The wave
//     answer is exact — rows resolved during sampling are free, and the
//     sampling spend buys the ordering that minimizes wave work.

// opConjSample draws the N-ary conjunction's sample: every predicate over
// a Two-Third-Power allocation per group (the whole filtered scan counts
// as one group when no GROUP ON was given).
func (e *Engine) opConjSample(ctx context.Context, st *pipeState) error {
	cons := st.q.Approx.Constraints()
	groups := st.groups
	if groups == nil {
		groups = []core.Group{{Key: "all", Rows: universe(st.tbl, st.subset)}}
	}
	sizes := make([]int, len(groups))
	for i, g := range groups {
		sizes[i] = len(g.Rows)
	}
	udfs := make([]core.UDF, len(st.preds))
	for i, p := range st.preds {
		udfs[i] = p.meter
	}
	targets := core.TwoThirdPowerAllocator{Num: 2.5 * cons.Alpha}.Allocate(sizes)
	samples, sels, err := core.SampleConjunctionParallelCtx(ctx, groups, targets, udfs, st.rng.Split(), e.parallelism())
	if err != nil {
		return err
	}
	st.conjSamples, st.conjSels = samples, sels
	return nil
}

// opConjExec runs the §5 two-predicate pipeline over the resolved groups.
func (e *Engine) opConjExec(ctx context.Context, st *pipeState) error {
	q := st.q
	m1, m2 := st.preds[0].meter, st.preds[1].meter
	res, _, err := core.RunTwoPredicatesParallelCtx(ctx, st.groups, m1, m2, q.Approx.Constraints(), st.cost, nil, st.rng, e.parallelism())
	if err != nil {
		return err
	}
	sort.Ints(res.Output)
	if err := st.preds[0].fault.Err(); err != nil {
		return err
	}
	if err := st.preds[1].fault.Err(); err != nil {
		return err
	}
	// Charge evaluations from the query's meters so cross-query cache hits
	// are not re-charged.
	evals := m1.Calls() + m2.Calls()
	st.res = &Result{
		Rows: res.Output,
		Stats: Stats{
			Evaluations:  evals,
			Retrievals:   res.Retrieved,
			Cost:         float64(res.Retrieved)*st.cost.Retrieve + float64(evals)*st.cost.Evaluate,
			ChosenColumn: q.GroupOn,
			Sampled:      res.Sampled,
			CacheHits:    m1.CacheHits() + m2.CacheHits(),
			CacheMisses:  m1.CacheMisses() + m2.CacheMisses(),
		},
	}
	return nil
}
