package core

import (
	"context"
	"fmt"

	"repro/internal/exec"
	"repro/internal/stats"
)

// Execution and estimation for conjunctions of two expensive predicates
// (Section 5 / Appendix 10.7.2). Planning lives in extensions.go
// (PlanTwoPredicates); this file adds per-group sampling of both UDFs and
// a deterministic executor for the five per-group actions.

// TwoPredSample records, per group, the sampled rows' outcomes under both
// predicates.
type TwoPredSample struct {
	// Results maps sampled row → (f1, f2) outcomes.
	Results map[int][2]bool
	// Pos1, Pos2, PosBoth count rows passing f1, f2 and both.
	Pos1, Pos2, PosBoth int
}

// SampleTwoPredicatesParallelCtx evaluates both UDFs on `targets[i]`
// random tuples of each group and returns per-group samples plus
// TwoPredGroup estimates (Beta-posterior means over the remaining tuples).
// Evaluations are charged through the provided UDFs (wrap them in meters)
// and fan across up to `parallelism` workers, honoring a context. All
// sampled rows are drawn from the RNG up front (sequentially), so the
// sampled sets and estimates are identical at any parallelism level; a
// cancel during evaluation returns ctx.Err() with no partial samples.
func SampleTwoPredicatesParallelCtx(ctx context.Context, groups []Group, targets []int, udf1, udf2 UDF, rng *stats.RNG, parallelism int) ([]TwoPredSample, []TwoPredGroup, error) {
	if len(targets) != len(groups) {
		return nil, nil, fmt.Errorf("core: %d targets for %d groups", len(targets), len(groups))
	}
	samples := make([]TwoPredSample, len(groups))
	infos := make([]TwoPredGroup, len(groups))
	// Plan: draw every group's sample rows in order.
	var work, groupOf []int
	for i, g := range groups {
		samples[i] = TwoPredSample{Results: make(map[int][2]bool)}
		want := targets[i]
		if want > len(g.Rows) {
			want = len(g.Rows)
		}
		for _, idx := range rng.SampleWithoutReplacement(len(g.Rows), want) {
			work = append(work, g.Rows[idx])
			groupOf = append(groupOf, i)
		}
	}
	// Evaluate both predicates over the batch, one gated batch each
	// (sampling never short-circuits: joint selectivities need both
	// outcomes). A row with a failed evaluation under either predicate is
	// dropped from the sample entirely: joint statistics need both
	// outcomes, so a partial row is no evidence.
	pool := exec.NewPool(parallelism)
	v1s, f1s, err := EvalRowsResilient(ctx, pool, work, udf1)
	if err != nil {
		return nil, nil, err
	}
	v2s, f2s, err := EvalRowsResilient(ctx, pool, work, udf2)
	if err != nil {
		return nil, nil, err
	}
	for k, row := range work {
		if f1s[k] || f2s[k] {
			continue
		}
		i := groupOf[k]
		v1, v2 := v1s[k], v2s[k]
		samples[i].Results[row] = [2]bool{v1, v2}
		if v1 {
			samples[i].Pos1++
		}
		if v2 {
			samples[i].Pos2++
		}
		if v1 && v2 {
			samples[i].PosBoth++
		}
	}
	for i, g := range groups {
		f := len(samples[i].Results)
		infos[i] = TwoPredGroup{
			Size: len(g.Rows),
			Sel1: stats.NewBetaPosterior(samples[i].Pos1, f-samples[i].Pos1).Mean(),
			Sel2: stats.NewBetaPosterior(samples[i].Pos2, f-samples[i].Pos2).Mean(),
		}
	}
	return samples, infos, nil
}

// TwoPredExecResult is the outcome of executing a two-predicate plan.
type TwoPredExecResult struct {
	Output    []int
	Retrieved int
	// Evaluated1 / Evaluated2 count UDF invocations charged during
	// execution per predicate (excluding sampling).
	Evaluated1, Evaluated2 int
	Cost                   float64
	// Sampled counts the rows sampled with both outcomes known. Only
	// RunTwoPredicatesParallelCtx sets it, and it then also folds the
	// sampling work into Retrieved, Evaluated1/2 and Cost.
	Sampled int
}

// tpKind classifies what a two-predicate output slot still needs.
type tpKind uint8

const (
	tpEmit     tpKind = iota // unconditional output
	tpNeed1                  // output iff f1
	tpNeed2                  // output iff f2
	tpNeedBoth               // output iff f1, then f2 (short-circuit preserved)
)

// tpSlot is one potential output position of the two-predicate executor.
type tpSlot struct {
	row        int
	kind       tpKind
	idx1, idx2 int
}

// ExecuteTwoPredicatesParallelCtx runs the per-group actions. Rows fully
// evaluated during sampling are resolved from their recorded outcomes at
// no extra cost (they are returned iff both predicates held). samples may
// be nil.
//
// Action semantics per remaining tuple:
//
//	TPDiscard       skip
//	TPAssumeBoth    retrieve, return
//	TPEval1Assume2  retrieve, evaluate f1, return iff f1
//	TPAssume1Eval2  retrieve, evaluate f2, return iff f2
//	TPEvalBoth      retrieve, evaluate f1; if it passes, evaluate f2;
//	                return iff both
//
// The UDF calls are batched and fanned across up to `parallelism`
// workers, honoring a context. Evaluation runs in waves — all needed f1
// calls, then the unconditional f2 calls, then f2 on the f1 survivors of
// TPEvalBoth groups — so the short-circuit accounting (f2 is never
// charged for rows f1 rejected) holds exactly, and output order and all
// counters are identical at any parallelism level. A cancel in any
// evaluation wave returns ctx.Err() and an empty result.
func ExecuteTwoPredicatesParallelCtx(ctx context.Context, groups []Group, acts []TwoPredAction, samples []TwoPredSample, udf1, udf2 UDF, cost CostModel, parallelism int) (TwoPredExecResult, error) {
	if len(acts) != len(groups) {
		return TwoPredExecResult{}, fmt.Errorf("core: %d actions for %d groups", len(acts), len(groups))
	}
	if samples != nil && len(samples) != len(groups) {
		return TwoPredExecResult{}, fmt.Errorf("core: %d samples for %d groups", len(samples), len(groups))
	}
	var res TwoPredExecResult

	// Plan: classify every tuple, building the f1 work-list and the
	// unconditional-f2 work-list.
	var slots []tpSlot
	var work1, work2 []int
	for gi, g := range groups {
		act := acts[gi]
		var sampled map[int][2]bool
		if samples != nil {
			sampled = samples[gi].Results
		}
		for _, row := range g.Rows {
			if v, ok := sampled[row]; ok {
				if v[0] && v[1] {
					slots = append(slots, tpSlot{row: row, kind: tpEmit})
				}
				continue
			}
			switch act {
			case TPDiscard:
			case TPAssumeBoth:
				res.Retrieved++
				slots = append(slots, tpSlot{row: row, kind: tpEmit})
			case TPEval1Assume2:
				res.Retrieved++
				slots = append(slots, tpSlot{row: row, kind: tpNeed1, idx1: len(work1)})
				work1 = append(work1, row)
			case TPAssume1Eval2:
				res.Retrieved++
				slots = append(slots, tpSlot{row: row, kind: tpNeed2, idx2: len(work2)})
				work2 = append(work2, row)
			case TPEvalBoth:
				res.Retrieved++
				slots = append(slots, tpSlot{row: row, kind: tpNeedBoth, idx1: len(work1)})
				work1 = append(work1, row)
			default:
				return TwoPredExecResult{}, fmt.Errorf("core: invalid action %v for group %d", act, gi)
			}
		}
	}

	// Wave 1: every needed f1 call, then the unconditional f2 calls.
	// Failed evaluations carry verdict false, so failed rows drop out of
	// the output (and, for TPEvalBoth, never reach the f2 wave).
	pool := exec.NewPool(parallelism)
	v1, _, err := EvalRowsResilient(ctx, pool, work1, udf1)
	if err != nil {
		return TwoPredExecResult{}, err
	}
	v2, _, err := EvalRowsResilient(ctx, pool, work2, udf2)
	if err != nil {
		return TwoPredExecResult{}, err
	}

	// Wave 2: f2 on the TPEvalBoth rows that survived f1.
	var work2b []int
	for si := range slots {
		sl := &slots[si]
		if sl.kind != tpNeedBoth {
			continue
		}
		if v1[sl.idx1] {
			sl.idx2 = len(work2b)
			work2b = append(work2b, sl.row)
		} else {
			sl.idx2 = -1
		}
	}
	v2b, _, err := EvalRowsResilient(ctx, pool, work2b, udf2)
	if err != nil {
		return TwoPredExecResult{}, err
	}

	res.Evaluated1 = len(work1)
	res.Evaluated2 = len(work2) + len(work2b)
	for _, sl := range slots {
		switch sl.kind {
		case tpEmit:
			res.Output = append(res.Output, sl.row)
		case tpNeed1:
			if v1[sl.idx1] {
				res.Output = append(res.Output, sl.row)
			}
		case tpNeed2:
			if v2[sl.idx2] {
				res.Output = append(res.Output, sl.row)
			}
		case tpNeedBoth:
			if sl.idx2 >= 0 && v2b[sl.idx2] {
				res.Output = append(res.Output, sl.row)
			}
		}
	}
	res.Cost = cost.Retrieve*float64(res.Retrieved) +
		cost.Evaluate*float64(res.Evaluated1+res.Evaluated2)
	return res, nil
}

// RunTwoPredicatesParallelCtx is the end-to-end pipeline for a
// conjunction of two expensive predicates: sample both UDFs per group,
// estimate joint selectivities, plan with PlanTwoPredicates (constraints
// tightened by Hoeffding margins so the expectation-level plan carries a
// probabilistic guarantee), and execute. A tuple is correct iff both
// predicates hold. Evaluations are charged to the caller's meters, whose
// failure, cache and breaker rules apply to every phase. Sampling and
// execution fan across up to `parallelism` workers, honoring a context;
// planning stays sequential and results are identical at any parallelism
// level. A cancel mid-pipeline returns ctx.Err() after at most one
// in-flight UDF call per worker.
func RunTwoPredicatesParallelCtx(ctx context.Context, groups []Group, m1, m2 *Meter, cons Constraints, cost CostModel, alloc Allocator, rng *stats.RNG, parallelism int) (TwoPredExecResult, []TwoPredAction, error) {
	if alloc == nil {
		alloc = TwoThirdPowerAllocator{Num: 2.5 * cons.Alpha}
	}
	if rng == nil {
		return TwoPredExecResult{}, nil, fmt.Errorf("core: rng is required")
	}
	sizes := make([]int, len(groups))
	total := 0
	for i, g := range groups {
		sizes[i] = len(g.Rows)
		total += len(g.Rows)
	}
	calls1, calls2 := m1.Calls(), m2.Calls()
	samples, infos, err := SampleTwoPredicatesParallelCtx(ctx, groups, alloc.Allocate(sizes), m1, m2, rng.Split(), parallelism)
	if err != nil {
		return TwoPredExecResult{}, nil, err
	}
	evals1, evals2 := m1.Calls()-calls1, m2.Calls()-calls2

	// Expectation-level planning with margin-tightened constraints: shift
	// α and β by the relative Hoeffding deviations so the realized
	// precision/recall concentrate above the user's bounds.
	tight := cons
	n := float64(total)
	if n > 0 {
		expCorrect := 0.0
		for _, g := range infos {
			expCorrect += float64(g.Size) * g.Sel1 * g.Sel2
		}
		if expCorrect > 1 {
			tight.Beta = stats.Clamp01(cons.Beta + stats.RecallMargin(n, cons.Beta, cons.Rho)/expCorrect)
			tight.Alpha = stats.Clamp01(cons.Alpha + stats.PrecisionMargin(n, cons.Rho)/expCorrect)
		}
	}
	acts, _, err := PlanTwoPredicates(infos, tight, cost)
	if err != nil {
		// Margins can push the tightened problem out of feasibility even
		// though evaluating both predicates everywhere trivially satisfies
		// the user's real constraints — fall back to that.
		acts = make([]TwoPredAction, len(groups))
		for i := range acts {
			acts[i] = TPEvalBoth
		}
	}
	exec, err := ExecuteTwoPredicatesParallelCtx(ctx, groups, acts, samples, m1, m2, cost, parallelism)
	if err != nil {
		return TwoPredExecResult{}, nil, err
	}
	// Fold the sampling work into the accounting.
	for _, s := range samples {
		exec.Sampled += len(s.Results)
	}
	exec.Retrieved += exec.Sampled
	exec.Evaluated1 += evals1
	exec.Evaluated2 += evals2
	exec.Cost += float64(exec.Sampled)*cost.Retrieve + float64(evals1+evals2)*cost.Evaluate
	return exec, acts, nil
}
