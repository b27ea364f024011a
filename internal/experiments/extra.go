package experiments

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
)

// Experiments beyond the numbered tables/figures: the §6.2.1 column
// robustness study, the §4.3 adaptive sampler, and the ablations DESIGN.md
// calls out.

// ---------------------------------------------------------------- columns

// ColumnRobustnessResult reproduces the §6.2.1 study: Intel-Sample run
// with each candidate predictor column of the LC dataset.
type ColumnRobustnessResult struct {
	Columns []string
	Evals   []float64 // aligned with Columns, ascending
	Naive   float64
}

func (c *ColumnRobustnessResult) String() string {
	rows := make([][]string, len(c.Columns))
	for i := range c.Columns {
		rows[i] = []string{c.Columns[i], f0(c.Evals[i])}
	}
	out := textTable([]string{"column", "evaluations"}, rows)
	return out + fmt.Sprintf("naive reference: %.0f\n", c.Naive)
}

// BestWorst returns the extreme mean evaluation counts.
func (c *ColumnRobustnessResult) BestWorst() (best, worst float64) {
	if len(c.Evals) == 0 {
		return 0, 0
	}
	return c.Evals[0], c.Evals[len(c.Evals)-1]
}

func runColumns(r *Runner) (fmt.Stringer, error) {
	iters := r.iters(5)
	cons := r.cons()
	d, err := r.Dataset("lc")
	if err != nil {
		return nil, err
	}
	// Candidate columns: the true predictor, its coarsening, and the noisy
	// extra predictors.
	cols := []string{d.Spec.Predictor, "coarse_" + d.Spec.Predictor}
	for j := 0; j < d.Spec.ExtraPredictors; j++ {
		cols = append(cols, fmt.Sprintf("pred_%02d", j))
	}
	rng := r.rng(hash("columns"))
	type colEval struct {
		name  string
		evals float64
	}
	results := make([]colEval, 0, len(cols))
	for _, col := range cols {
		groups, err := d.Groups(col)
		if err != nil {
			return nil, err
		}
		var agg average
		for i := 0; i < iters; i++ {
			in := core.Instance{Groups: groups, UDF: core.NewMeter(d.UDF()), Cons: cons, Cost: core.DefaultCost}
			res, err := core.RunIntelSample(context.Background(), in, core.RunOptions{RNG: rng.Split()})
			if err != nil {
				return nil, err
			}
			agg.add(outcomeFromRun(d, cons, res))
		}
		results = append(results, colEval{col, agg.meanEvals()})
	}
	sort.Slice(results, func(i, j int) bool { return results[i].evals < results[j].evals })

	var naive average
	for i := 0; i < iters; i++ {
		o, err := runNaive(d, cons, rng.Split())
		if err != nil {
			return nil, err
		}
		naive.add(o)
	}
	out := &ColumnRobustnessResult{Naive: naive.meanEvals()}
	for _, ce := range results {
		out.Columns = append(out.Columns, ce.name)
		out.Evals = append(out.Evals, ce.evals)
	}
	return out, nil
}

// --------------------------------------------------------------- adaptive

// AdaptiveResult reports the §4.3 adaptive num search per dataset.
type AdaptiveResult struct {
	Datasets      []string
	ChosenNum     []float64
	AdaptiveEvals []float64
	FixedEvals    []float64 // fixed num = 2.5α reference
}

func (a *AdaptiveResult) String() string {
	rows := make([][]string, len(a.Datasets))
	for i := range a.Datasets {
		rows[i] = []string{
			a.Datasets[i], f2(a.ChosenNum[i]), f0(a.AdaptiveEvals[i]), f0(a.FixedEvals[i]),
		}
	}
	return textTable([]string{"dataset", "chosen num", "adaptive evals", "fixed-num evals"}, rows)
}

func runAdaptive(r *Runner) (fmt.Stringer, error) {
	iters := r.iters(5)
	cons := r.cons()
	res := &AdaptiveResult{}
	for _, name := range DatasetNames() {
		d, err := r.Dataset(name)
		if err != nil {
			return nil, err
		}
		rng := r.rng(hash("adaptive" + name))
		var adaptive, fixed average
		numSum := 0.0
		for i := 0; i < iters; i++ {
			in, err := d.Instance(cons, core.DefaultCost)
			if err != nil {
				return nil, err
			}
			// Run the adaptive search manually to capture the chosen num.
			meter := core.NewMeter(d.UDF())
			in.UDF = meter
			sampler := core.NewSampler(in.Groups, meter, rng.Split())
			num, err := core.AdaptiveTwoThirdPower(context.Background(), sampler, cons, core.DefaultCost, core.AdaptiveOptions{})
			if err != nil {
				return nil, err
			}
			numSum += num
			strat, err := core.PlanWithSamples(sampler.Infos(), cons, core.DefaultCost)
			if err != nil {
				return nil, err
			}
			exec, err := core.ExecuteParallelCtx(context.Background(), in.Groups, strat, sampler.Outcomes(), meter, core.DefaultCost, rng.Split(), 1)
			if err != nil {
				return nil, err
			}
			m := core.ComputeMetrics(exec.Output, d.Truth(), d.TotalCorrect())
			pOK, rOK := m.Satisfies(cons)
			adaptive.add(AlgoOutcome{
				Evaluations: meter.Calls(),
				Retrievals:  sampler.TotalSampled() + exec.Retrieved,
				Precision:   m.Precision, Recall: m.Recall,
				SatisfiedP: pOK, SatisfiedR: rOK,
			})

			o, err := runIntel(d, cons, nil, rng.Split())
			if err != nil {
				return nil, err
			}
			fixed.add(o)
		}
		res.Datasets = append(res.Datasets, name)
		res.ChosenNum = append(res.ChosenNum, numSum/float64(iters))
		res.AdaptiveEvals = append(res.AdaptiveEvals, adaptive.meanEvals())
		res.FixedEvals = append(res.FixedEvals, fixed.meanEvals())
	}
	return res, nil
}

// -------------------------------------------------------------- ablations

// SolverAblationResult compares the fixed-point and projected-gradient
// convex planners on the same estimated instances.
type SolverAblationResult struct {
	Datasets     []string
	FixedCost    []float64
	GradientCost []float64
	FixedTime    []time.Duration
	GradientTime []time.Duration
}

func (s *SolverAblationResult) String() string {
	rows := make([][]string, len(s.Datasets))
	for i := range s.Datasets {
		rows[i] = []string{
			s.Datasets[i],
			f0(s.FixedCost[i]), f0(s.GradientCost[i]),
			s.FixedTime[i].String(), s.GradientTime[i].String(),
		}
	}
	return textTable([]string{"dataset", "fixed-point cost", "gradient cost", "fp time", "grad time"}, rows)
}

func runSolverAblation(r *Runner) (fmt.Stringer, error) {
	cons := r.cons()
	res := &SolverAblationResult{}
	for _, name := range DatasetNames() {
		d, err := r.Dataset(name)
		if err != nil {
			return nil, err
		}
		rng := r.rng(hash("solverabl" + name))
		groups, err := d.PredictorGroups()
		if err != nil {
			return nil, err
		}
		meter := core.NewMeter(d.UDF())
		sampler := core.NewSampler(groups, meter, rng.Split())
		sizes := make([]int, len(groups))
		for i, g := range groups {
			sizes[i] = len(g.Rows)
		}
		if _, err := sampler.TopUpCtx(context.Background(), (core.TwoThirdPowerAllocator{Num: 2.5 * cons.Alpha}).Allocate(sizes)); err != nil {
			return nil, err
		}
		infos := sampler.Infos()

		t0 := time.Now()
		sFP, err := core.PlanWithSamples(infos, cons, core.DefaultCost)
		if err != nil {
			return nil, err
		}
		fpTime := time.Since(t0)
		t0 = time.Now()
		sGrad, err := core.PlanEstimatedGradient(infos, cons, core.DefaultCost, core.IndependentGroups)
		if err != nil {
			return nil, err
		}
		gradTime := time.Since(t0)

		res.Datasets = append(res.Datasets, name)
		res.FixedCost = append(res.FixedCost, sFP.ExpectedCost(infos, core.DefaultCost))
		res.GradientCost = append(res.GradientCost, sGrad.ExpectedCost(infos, core.DefaultCost))
		res.FixedTime = append(res.FixedTime, fpTime)
		res.GradientTime = append(res.GradientTime, gradTime)
	}
	return res, nil
}

// BoundAblationResult compares the two correlation bounds' plan costs.
type BoundAblationResult struct {
	Datasets    []string
	Independent []float64
	Unknown     []float64
}

func (b *BoundAblationResult) String() string {
	rows := make([][]string, len(b.Datasets))
	for i := range b.Datasets {
		rows[i] = []string{b.Datasets[i], f0(b.Independent[i]), f0(b.Unknown[i])}
	}
	return textTable([]string{"dataset", "independent cost", "unknown-corr cost"}, rows)
}

func runBoundAblation(r *Runner) (fmt.Stringer, error) {
	cons := r.cons()
	res := &BoundAblationResult{}
	for _, name := range DatasetNames() {
		d, err := r.Dataset(name)
		if err != nil {
			return nil, err
		}
		rng := r.rng(hash("boundabl" + name))
		groups, err := d.PredictorGroups()
		if err != nil {
			return nil, err
		}
		meter := core.NewMeter(d.UDF())
		sampler := core.NewSampler(groups, meter, rng.Split())
		sizes := make([]int, len(groups))
		for i, g := range groups {
			sizes[i] = len(g.Rows)
		}
		if _, err := sampler.TopUpCtx(context.Background(), (core.TwoThirdPowerAllocator{Num: 2.5 * cons.Alpha}).Allocate(sizes)); err != nil {
			return nil, err
		}
		infos := sampler.Infos()
		sInd, err := core.PlanEstimated(infos, cons, core.DefaultCost, core.IndependentGroups)
		if err != nil {
			return nil, err
		}
		sUnk, err := core.PlanEstimated(infos, cons, core.DefaultCost, core.UnknownCorrelations)
		if err != nil {
			return nil, err
		}
		res.Datasets = append(res.Datasets, name)
		res.Independent = append(res.Independent, sInd.ExpectedCost(infos, core.DefaultCost))
		res.Unknown = append(res.Unknown, sUnk.ExpectedCost(infos, core.DefaultCost))
	}
	return res, nil
}

// MarginAblationResult shows what the Hoeffding/Chebyshev margins buy:
// plan cost and empirical satisfaction with margins on (the real planner)
// vs off (ρ→0, expectation-level planning like the Naive baseline).
type MarginAblationResult struct {
	Datasets     []string
	WithCost     []float64
	WithoutCost  []float64
	WithBothOK   []float64 // fraction of runs satisfying both constraints
	WithoutBothO []float64
}

func (m *MarginAblationResult) String() string {
	rows := make([][]string, len(m.Datasets))
	for i := range m.Datasets {
		rows[i] = []string{
			m.Datasets[i], f0(m.WithCost[i]), f0(m.WithoutCost[i]),
			f2(m.WithBothOK[i]), f2(m.WithoutBothO[i]),
		}
	}
	return textTable([]string{"dataset", "cost w/ margins", "cost w/o", "satisfied w/", "satisfied w/o"}, rows)
}

func runMarginAblation(r *Runner) (fmt.Stringer, error) {
	iters := r.iters(30)
	res := &MarginAblationResult{}
	for _, name := range DatasetNames() {
		d, err := r.Dataset(name)
		if err != nil {
			return nil, err
		}
		rng := r.rng(hash("marginabl" + name))
		with := core.Constraints{Alpha: r.cfg.Alpha, Beta: r.cfg.Beta, Rho: r.cfg.Rho}
		without := core.Constraints{Alpha: r.cfg.Alpha, Beta: r.cfg.Beta, Rho: 0.01}
		var aggWith, aggWithout average
		var bothWith, bothWithout int
		for i := 0; i < iters; i++ {
			o, err := runIntel(d, with, nil, rng.Split())
			if err != nil {
				return nil, err
			}
			aggWith.add(o)
			if o.SatisfiedP && o.SatisfiedR {
				bothWith++
			}
			o, err = runIntel(d, without, nil, rng.Split())
			if err != nil {
				return nil, err
			}
			aggWithout.add(o)
			if o.SatisfiedP && o.SatisfiedR {
				bothWithout++
			}
		}
		res.Datasets = append(res.Datasets, name)
		res.WithCost = append(res.WithCost, aggWith.cost.Mean())
		res.WithoutCost = append(res.WithoutCost, aggWithout.cost.Mean())
		res.WithBothOK = append(res.WithBothOK, float64(bothWith)/float64(iters))
		res.WithoutBothO = append(res.WithoutBothO, float64(bothWithout)/float64(iters))
	}
	return res, nil
}

func init() {
	register(Experiment{ID: "columns", Title: "Column robustness on LC (§6.2.1)", Run: runColumns})
	register(Experiment{ID: "adaptive", Title: "Adaptive sampling parameter search (§4.3)", Run: runAdaptive})
	register(Experiment{ID: "ablation-solver", Title: "Fixed-point vs projected-gradient planner", Run: runSolverAblation})
	register(Experiment{ID: "ablation-bound", Title: "Independent vs unknown-correlation bound", Run: runBoundAblation})
	register(Experiment{ID: "ablation-margin", Title: "Concentration margins on vs off", Run: runMarginAblation})
}
