package core

import (
	"context"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

func estimatedGroups() []GroupInfo {
	// Posterior-style estimates with moderate uncertainty.
	return []GroupInfo{
		GroupInfoFromSample(1000, 60, 54),
		GroupInfoFromSample(1000, 60, 30),
		GroupInfoFromSample(1000, 60, 6),
	}
}

func TestPlanEstimatedFeasibleBothModels(t *testing.T) {
	cons := Constraints{Alpha: 0.8, Beta: 0.8, Rho: 0.8}
	for _, model := range []CorrelationModel{IndependentGroups, UnknownCorrelations} {
		s, err := PlanEstimated(estimatedGroups(), cons, DefaultCost, model)
		if err != nil {
			t.Fatalf("%v: %v", model, err)
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("%v: %v", model, err)
		}
		if !CheckEstimatedFeasible(estimatedGroups(), s, cons, model) {
			t.Fatalf("%v: plan infeasible for its own constraints", model)
		}
	}
}

func TestUnknownCorrelationsNoCheaperThanIndependent(t *testing.T) {
	cons := Constraints{Alpha: 0.8, Beta: 0.8, Rho: 0.8}
	sInd, err := PlanEstimated(estimatedGroups(), cons, DefaultCost, IndependentGroups)
	if err != nil {
		t.Fatal(err)
	}
	sUnk, err := PlanEstimated(estimatedGroups(), cons, DefaultCost, UnknownCorrelations)
	if err != nil {
		t.Fatal(err)
	}
	cInd := sInd.ExpectedCost(estimatedGroups(), DefaultCost)
	cUnk := sUnk.ExpectedCost(estimatedGroups(), DefaultCost)
	if cUnk < cInd-1e-6 {
		t.Fatalf("unknown-correlations (%v) cheaper than independent (%v)", cUnk, cInd)
	}
}

func TestEstimatedCostAboveHoeffdingPlan(t *testing.T) {
	// Uncertainty can only make the plan more expensive than planning with
	// the same point estimates and no estimate variance... compare against
	// a variance-free estimated plan rather than the Hoeffding planner
	// (different tail bounds make direct comparison invalid).
	cons := Constraints{Alpha: 0.8, Beta: 0.8, Rho: 0.8}
	noisy := estimatedGroups()
	exact := make([]GroupInfo, len(noisy))
	for i, g := range noisy {
		exact[i] = GroupInfo{Size: g.Size, Selectivity: g.Selectivity}
	}
	sNoisy, err := PlanEstimated(noisy, cons, DefaultCost, IndependentGroups)
	if err != nil {
		t.Fatal(err)
	}
	sExact, err := PlanEstimated(exact, cons, DefaultCost, IndependentGroups)
	if err != nil {
		t.Fatal(err)
	}
	// Cost comparison must be on the same remaining sizes; use the exact
	// view (no sampling discounts) for both.
	cNoisy := 0.0
	for i := range noisy {
		cNoisy += float64(noisy[i].Size) * (DefaultCost.Retrieve*sNoisy.R[i] + DefaultCost.Evaluate*sNoisy.E[i])
	}
	cExact := 0.0
	for i := range exact {
		cExact += float64(exact[i].Size) * (DefaultCost.Retrieve*sExact.R[i] + DefaultCost.Evaluate*sExact.E[i])
	}
	if cNoisy < cExact-1e-6 {
		t.Fatalf("noisy estimates produced cheaper plan (%v) than exact (%v)", cNoisy, cExact)
	}
}

func TestPlanEstimatedFeasibilityProperty(t *testing.T) {
	r := stats.NewRNG(301)
	f := func(seed uint32) bool {
		rr := stats.NewRNG(uint64(seed) ^ r.Uint64())
		n := 2 + rr.IntN(7)
		groups := make([]GroupInfo, n)
		for i := range groups {
			size := 200 + rr.IntN(2000)
			sampled := 10 + rr.IntN(size/4)
			pos := rr.IntN(sampled + 1)
			groups[i] = GroupInfoFromSample(size, sampled, pos)
		}
		cons := Constraints{
			Alpha: 0.3 + 0.6*rr.Float64(),
			Beta:  0.3 + 0.6*rr.Float64(),
			Rho:   0.5 + 0.4*rr.Float64(),
		}
		model := IndependentGroups
		if rr.IntN(2) == 1 {
			model = UnknownCorrelations
		}
		s, err := PlanEstimated(groups, cons, DefaultCost, model)
		if err != nil {
			return false
		}
		if err := s.Validate(); err != nil {
			return false
		}
		return CheckEstimatedFeasible(groups, s, cons, model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPlanEstimatedGradientAgreesWithFixedPoint(t *testing.T) {
	cons := Constraints{Alpha: 0.8, Beta: 0.8, Rho: 0.8}
	groups := estimatedGroups()
	sFP, err := PlanEstimated(groups, cons, DefaultCost, IndependentGroups)
	if err != nil {
		t.Fatal(err)
	}
	sGrad, err := PlanEstimatedGradient(groups, cons, DefaultCost, IndependentGroups)
	if err != nil {
		t.Fatal(err)
	}
	if err := sGrad.Validate(); err != nil {
		t.Fatal(err)
	}
	if !CheckEstimatedFeasible(groups, sGrad, cons, IndependentGroups) {
		t.Fatal("gradient plan infeasible")
	}
	cFP := sFP.ExpectedCost(groups, DefaultCost)
	cGrad := sGrad.ExpectedCost(groups, DefaultCost)
	// The gradient solve starts from the fixed-point solution and only
	// keeps improvements, so it can never be worse.
	if cGrad > cFP+1e-6 {
		t.Fatalf("gradient plan cost %v exceeds fixed-point %v", cGrad, cFP)
	}
	// And the two should be in the same ballpark (same convex program).
	if cFP > 0 && cGrad < 0.5*cFP {
		t.Fatalf("suspiciously large improvement: %v vs %v", cGrad, cFP)
	}
}

func TestPlanWithSamplesAccountsForSampledPositives(t *testing.T) {
	cons := Constraints{Alpha: 0.8, Beta: 0.8, Rho: 0.8}
	// Heavily sampled group: most of its correct tuples are already in the
	// output, reducing how much the plan must retrieve.
	light := []GroupInfo{
		GroupInfoFromSample(1000, 20, 18),
		GroupInfoFromSample(1000, 20, 2),
	}
	heavy := []GroupInfo{
		GroupInfoFromSample(1000, 500, 450),
		GroupInfoFromSample(1000, 20, 2),
	}
	sLight, err := PlanWithSamples(light, cons, DefaultCost)
	if err != nil {
		t.Fatal(err)
	}
	sHeavy, err := PlanWithSamples(heavy, cons, DefaultCost)
	if err != nil {
		t.Fatal(err)
	}
	// Execution-phase cost should be smaller with heavy sampling (the
	// sunk sampling cost is accounted elsewhere).
	cLight := sLight.ExpectedCost(light, DefaultCost)
	cHeavy := sHeavy.ExpectedCost(heavy, DefaultCost)
	if cHeavy > cLight+1e-6 {
		t.Fatalf("heavy sampling should shrink remaining cost: %v vs %v", cHeavy, cLight)
	}
}

func TestEstimatedEmpiricalSatisfaction(t *testing.T) {
	// Full pipeline statistical check: estimate via sampling, plan, execute;
	// constraints must hold in ≥ ~ρ of runs.
	rng := stats.NewRNG(777)
	cons := Constraints{Alpha: 0.8, Beta: 0.8, Rho: 0.8}
	const runs = 120
	okBoth := 0
	for i := 0; i < runs; i++ {
		groups, labels, truth := syntheticGroups(rng.Split(), []int{800, 800, 800}, []float64{0.85, 0.5, 0.15})
		meter := NewMeter(UDFFunc(truth))
		sampler := NewSampler(groups, meter, rng.Split())
		sizes := []int{800, 800, 800}
		if _, err := sampler.TopUpCtx(context.Background(), TwoThirdPowerAllocator{Num: 2.0}.Allocate(sizes)); err != nil {
			t.Fatal(err)
		}
		strat, err := PlanWithSamples(sampler.Infos(), cons, DefaultCost)
		if err != nil {
			t.Fatal(err)
		}
		exec, err := ExecuteParallelCtx(context.Background(), groups, strat, sampler.Outcomes(), meter, DefaultCost, rng.Split(), 1)
		if err != nil {
			t.Fatal(err)
		}
		totalCorrect := 0
		for _, v := range labels {
			if v {
				totalCorrect++
			}
		}
		m := ComputeMetrics(exec.Output, truth, totalCorrect)
		pOK, rOK := m.Satisfies(cons)
		if pOK && rOK {
			okBoth++
		}
	}
	if frac := float64(okBoth) / runs; frac < cons.Rho-0.07 {
		t.Fatalf("both constraints satisfied in only %v of runs (ρ=%v)", frac, cons.Rho)
	}
}

func TestCorrelationModelString(t *testing.T) {
	if IndependentGroups.String() != "independent-groups" {
		t.Fatal("independent string")
	}
	if UnknownCorrelations.String() != "unknown-correlations" {
		t.Fatal("unknown string")
	}
}

func TestPlanEstimatedHugeVarianceFallsBackSafely(t *testing.T) {
	// Absurd variances: the planner may fall back to full evaluation but
	// must stay feasible.
	groups := []GroupInfo{
		{Size: 50, Selectivity: 0.5, Variance: 0.25},
		{Size: 50, Selectivity: 0.5, Variance: 0.25},
	}
	cons := Constraints{Alpha: 0.95, Beta: 0.95, Rho: 0.99}
	s, err := PlanEstimated(groups, cons, DefaultCost, IndependentGroups)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if !CheckEstimatedFeasible(groups, s, cons, IndependentGroups) {
		t.Fatal("fallback plan must be feasible")
	}
}

func TestDeviationBoundsOrdering(t *testing.T) {
	// For any strategy, the unknown-correlations deviation dominates the
	// independent-groups deviation (Σ Dev ≥ sqrt(Σ Var) term-by-term via
	// the triangle inequality).
	cons := Constraints{Alpha: 0.8, Beta: 0.8, Rho: 0.8}
	groups := estimatedGroups()
	pInd := newEstProblem(groups, cons, DefaultCost, IndependentGroups)
	pUnk := newEstProblem(groups, cons, DefaultCost, UnknownCorrelations)
	r := stats.NewRNG(11)
	for trial := 0; trial < 50; trial++ {
		s := NewStrategy(len(groups))
		for i := range s.R {
			s.R[i] = r.Float64()
			s.E[i] = s.R[i] * r.Float64()
		}
		if pUnk.devPrecision(s) < pInd.devPrecision(s)-1e-9 {
			t.Fatalf("precision deviation ordering violated at %v", s)
		}
		if pUnk.devRecall(s) < pInd.devRecall(s)-1e-9 {
			t.Fatalf("recall deviation ordering violated at %v", s)
		}
	}
}

func TestLHSMatchesManualComputation(t *testing.T) {
	groups := []GroupInfo{GroupInfoFromSample(100, 10, 8)}
	cons := Constraints{Alpha: 0.8, Beta: 0.8, Rho: 0.8}
	p := newEstProblem(groups, cons, DefaultCost, IndependentGroups)
	s := NewStrategy(1)
	s.R[0], s.E[0] = 0.6, 0.3
	prec, recall := p.lhs(s)
	w := 90.0
	sa := groups[0].Selectivity
	wantPrec := 8*(1-0.8) + w*(sa*(1-0.8)*0.6-(1-sa)*0.8*(0.6-0.3))
	wantRecallLHS := w * sa * 0.6
	wantRecallRHS := 0.8*(8+w*sa) - 8
	if math.Abs(prec-wantPrec) > 1e-9 {
		t.Fatalf("precision LHS %v want %v", prec, wantPrec)
	}
	if math.Abs(recall-(wantRecallLHS-wantRecallRHS)) > 1e-9 {
		t.Fatalf("recall LHS %v want %v", recall, wantRecallLHS-wantRecallRHS)
	}
}
