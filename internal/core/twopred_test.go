package core

import (
	"context"
	"math"
	"testing"

	"repro/internal/stats"
)

// twoPredWorld builds groups with independent per-group selectivities for
// two predicates.
func twoPredWorld(rng *stats.RNG, sizes []int, sel1, sel2 []float64) ([]Group, []bool, []bool) {
	total := 0
	for _, s := range sizes {
		total += s
	}
	l1 := make([]bool, total)
	l2 := make([]bool, total)
	groups := make([]Group, len(sizes))
	row := 0
	for gi, size := range sizes {
		rows := make([]int, size)
		for k := 0; k < size; k++ {
			rows[k] = row
			l1[row] = rng.Bernoulli(sel1[gi])
			l2[row] = rng.Bernoulli(sel2[gi])
			row++
		}
		groups[gi] = Group{Key: string(rune('A' + gi)), Rows: rows}
	}
	return groups, l1, l2
}

func TestSampleTwoPredicates(t *testing.T) {
	rng := stats.NewRNG(1101)
	groups, l1, l2 := twoPredWorld(rng, []int{500, 500}, []float64{0.9, 0.2}, []float64{0.7, 0.7})
	u1 := UDFFunc(func(r int) bool { return l1[r] })
	u2 := UDFFunc(func(r int) bool { return l2[r] })
	samples, infos, err := SampleTwoPredicatesParallelCtx(context.Background(), groups, []int{100, 100}, u1, u2, rng.Split(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples[0].Results) != 100 {
		t.Fatalf("sampled %d", len(samples[0].Results))
	}
	if math.Abs(infos[0].Sel1-0.9) > 0.1 || math.Abs(infos[1].Sel1-0.2) > 0.12 {
		t.Fatalf("sel1 estimates %v / %v", infos[0].Sel1, infos[1].Sel1)
	}
	if math.Abs(infos[0].Sel2-0.7) > 0.12 {
		t.Fatalf("sel2 estimate %v", infos[0].Sel2)
	}
	// Counts are internally consistent.
	for _, s := range samples {
		if s.PosBoth > s.Pos1 || s.PosBoth > s.Pos2 {
			t.Fatalf("inconsistent counts %+v", s)
		}
	}
	if _, _, err := SampleTwoPredicatesParallelCtx(context.Background(), groups, []int{1}, u1, u2, rng, 1); err == nil {
		t.Fatal("mismatched targets accepted")
	}
}

func TestExecuteTwoPredicatesSemantics(t *testing.T) {
	rng := stats.NewRNG(1103)
	groups, l1, l2 := twoPredWorld(rng, []int{200}, []float64{0.5}, []float64{0.5})
	u1 := UDFFunc(func(r int) bool { return l1[r] })
	u2 := UDFFunc(func(r int) bool { return l2[r] })

	check := func(act TwoPredAction, wantMember func(r int) bool, wantE1, wantE2 int) {
		t.Helper()
		res, err := ExecuteTwoPredicatesParallelCtx(context.Background(), groups, []TwoPredAction{act}, nil, u1, u2, DefaultCost, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range res.Output {
			if !wantMember(r) {
				t.Fatalf("action %v: row %d should not be in output", act, r)
			}
		}
		want := 0
		for r := 0; r < 200; r++ {
			if wantMember(r) {
				want++
			}
		}
		if len(res.Output) != want {
			t.Fatalf("action %v: output %d want %d", act, len(res.Output), want)
		}
		if wantE1 >= 0 && res.Evaluated1 != wantE1 {
			t.Fatalf("action %v: evaluated1 %d want %d", act, res.Evaluated1, wantE1)
		}
		if wantE2 >= 0 && res.Evaluated2 != wantE2 {
			t.Fatalf("action %v: evaluated2 %d want %d", act, res.Evaluated2, wantE2)
		}
	}

	check(TPDiscard, func(r int) bool { return false }, 0, 0)
	check(TPAssumeBoth, func(r int) bool { return true }, 0, 0)
	check(TPEval1Assume2, func(r int) bool { return l1[r] }, 200, 0)
	check(TPAssume1Eval2, func(r int) bool { return l2[r] }, 0, 200)
	// EvalBoth short-circuits: f2 evaluated only on f1 survivors.
	pass1 := 0
	for r := 0; r < 200; r++ {
		if l1[r] {
			pass1++
		}
	}
	check(TPEvalBoth, func(r int) bool { return l1[r] && l2[r] }, 200, pass1)
}

func TestExecuteTwoPredicatesHonorsSamples(t *testing.T) {
	rng := stats.NewRNG(1105)
	groups, l1, l2 := twoPredWorld(rng, []int{100}, []float64{0.5}, []float64{0.5})
	calls1, calls2 := 0, 0
	u1 := UDFFunc(func(r int) bool { calls1++; return l1[r] })
	u2 := UDFFunc(func(r int) bool { calls2++; return l2[r] })
	samples := []TwoPredSample{{Results: map[int][2]bool{}}}
	for _, row := range groups[0].Rows[:30] {
		samples[0].Results[row] = [2]bool{l1[row], l2[row]}
	}
	res, err := ExecuteTwoPredicatesParallelCtx(context.Background(), groups, []TwoPredAction{TPEvalBoth}, samples, u1, u2, DefaultCost, 1)
	if err != nil {
		t.Fatal(err)
	}
	if calls1 != 70 {
		t.Fatalf("f1 called %d times, want 70", calls1)
	}
	if res.Retrieved != 70 {
		t.Fatalf("retrieved %d want 70", res.Retrieved)
	}
	// Sampled rows passing both must be in the output.
	outSet := map[int]bool{}
	for _, r := range res.Output {
		outSet[r] = true
	}
	for row, v := range samples[0].Results {
		if (v[0] && v[1]) != outSet[row] {
			t.Fatalf("sampled row %d membership wrong", row)
		}
	}
}

func TestExecuteTwoPredicatesValidation(t *testing.T) {
	rng := stats.NewRNG(1107)
	groups, l1, l2 := twoPredWorld(rng, []int{10}, []float64{0.5}, []float64{0.5})
	u1 := UDFFunc(func(r int) bool { return l1[r] })
	u2 := UDFFunc(func(r int) bool { return l2[r] })
	if _, err := ExecuteTwoPredicatesParallelCtx(context.Background(), groups, nil, nil, u1, u2, DefaultCost, 1); err == nil {
		t.Fatal("missing actions accepted")
	}
	if _, err := ExecuteTwoPredicatesParallelCtx(context.Background(), groups, []TwoPredAction{99}, nil, u1, u2, DefaultCost, 1); err == nil {
		t.Fatal("invalid action accepted")
	}
	if _, err := ExecuteTwoPredicatesParallelCtx(context.Background(), groups, []TwoPredAction{TPDiscard}, make([]TwoPredSample, 2), u1, u2, DefaultCost, 1); err == nil {
		t.Fatal("mismatched samples accepted")
	}
}

func TestRunTwoPredicatesEndToEnd(t *testing.T) {
	rng := stats.NewRNG(1109)
	groups, l1, l2 := twoPredWorld(rng,
		[]int{1500, 1500, 1500},
		[]float64{0.95, 0.5, 0.05},
		[]float64{0.9, 0.6, 0.5})
	u1 := UDFFunc(func(r int) bool { return l1[r] })
	u2 := UDFFunc(func(r int) bool { return l2[r] })
	cons := Constraints{Alpha: 0.8, Beta: 0.8, Rho: 0.8}
	res, acts, err := RunTwoPredicatesParallelCtx(context.Background(), groups, NewMeter(u1), NewMeter(u2), cons, DefaultCost, nil, rng.Split(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(acts) != 3 {
		t.Fatalf("actions %v", acts)
	}
	// Quality versus the conjunction ground truth.
	truth := func(r int) bool { return l1[r] && l2[r] }
	totalCorrect := 0
	for r := range l1 {
		if truth(r) {
			totalCorrect++
		}
	}
	m := ComputeMetrics(res.Output, truth, totalCorrect)
	if m.Precision < 0.7 || m.Recall < 0.7 {
		t.Fatalf("metrics collapsed: %+v", m)
	}
	// Must beat evaluating both predicates on every tuple.
	evalAllCost := float64(4500) * (DefaultCost.Retrieve + 2*DefaultCost.Evaluate)
	if res.Cost >= evalAllCost {
		t.Fatalf("cost %v not below eval-everything %v", res.Cost, evalAllCost)
	}
	// The near-zero sel1 group should mostly be discarded, not eval'd.
	if acts[2] == TPEvalBoth || acts[2] == TPAssume1Eval2 {
		t.Fatalf("wasteful action on dead group: %v", acts)
	}
	if _, _, err := RunTwoPredicatesParallelCtx(context.Background(), groups, NewMeter(u1), NewMeter(u2), cons, DefaultCost, nil, nil, 1); err == nil {
		t.Fatal("nil rng accepted")
	}
}

func TestRunTwoPredicatesSatisfactionRate(t *testing.T) {
	rng := stats.NewRNG(1111)
	cons := Constraints{Alpha: 0.75, Beta: 0.75, Rho: 0.8}
	const runs = 40
	ok := 0
	for i := 0; i < runs; i++ {
		groups, l1, l2 := twoPredWorld(rng.Split(),
			[]int{1000, 1000, 1000},
			[]float64{0.9, 0.5, 0.1},
			[]float64{0.85, 0.7, 0.6})
		u1 := UDFFunc(func(r int) bool { return l1[r] })
		u2 := UDFFunc(func(r int) bool { return l2[r] })
		res, _, err := RunTwoPredicatesParallelCtx(context.Background(), groups, NewMeter(u1), NewMeter(u2), cons, DefaultCost, nil, rng.Split(), 1)
		if err != nil {
			t.Fatal(err)
		}
		truth := func(r int) bool { return l1[r] && l2[r] }
		totalCorrect := 0
		for r := range l1 {
			if truth(r) {
				totalCorrect++
			}
		}
		m := ComputeMetrics(res.Output, truth, totalCorrect)
		pOK, rOK := m.Satisfies(cons)
		if pOK && rOK {
			ok++
		}
	}
	if frac := float64(ok) / runs; frac < 0.7 {
		t.Fatalf("constraints satisfied in only %v of runs", frac)
	}
}
