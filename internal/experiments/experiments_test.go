package experiments

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

func tinyRunner() *Runner {
	return New(Config{Seed: 7, Scale: 0.02, Iterations: 2})
}

func TestAllExperimentsRun(t *testing.T) {
	r := tinyRunner()
	for _, id := range IDs() {
		res, err := r.Run(id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if strings.TrimSpace(res.String()) == "" {
			t.Fatalf("%s: empty rendering", id)
		}
	}
}

func TestLookupUnknown(t *testing.T) {
	if _, err := Lookup("nope"); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	if len(IDs()) < 14 {
		t.Fatalf("registry has only %d experiments: %v", len(IDs()), IDs())
	}
}

func TestTable1ActionsMatchPaper(t *testing.T) {
	r := tinyRunner()
	res, err := r.Run("table1")
	if err != nil {
		t.Fatal(err)
	}
	t1 := res.(*Table1Result)
	// Group 1 (all correct) must not be discarded; group 3 (1/5 correct)
	// must not be blindly retrieved.
	if t1.Actions[0].String() == "discard" {
		t.Fatalf("group 1 discarded: %v", t1.Actions)
	}
	if t1.Actions[2].String() == "retrieve" {
		t.Fatalf("group 3 blindly retrieved: %v", t1.Actions)
	}
	if t1.Cost <= 0 {
		t.Fatalf("cost %v", t1.Cost)
	}
}

func TestTable2ShapeMatchesPaper(t *testing.T) {
	// Concentration margins cost Θ(√n) tuples regardless of n, so the
	// relative savings only emerge at sufficient scale; 10% of the paper's
	// sizes is enough for every dataset to show a positive margin.
	r := New(Config{Seed: 11, Scale: 0.1, Iterations: 3})
	res, err := r.Run("table2")
	if err != nil {
		t.Fatal(err)
	}
	t2 := res.(*Table2Result)
	if len(t2.Rows) != 4 {
		t.Fatalf("rows %d", len(t2.Rows))
	}
	byName := map[string]Table2Row{}
	for _, row := range t2.Rows {
		byName[row.Dataset] = row
		// Intel-Sample must always save versus Naive.
		if row.SavingsVsNaive <= 0 {
			t.Fatalf("%s: no savings vs naive (%+v)", row.Dataset, row)
		}
	}
	// The paper's key shape: savings vs naive are largest on LC (high
	// selectivity) and smallest on Marketing (low selectivity).
	if byName["lc"].SavingsVsNaive <= byName["marketing"].SavingsVsNaive {
		t.Fatalf("savings ordering inverted: lc %v vs marketing %v",
			byName["lc"].SavingsVsNaive, byName["marketing"].SavingsVsNaive)
	}
}

func TestTable3MatchesSpecs(t *testing.T) {
	r := New(Config{Seed: 3, Scale: 1}) // full scale: stats must match the paper
	res, err := r.Run("table3")
	if err != nil {
		t.Fatal(err)
	}
	t3 := res.(*Table3Result)
	want := map[string]Table3Row{
		"lc":        {NumGroups: 7, SizeDev: 5233, SelDev: 0.13, Correlation: 0.84},
		"prosper":   {NumGroups: 8, SizeDev: 1521, SelDev: 0.20, Correlation: 0.20},
		"census":    {NumGroups: 7, SizeDev: 8183, SelDev: 0.15, Correlation: 0.36},
		"marketing": {NumGroups: 10, SizeDev: 5070, SelDev: 0.20, Correlation: -0.65},
	}
	for _, row := range t3.Rows {
		w := want[row.Dataset]
		if row.NumGroups != w.NumGroups {
			t.Fatalf("%s groups %d want %d", row.Dataset, row.NumGroups, w.NumGroups)
		}
		if rel := row.SizeDev/w.SizeDev - 1; rel < -0.05 || rel > 0.05 {
			t.Fatalf("%s size dev %v want %v", row.Dataset, row.SizeDev, w.SizeDev)
		}
		if d := row.SelDev - w.SelDev; d < -0.03 || d > 0.03 {
			t.Fatalf("%s sel dev %v want %v", row.Dataset, row.SelDev, w.SelDev)
		}
		if d := row.Correlation - w.Correlation; d < -0.08 || d > 0.08 {
			t.Fatalf("%s corr %v want %v", row.Dataset, row.Correlation, w.Correlation)
		}
	}
}

func TestFig1aOrdering(t *testing.T) {
	r := New(Config{Seed: 13, Scale: 0.1, Iterations: 5})
	res, err := r.Run("fig1a")
	if err != nil {
		t.Fatal(err)
	}
	f := res.(*CostComparisonResult)
	for i, name := range f.Datasets {
		naive, intel, optimal := f.Evals[i][0], f.Evals[i][1], f.Evals[i][2]
		if intel >= naive {
			t.Fatalf("%s: intel %v not below naive %v", name, intel, naive)
		}
		// Optimal has free perfect knowledge; allow small statistical slop.
		if optimal > intel*1.15+50 {
			t.Fatalf("%s: optimal %v above intel %v", name, optimal, intel)
		}
	}
}

func TestFig2AccuracyAboveDiagonal(t *testing.T) {
	r := New(Config{Seed: 17, Scale: 0.05, Iterations: 12})
	for _, id := range []string{"fig2a", "fig2b"} {
		res, err := r.Run(id)
		if err != nil {
			t.Fatal(err)
		}
		acc := res.(*AccuracyResult)
		// Allow sampling slack with only 12 runs per cell.
		if m := acc.MinRate(); m < -0.25 {
			t.Fatalf("%s: satisfaction rate dips %v below rho", id, m)
		}
	}
}

func TestColumnsBestIsTruePredictor(t *testing.T) {
	r := New(Config{Seed: 19, Scale: 0.04, Iterations: 2})
	res, err := r.Run("columns")
	if err != nil {
		t.Fatal(err)
	}
	c := res.(*ColumnRobustnessResult)
	best, worst := c.BestWorst()
	if best >= worst {
		t.Fatalf("no spread across columns: %v vs %v", best, worst)
	}
	// The true predictor or its near-noiseless copy should be among the
	// cheapest three columns.
	top := c.Columns
	if len(top) > 3 {
		top = top[:3]
	}
	found := false
	for _, name := range top {
		if name == "grade" || name == "pred_00" || name == "coarse_grade" {
			found = true
		}
	}
	if !found {
		t.Fatalf("true predictor not among cheapest columns: %v", top)
	}
	// Even the worst column must beat naive (§6.2.1's observation).
	if worst >= c.Naive {
		t.Fatalf("worst column %v not below naive %v", worst, c.Naive)
	}
}

func TestBoundAblationOrdering(t *testing.T) {
	r := New(Config{Seed: 23, Scale: 0.04})
	res, err := r.Run("ablation-bound")
	if err != nil {
		t.Fatal(err)
	}
	b := res.(*BoundAblationResult)
	for i := range b.Datasets {
		if b.Unknown[i] < b.Independent[i]-1e-6 {
			t.Fatalf("%s: unknown-corr plan cheaper than independent", b.Datasets[i])
		}
	}
}

func TestRunnerDatasetCache(t *testing.T) {
	r := tinyRunner()
	a, err := r.Dataset("lc")
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Dataset("lc")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("dataset not cached")
	}
	if _, err := r.Dataset("nope"); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

func TestTwoPredExtensionShape(t *testing.T) {
	r := New(Config{Seed: 29, Scale: 0.05, Iterations: 5})
	res, err := r.Run("ext-twopred")
	if err != nil {
		t.Fatal(err)
	}
	tp := res.(*TwoPredResult)
	if tp.PlannerCost >= tp.ShortCircuitCost {
		t.Fatalf("planner cost %v not below short-circuit %v", tp.PlannerCost, tp.ShortCircuitCost)
	}
	if tp.ShortCircuitCost >= tp.EvalBothCost {
		t.Fatalf("short-circuit %v not below eval-both %v", tp.ShortCircuitCost, tp.EvalBothCost)
	}
	if tp.SatisfiedRate < 0.6 {
		t.Fatalf("satisfaction rate %v", tp.SatisfiedRate)
	}
}

func TestMarginAblationShape(t *testing.T) {
	r := New(Config{Seed: 31, Scale: 0.05, Iterations: 10})
	res, err := r.Run("ablation-margin")
	if err != nil {
		t.Fatal(err)
	}
	m := res.(*MarginAblationResult)
	for i := range m.Datasets {
		// Margins must never make plans cheaper.
		if m.WithCost[i] < m.WithoutCost[i]-1e-6 {
			t.Fatalf("%s: margined plan cheaper than unmargined", m.Datasets[i])
		}
	}
}

func TestFig1cDeterministic(t *testing.T) {
	// The virtual column trains a model on the labeled rows; two runs of
	// one config must build the same model, buckets and table.
	run := func() fmt.Stringer {
		res, err := tinyRunner().Run("fig1c")
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	first, second := run(), run()
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("fig1c differs between two runs of one config:\n%s\nvs\n%s", first, second)
	}
}
