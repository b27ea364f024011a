// Benchmarks regenerating every table and figure of the paper's
// evaluation (one benchmark per artifact; see DESIGN.md's experiment
// index), plus micro-benchmarks for the optimizer's hot paths. The
// experiment benchmarks run the same harness as cmd/exppred at a reduced
// dataset scale so `go test -bench=.` finishes quickly; run
// `go run ./cmd/exppred -exp all` for paper-scale numbers.
package predeval_test

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	predeval "repro"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/sqlparse"
	"repro/internal/stats"
)

// benchScale keeps experiment benchmarks fast while preserving the
// datasets' distributional statistics.
const benchScale = 0.04

func benchRunner(b *testing.B, iters int) *experiments.Runner {
	b.Helper()
	return experiments.New(experiments.Config{Seed: 1, Scale: benchScale, Iterations: iters})
}

func runExperiment(b *testing.B, id string, iters int) {
	b.Helper()
	r := benchRunner(b, iters)
	// Generate datasets outside the timed region.
	for _, name := range experiments.DatasetNames() {
		if _, err := r.Dataset(name); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Run(id); err != nil {
			b.Fatal(err)
		}
	}
}

// ------------------------------------------------------- tables & figures

func BenchmarkTable1Example(b *testing.B)          { runExperiment(b, "table1", 1) }
func BenchmarkTable2Savings(b *testing.B)          { runExperiment(b, "table2", 2) }
func BenchmarkTable3GroupStats(b *testing.B)       { runExperiment(b, "table3", 1) }
func BenchmarkFig1aCostComparison(b *testing.B)    { runExperiment(b, "fig1a", 2) }
func BenchmarkFig1bMLComparison(b *testing.B)      { runExperiment(b, "fig1b", 1) }
func BenchmarkFig1cLogRegSweep(b *testing.B)       { runExperiment(b, "fig1c", 1) }
func BenchmarkFig2aPrecisionAccuracy(b *testing.B) { runExperiment(b, "fig2a", 2) }
func BenchmarkFig2bRecallAccuracy(b *testing.B)    { runExperiment(b, "fig2b", 2) }
func BenchmarkFig2cAlphaSweep(b *testing.B)        { runExperiment(b, "fig2c", 2) }
func BenchmarkFig3aConstantSampling(b *testing.B)  { runExperiment(b, "fig3a", 2) }
func BenchmarkFig3bTwoThirdPower(b *testing.B)     { runExperiment(b, "fig3b", 2) }
func BenchmarkFig3cBetaSweep(b *testing.B)         { runExperiment(b, "fig3c", 2) }
func BenchmarkColumnRobustness(b *testing.B)       { runExperiment(b, "columns", 1) }
func BenchmarkAdaptiveSampling(b *testing.B)       { runExperiment(b, "adaptive", 1) }
func BenchmarkSolverAblation(b *testing.B)         { runExperiment(b, "ablation-solver", 1) }
func BenchmarkCorrelationBound(b *testing.B)       { runExperiment(b, "ablation-bound", 1) }
func BenchmarkMarginAblation(b *testing.B)         { runExperiment(b, "ablation-margin", 2) }

// ------------------------------------------------- end-to-end pipeline

// BenchmarkIntelSamplePipeline measures one full Intel-Sample run
// (sample → estimate → plan → execute) on the LC stand-in, reporting the
// UDF calls it needed.
func BenchmarkIntelSamplePipeline(b *testing.B) {
	d, err := dataset.Generate(dataset.LendingClub.Scaled(0.1), 1)
	if err != nil {
		b.Fatal(err)
	}
	cons := core.Constraints{Alpha: 0.8, Beta: 0.8, Rho: 0.8}
	rng := stats.NewRNG(2)
	b.ResetTimer()
	totalEvals := 0.0
	for i := 0; i < b.N; i++ {
		in, err := d.Instance(cons, core.DefaultCost)
		if err != nil {
			b.Fatal(err)
		}
		res, err := core.RunIntelSample(context.Background(), in, core.RunOptions{RNG: rng.Split()})
		if err != nil {
			b.Fatal(err)
		}
		totalEvals += float64(res.TotalEvaluations)
	}
	b.ReportMetric(totalEvals/float64(b.N), "udfcalls/op")
}

// --------------------------------------------------------- micro benches

// BenchmarkBiGreedyPlanner measures the O(|A| log |A|) LP solver on a
// 64-group instance.
func BenchmarkBiGreedyPlanner(b *testing.B) {
	rng := stats.NewRNG(3)
	groups := make([]core.GroupInfo, 64)
	for i := range groups {
		groups[i] = core.GroupInfo{Size: 500 + rng.IntN(2000), Selectivity: rng.Float64()}
	}
	cons := core.Constraints{Alpha: 0.8, Beta: 0.8, Rho: 0.8}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.PlanPerfectSelectivities(groups, cons, core.DefaultCost); err != nil {
			b.Fatal(err)
		}
	}
}

func estimatedBenchGroups(n int) []core.GroupInfo {
	rng := stats.NewRNG(5)
	groups := make([]core.GroupInfo, n)
	for i := range groups {
		size := 500 + rng.IntN(2000)
		sampled := 20 + rng.IntN(60)
		pos := rng.IntN(sampled + 1)
		groups[i] = core.GroupInfoFromSample(size, sampled, pos)
	}
	return groups
}

// BenchmarkConvexPlannerFixedPoint measures the relinearizing fixed-point
// solver for the estimated-selectivity convex program (64 groups).
func BenchmarkConvexPlannerFixedPoint(b *testing.B) {
	groups := estimatedBenchGroups(64)
	cons := core.Constraints{Alpha: 0.8, Beta: 0.8, Rho: 0.8}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.PlanWithSamples(groups, cons, core.DefaultCost); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConvexPlannerGradient measures the projected-gradient solver on
// the same program (16 groups; it is the slow path).
func BenchmarkConvexPlannerGradient(b *testing.B) {
	groups := estimatedBenchGroups(16)
	cons := core.Constraints{Alpha: 0.8, Beta: 0.8, Rho: 0.8}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.PlanEstimatedGradient(groups, cons, core.DefaultCost, core.IndependentGroups); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExecutor measures probabilistic execution over 50k tuples.
func BenchmarkExecutor(b *testing.B) {
	rng := stats.NewRNG(7)
	const n = 50000
	rows := make([]int, n)
	labels := make([]bool, n)
	for i := range rows {
		rows[i] = i
		labels[i] = rng.Bernoulli(0.5)
	}
	groups := []core.Group{{Key: "all", Rows: rows}}
	s := core.NewStrategy(1)
	s.R[0], s.E[0] = 0.8, 0.3
	udf := core.UDFFunc(func(r int) bool { return labels[r] })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.ExecuteParallelCtx(context.Background(), groups, s, nil, udf, core.DefaultCost, rng.Split(), 1); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(n), "tuples/op")
}

// BenchmarkPerfectInfoBranchBound measures the exact NP-hard solver on a
// 20-group instance.
func BenchmarkPerfectInfoBranchBound(b *testing.B) {
	rng := stats.NewRNG(11)
	groups := make([]core.PerfectInfoGroup, 20)
	for i := range groups {
		groups[i] = core.PerfectInfoGroup{
			Key:     "g",
			Correct: rng.IntN(1000),
			Wrong:   rng.IntN(1000),
		}
	}
	cons := core.Constraints{Alpha: 0.8, Beta: 0.8, Rho: 0.8}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.SolvePerfectInformation(groups, cons, core.DefaultCost); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSQLParse measures the SQL front end.
func BenchmarkSQLParse(b *testing.B) {
	const q = `SELECT id, grade FROM loans JOIN orders ON loans.id = orders.loan_id
		WHERE good_credit(id) = 1 WITH PRECISION 0.9 RECALL 0.85 PROBABILITY 0.9
		GROUP ON grade BUDGET 5000`
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sqlparse.Parse(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDatasetGeneration measures calibrated synthesis of the LC
// stand-in at 10% scale.
func BenchmarkDatasetGeneration(b *testing.B) {
	spec := dataset.LendingClub.Scaled(0.1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dataset.Generate(spec, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEndToEndSQL measures a full approximate SQL query through the
// public facade.
func BenchmarkEndToEndSQL(b *testing.B) {
	d, err := dataset.Generate(dataset.Prosper.Scaled(0.1), 1)
	if err != nil {
		b.Fatal(err)
	}
	var sb strings.Builder
	sb.WriteString("id,grade\n")
	gradeCol, err := d.Table.StringColumn("grade")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < d.Table.NumRows(); i++ {
		sb.WriteString(d.Table.CellString(i, 0))
		sb.WriteByte(',')
		sb.WriteString(gradeCol.At(i))
		sb.WriteByte('\n')
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		db := predevalOpen(uint64(i))
		if err := db.LoadCSV("loans", strings.NewReader(sb.String())); err != nil {
			b.Fatal(err)
		}
		truth := d.Truth()
		if err := db.RegisterUDF("f", func(v any) bool { return truth(int(v.(int64))) }, 3); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		rows, err := db.Query(`SELECT id FROM loans WHERE f(id) = 1
			WITH PRECISION 0.8 RECALL 0.8 PROBABILITY 0.8 GROUP ON grade`)
		if err != nil {
			b.Fatal(err)
		}
		if rows.Len() == 0 {
			b.Fatal("empty result")
		}
	}
}

// predevalOpen avoids importing the root package under two names in this
// external test package.
func predevalOpen(seed uint64) *predeval.DB { return predeval.Open(seed) }

// BenchmarkTwoPredicateExtension measures the §5 conjunction study.
func BenchmarkTwoPredicateExtension(b *testing.B) { runExperiment(b, "ext-twopred", 2) }

// ------------------------------------------------ parallel UDF evaluation

// slowUDFDelay simulates a genuinely expensive predicate (a remote scoring
// service, a human task queue): ~100µs per invocation, I/O-shaped so
// worker oversubscription pays off even on small machines.
const slowUDFDelay = 100 * time.Microsecond

// benchSlowDB builds a fresh DB over the loans fixture with a slow UDF at
// the requested parallelism. A fresh DB per call keeps the cross-query
// cache cold so every run pays full evaluation cost.
func benchSlowDB(b *testing.B, n int, parallelism int) *predeval.DB {
	b.Helper()
	csv, truth := loansCSV(n, 1)
	db := predeval.Open(42)
	if err := db.LoadCSV("loans", strings.NewReader(csv)); err != nil {
		b.Fatal(err)
	}
	if err := db.RegisterUDF("slow", func(v any) bool {
		time.Sleep(slowUDFDelay)
		return truth[v.(int64)]
	}, 3); err != nil {
		b.Fatal(err)
	}
	db.SetParallelism(parallelism)
	return db
}

// BenchmarkParallelExact measures an exact scan (one slow-UDF call per
// row) across parallelism levels; ns/op should drop near-linearly from
// parallelism 1 to 8.
func BenchmarkParallelExact(b *testing.B) {
	const n = 1200
	for _, p := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("parallelism=%d", p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				db := benchSlowDB(b, n, p)
				b.StartTimer()
				rows, err := db.Query(`SELECT id FROM loans WHERE slow(id) = 1`)
				if err != nil {
					b.Fatal(err)
				}
				if rows.Stats().Evaluations != n {
					b.Fatalf("evaluated %d, want %d", rows.Stats().Evaluations, n)
				}
			}
			b.ReportMetric(float64(n), "udfcalls/op")
		})
	}
}

// BenchmarkParallelApprox measures the full approximate pipeline (label →
// sample → plan → execute) with the slow UDF across parallelism levels.
// Planning is sequential, so speedup tracks the evaluated fraction.
func BenchmarkParallelApprox(b *testing.B) {
	const n = 3000
	for _, p := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("parallelism=%d", p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				db := benchSlowDB(b, n, p)
				b.StartTimer()
				rows, err := db.Query(`SELECT id FROM loans WHERE slow(id) = 1
					WITH PRECISION 0.8 RECALL 0.8 PROBABILITY 0.8 GROUP ON grade`)
				if err != nil {
					b.Fatal(err)
				}
				if rows.Len() == 0 {
					b.Fatal("empty result")
				}
			}
		})
	}
}

// ------------------------------------------------------------ streaming

// BenchmarkStreamFirstRow measures time-to-first-row under the batch
// streaming executor: the emit callback returns ErrStopStream on the
// first batch, so ns/op approximates the latency a predsqld
// "stream":true client waits before its first NDJSON line. With the
// slow UDF (~100µs/call) and batch size 64, the first batch costs ~64
// evaluations instead of the full scan BenchmarkParallelExact pays
// before returning anything. A fresh DB per iteration keeps the
// verdict cache cold.
func BenchmarkStreamFirstRow(b *testing.B) {
	const n = 2000
	const sql = `SELECT id FROM loans WHERE slow(id) = 1`
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		db := benchSlowDB(b, n, 4)
		db.SetBatchSize(64)
		b.StartTimer()
		got := 0
		res, err := db.QueryStream(context.Background(), sql, predeval.StreamOptions{},
			func(ids []int, _ [][]string) error {
				got += len(ids)
				return predeval.ErrStopStream
			})
		if err != nil {
			b.Fatal(err)
		}
		if got == 0 || res.RowCount != got {
			b.Fatalf("streamed %d rows, result says %d", got, res.RowCount)
		}
	}
}

// ------------------------------------------------------ durable catalog

// BenchmarkCatalogWarmRestart measures the durability subsystem's payoff:
// after a "restart" (fresh DB, same catalog directory) the repeated
// workload — one exact and one approximate query — runs against persisted
// verdicts and statistics. evaluations/op reports the UDF invocations the
// warm runs paid; with the catalog in place it is zero.
func BenchmarkCatalogWarmRestart(b *testing.B) {
	const n = 3000
	rng := stats.NewRNG(11)
	var sb strings.Builder
	sb.WriteString("id,grade\n")
	truth := make(map[int64]bool, n)
	grades := []string{"A", "B", "C"}
	sels := []float64{0.9, 0.5, 0.1}
	for i := 0; i < n; i++ {
		truth[int64(i)] = rng.Bernoulli(sels[i%3])
		fmt.Fprintf(&sb, "%d,%s\n", i, grades[i%3])
	}
	csv := sb.String()
	openDB := func(dir string) *predeval.DB {
		db := predeval.Open(1)
		if err := db.LoadCSV("loans", strings.NewReader(csv)); err != nil {
			b.Fatal(err)
		}
		if err := db.RegisterUDF("good_credit", func(v any) bool { return truth[v.(int64)] }, 0); err != nil {
			b.Fatal(err)
		}
		if err := db.OpenCatalog(dir); err != nil {
			b.Fatal(err)
		}
		return db
	}
	const (
		exactSQL  = "SELECT id FROM loans WHERE good_credit(id) = 1"
		approxSQL = "SELECT id FROM loans WHERE good_credit(id) = 1 WITH PRECISION 0.8 RECALL 0.8 PROBABILITY 0.8"
	)
	workload := func(db *predeval.DB) int {
		evals := 0
		for _, sql := range []string{exactSQL, approxSQL} {
			rows, err := db.Query(sql)
			if err != nil {
				b.Fatal(err)
			}
			evals += rows.Stats().Evaluations
		}
		return evals
	}

	dir := b.TempDir()
	cold := openDB(dir) // pay the workload once, durably
	workload(cold)
	if err := cold.CloseCatalog(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	warmEvals := 0
	for i := 0; i < b.N; i++ {
		db := openDB(dir)
		warmEvals += workload(db)
		if err := db.CloseCatalog(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(warmEvals)/float64(b.N), "evaluations/op")
}

// --------------------------------------------------------- observability

// benchFastDB is benchSlowDB with an instant UDF: the query spends its
// time in the engine itself, so per-operator instrumentation overhead is
// maximally visible instead of drowned in UDF latency.
func benchFastDB(b *testing.B, n int) *predeval.DB {
	b.Helper()
	csv, truth := loansCSV(n, 1)
	db := predeval.Open(42)
	db.SetUDFCache(false)
	if err := db.LoadCSV("loans", strings.NewReader(csv)); err != nil {
		b.Fatal(err)
	}
	if err := db.RegisterUDF("fast", func(v any) bool { return truth[v.(int64)] }, 3); err != nil {
		b.Fatal(err)
	}
	return db
}

// BenchmarkObsOverhead measures what observability costs on the hot path.
// baseline: plain execution — spans are nil-trace no-ops and no actuals
// are snapshotted. analyze: the same query under EXPLAIN ANALYZE
// (per-operator count snapshots + wall times). trace: plain execution
// with a live span recorder attached. baseline must stay within a few
// percent of the pre-instrumentation engine; the bench gate diffs it
// across revisions.
func BenchmarkObsOverhead(b *testing.B) {
	const n = 2000
	const sql = `SELECT id FROM loans WHERE fast(id) = 1`
	cases := []struct {
		name  string
		opts  predeval.QueryOptions
		trace bool
	}{
		{name: "baseline"},
		{name: "analyze", opts: predeval.QueryOptions{Analyze: true}},
		{name: "trace", trace: true},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			db := benchFastDB(b, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ctx := context.Background()
				if c.trace {
					ctx = obs.WithTrace(ctx, obs.NewTrace())
				}
				rows, err := db.QueryContextOptions(ctx, sql, c.opts)
				if err != nil {
					b.Fatal(err)
				}
				if rows.Stats().Evaluations != n {
					b.Fatalf("evaluated %d, want %d", rows.Stats().Evaluations, n)
				}
			}
		})
	}
}
