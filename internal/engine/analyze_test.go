package engine

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/resilience"
	"repro/internal/table"
)

// analyzeEngine builds an engine whose UDF fails transiently-but-
// persistently on a block of ids (so invocations retry AND ultimately
// fail), with a tight breaker so the failure run trips it. Parallelism is
// the variable under test: every EXPLAIN ANALYZE count must be identical
// at any setting.
func analyzeEngine(t testing.TB, parallelism int) *Engine {
	t.Helper()
	tbl, truth := buildLoanTable(t, 300, 42)
	e := New(7)
	e.Parallelism = parallelism
	e.Retry = resilience.Policy{Sleep: func(context.Context, time.Duration) error { return nil }}
	e.Breaker = resilience.BreakerConfig{Window: 8, MinCalls: 4, FailureRate: 0.5, Cooldown: 200, Probes: 2, Segment: 8}
	if err := e.RegisterTable(tbl); err != nil {
		t.Fatal(err)
	}
	err := e.RegisterUDF(UDF{
		Name: "good_credit",
		BodyErr: func(_ context.Context, v table.Value) (bool, error) {
			id := v.(int64)
			if id >= 50 && id < 150 {
				return false, resilience.New(resilience.Transient, "udf", errors.New("service flapping"))
			}
			return truth[id], nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// runAnalyzed executes the exact query under EXPLAIN ANALYZE and returns
// the annotated plan text with wall times stripped (ZeroTimings), plus
// the result.
func runAnalyzed(t testing.TB, e *Engine) (string, *Result) {
	t.Helper()
	res, root, err := collect(context.Background(), e, exactQuery(SkipFailed), nil, true)
	if err != nil {
		t.Fatal(err)
	}
	if res == nil || root == nil {
		t.Fatal("analyzed run returned nil result or plan")
	}
	plan.ZeroTimings(root)
	return plan.Format(root), res
}

func TestExplainAnalyzeCountsDeterministicAcrossParallelism(t *testing.T) {
	// Two runs against one engine: the first trips the breaker (and
	// retries its transient failures); the second sees breaker denials.
	// Both annotated plans — count fields only — must be bit-identical at
	// parallelism 1 and 8.
	render := func(parallelism int) (string, string) {
		e := analyzeEngine(t, parallelism)
		cold, _ := runAnalyzed(t, e)
		warm, _ := runAnalyzed(t, e)
		return cold, warm
	}
	cold1, warm1 := render(1)
	cold8, warm8 := render(8)
	if cold1 != cold8 {
		t.Fatalf("cold EXPLAIN ANALYZE counts differ across parallelism:\n--- p=1 ---\n%s\n--- p=8 ---\n%s", cold1, cold8)
	}
	if warm1 != warm8 {
		t.Fatalf("warm EXPLAIN ANALYZE counts differ across parallelism:\n--- p=1 ---\n%s\n--- p=8 ---\n%s", warm1, warm8)
	}
	evalLine := func(text string) string {
		for _, line := range strings.Split(text, "\n") {
			if strings.Contains(line, "exact-eval") {
				return line
			}
		}
		return ""
	}
	// Cold run: charged calls, retries and failures, no denials possible
	// (a never-tripped breaker runs the batch as one ungated wave).
	for _, want := range []string{"actual ", "rows=", "calls=", "retries=", "failed="} {
		if !strings.Contains(evalLine(cold1), want) {
			t.Errorf("cold exact-eval line missing %q: %s", want, evalLine(cold1))
		}
	}
	// Warm run: the tripped breaker denies the still-failing block.
	if !strings.Contains(evalLine(warm1), "denied=") {
		t.Errorf("warm exact-eval line missing denials: %s", evalLine(warm1))
	}
	if strings.Contains(cold1, "time=") || strings.Contains(warm1, "time=") {
		t.Error("ZeroTimings left wall-clock fields in the rendered plan")
	}
}

func TestExplainAnalyzeActualNodes(t *testing.T) {
	e := analyzeEngine(t, 4)
	res, root, err := collect(context.Background(), e, exactQuery(SkipFailed), nil, true)
	if err != nil {
		t.Fatal(err)
	}
	scan := root.Find(plan.OpScan)
	if scan == nil || scan.Actual == nil || scan.Actual.Rows != 300 {
		t.Fatalf("scan node actual = %+v, want rows=300", scan)
	}
	eval := root.Find(plan.OpExactEval)
	if eval == nil || eval.Actual == nil {
		t.Fatal("exact-eval node missing actuals")
	}
	a := eval.Actual
	if a.Rows != len(res.Rows) {
		t.Errorf("eval rows = %d, want %d", a.Rows, len(res.Rows))
	}
	if a.Calls != res.Stats.Evaluations {
		t.Errorf("eval calls = %d, want %d", a.Calls, res.Stats.Evaluations)
	}
	if a.Retries != res.Stats.Retries {
		t.Errorf("eval retries = %d, want %d", a.Retries, res.Stats.Retries)
	}
	if a.Failed != res.Stats.FailedRows {
		t.Errorf("eval failed = %d, want %d", a.Failed, res.Stats.FailedRows)
	}
	if a.Retries == 0 {
		t.Error("eval retries = 0, want transient failures retried")
	}
	if a.ElapsedNS <= 0 {
		t.Error("eval elapsed not measured")
	}

	// Second query against the tripped breaker: denials recorded, and only
	// for rows that could not resolve from the warm cache.
	res2, root2, err := collect(context.Background(), e, exactQuery(SkipFailed), nil, true)
	if err != nil {
		t.Fatal(err)
	}
	a2 := root2.Find(plan.OpExactEval).Actual
	if a2.Denied == 0 {
		t.Error("second-run denied = 0, want breaker denials recorded")
	}
	if a2.Denied > a2.Failed {
		t.Errorf("denied %d > failed %d: denials are a subset of failures", a2.Denied, a2.Failed)
	}
	if a2.Failed != res2.Stats.FailedRows {
		t.Errorf("second-run failed = %d, want %d", a2.Failed, res2.Stats.FailedRows)
	}
}

func TestExplainAnalyzeApproxPipeline(t *testing.T) {
	tbl, truth := buildLoanTable(t, 600, 42)
	e := New(7)
	if err := e.RegisterTable(tbl); err != nil {
		t.Fatal(err)
	}
	if err := e.RegisterUDF(UDF{Name: "good_credit", Body: func(v table.Value) bool { return truth[v.(int64)] }}); err != nil {
		t.Fatal(err)
	}
	q := Query{
		Table: "loans", UDFName: "good_credit", UDFArg: "id", Want: true,
		GroupOn: "grade",
		Approx:  &Approx{Precision: 0.9, Recall: 0.9, Probability: 0.9},
	}
	res, root, err := collect(context.Background(), e, q, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	gr := root.Find(plan.OpGroupResolve)
	if gr == nil || gr.Actual == nil || gr.Actual.Groups != 3 {
		t.Fatalf("group-resolve actual = %+v, want 3 groups", gr)
	}
	smp := root.Find(plan.OpSample)
	if smp == nil || smp.Actual == nil || smp.Actual.Rows != res.Stats.Sampled {
		t.Fatalf("sample actual = %+v, want rows=%d", smp, res.Stats.Sampled)
	}
	mrg := root.Find(plan.OpMerge)
	if mrg == nil || mrg.Actual == nil || mrg.Actual.Rows != len(res.Rows) {
		t.Fatalf("merge actual = %+v, want rows=%d", mrg, len(res.Rows))
	}
}

func TestTraceSpansCoverPipeline(t *testing.T) {
	e := analyzeEngine(t, 4)
	tr := obs.NewTrace()
	ctx := obs.WithTrace(context.Background(), tr)
	if _, _, err := collect(ctx, e, exactQuery(SkipFailed), nil, false); err != nil {
		t.Fatal(err)
	}
	names := make(map[string]bool)
	for _, s := range tr.Spans() {
		names[s.Name] = true
	}
	for _, want := range []string{"bind", "plan", "op:scan", "op:exact-eval"} {
		if !names[want] {
			t.Errorf("missing span %q in %v", want, names)
		}
	}
}
