package engine

import (
	"sync/atomic"
	"testing"

	"repro/internal/table"
)

// TestUDFPanicNotCached guards against cache poisoning: a recovered panic
// yields a synthetic "false" verdict that must never be served to a later
// query from the cross-query cache.
func TestUDFPanicNotCached(t *testing.T) {
	e, truth, _ := newTestEngine(t, 300)
	var failedOnce atomic.Bool
	if err := e.RegisterUDF(UDF{Name: "flaky", Body: func(v table.Value) bool {
		if v.(int64) == 7 && failedOnce.CompareAndSwap(false, true) {
			panic("transient")
		}
		return truth[v.(int64)]
	}}); err != nil {
		t.Fatal(err)
	}
	q := Query{Table: "loans", UDFName: "flaky", UDFArg: "id", Want: true}
	if _, err := execute(e, q); err == nil {
		t.Fatal("first query with panicking UDF did not error")
	}
	// The retry must re-evaluate row 7 (not inherit the recovered false)
	// and return the full correct result.
	res, err := execute(e, q)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range res.Rows {
		if r == 7 {
			found = true
		}
		if !truth[int64(r)] {
			t.Fatalf("incorrect row %d in retried result", r)
		}
	}
	if truth[7] != found {
		t.Fatalf("row 7 presence %v, want %v (poisoned cache?)", found, truth[7])
	}
	want := 0
	for _, v := range truth {
		if v {
			want++
		}
	}
	if len(res.Rows) != want {
		t.Fatalf("retried result has %d rows, want %d", len(res.Rows), want)
	}
}

// TestReRegisterUDFInvalidatesCache: replacing a UDF body must drop the
// old body's cached outcomes.
func TestReRegisterUDFInvalidatesCache(t *testing.T) {
	e, truth, calls := newTestEngine(t, 300)
	q := Query{Table: "loans", UDFName: "good_credit", UDFArg: "id", Want: true}
	if _, err := execute(e, q); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 300 {
		t.Fatalf("first query made %d calls, want 300", calls.Load())
	}
	// Replace the body with its negation.
	if err := e.RegisterUDF(UDF{Name: "good_credit", Body: func(v table.Value) bool {
		calls.Add(1)
		return !truth[v.(int64)]
	}}); err != nil {
		t.Fatal(err)
	}
	res, err := execute(e, q)
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 600 {
		t.Fatalf("re-registered body called %d times total, want 600 (stale cache?)", calls.Load())
	}
	for _, r := range res.Rows {
		if truth[int64(r)] {
			t.Fatalf("row %d matches old body's verdict", r)
		}
	}
	if res.Stats.Evaluations != 300 {
		t.Fatalf("second query charged %d evaluations, want 300", res.Stats.Evaluations)
	}
}

// TestComplementaryWantSharesCache: the cache stores raw body outcomes, so
// a want=0 query rides the evaluations a want=1 query already paid for.
func TestComplementaryWantSharesCache(t *testing.T) {
	e, truth, calls := newTestEngine(t, 300)
	q := Query{Table: "loans", UDFName: "good_credit", UDFArg: "id", Want: true}
	pos, err := execute(e, q)
	if err != nil {
		t.Fatal(err)
	}
	q.Want = false
	neg, err := execute(e, q)
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 300 || neg.Stats.Evaluations != 0 {
		t.Fatalf("want=0 after want=1: %d total calls, %d evaluations, want 300 and 0",
			calls.Load(), neg.Stats.Evaluations)
	}
	if len(pos.Rows)+len(neg.Rows) != 300 {
		t.Fatalf("complementary results cover %d rows, want 300", len(pos.Rows)+len(neg.Rows))
	}
	for _, r := range neg.Rows {
		if truth[int64(r)] {
			t.Fatalf("want=0 result contains matching row %d", r)
		}
	}
}

// TestSameUDFConjunctionDeterministicStats: a conjunction whose predicates
// share a cache key must still report identical Stats at any parallelism
// (the second meter goes private instead of racing the shared cache).
func TestSameUDFConjunctionDeterministicStats(t *testing.T) {
	run := func(parallelism int) Stats {
		tbl, truth := buildLoanTable(t, 1500, 42)
		e := New(7)
		e.Parallelism = parallelism
		if err := e.RegisterTable(tbl); err != nil {
			t.Fatal(err)
		}
		if err := e.RegisterUDF(UDF{Name: "f", Body: func(v table.Value) bool { return truth[v.(int64)] }}); err != nil {
			t.Fatal(err)
		}
		res, err := execute(e, Query{
			Table: "loans", UDFName: "f", UDFArg: "id", Want: true,
			Conjuncts: []Conjunct{{UDFName: "f", UDFArg: "id", Want: true}},
			Approx:    approx(0.75, 0.75, 0.8), GroupOn: "grade",
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats
	}
	seq := run(1)
	for _, p := range []int{2, 8} {
		if par := run(p); par != seq {
			t.Fatalf("parallelism %d stats %+v, want %+v", p, par, seq)
		}
	}
}

// TestCachedSecondQueryFree: the happy-path cache contract at engine level.
func TestCachedSecondQueryFree(t *testing.T) {
	e, _, calls := newTestEngine(t, 300)
	q := Query{Table: "loans", UDFName: "good_credit", UDFArg: "id", Want: true}
	first, err := execute(e, q)
	if err != nil {
		t.Fatal(err)
	}
	second, err := execute(e, q)
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 300 || second.Stats.Evaluations != 0 {
		t.Fatalf("second query: %d total calls, %d evaluations, want 300 and 0", calls.Load(), second.Stats.Evaluations)
	}
	if len(first.Rows) != len(second.Rows) {
		t.Fatalf("cached result size %d, want %d", len(second.Rows), len(first.Rows))
	}
}
