package engine

import (
	"hash/fnv"
	"testing"

	"repro/internal/table"
)

// rowsChecksum fingerprints an ordered row-id list for golden comparisons.
func rowsChecksum(rows []int) uint64 {
	h := fnv.New64a()
	for _, r := range rows {
		h.Write([]byte{byte(r), byte(r >> 8), byte(r >> 16), byte(r >> 24)})
	}
	return h.Sum64()
}

// TestTwoPredRegressionPinned pins the exact output of the legacy
// two-predicate dispatch (engine seed 7, loan fixture seed 42, captured at
// PR 3 / commit ab23ef1, before the planner refactor subsumed it into the
// N-ary conjunction path). The refactor's contract is bit-for-bit
// compatibility: rows, checksum and every Stats field must match at every
// parallelism level, including the follow-up query that proves the engine's
// RNG stream was consumed identically.
func TestTwoPredRegressionPinned(t *testing.T) {
	type golden struct {
		rows  int
		hash  uint64
		stats Stats
	}
	approxGold := golden{1004, 0x27f4d4d0d6d35d6a, Stats{
		Evaluations: 2972, Retrievals: 2130, Cost: 11046,
		ChosenColumn: "grade", Sampled: 390, CacheMisses: 2972,
	}}
	followGold := golden{1596, 0xb914cc97771b5ede, Stats{
		Evaluations: 236, Retrievals: 1885, Cost: 2593,
		ChosenColumn: "grade", Sampled: 417, CacheHits: 374, CacheMisses: 236,
	}}
	exactGold := golden{1016, 0x8806df37156d2052, Stats{
		Evaluations: 4515, Retrievals: 3000, Cost: 16545,
		Exact: true, CacheMisses: 4515,
	}}
	check := func(t *testing.T, name string, res *Result, want golden) {
		t.Helper()
		if len(res.Rows) != want.rows || rowsChecksum(res.Rows) != want.hash {
			t.Errorf("%s: got %d rows (hash %#x), want %d (hash %#x)",
				name, len(res.Rows), rowsChecksum(res.Rows), want.rows, want.hash)
		}
		if res.Stats != want.stats {
			t.Errorf("%s: stats %+v, want %+v", name, res.Stats, want.stats)
		}
	}
	for _, par := range []int{1, 4} {
		e, _, _ := newTestEngine(t, 3000)
		e.Parallelism = par
		if err := e.RegisterUDF(UDF{Name: "rich", Body: func(v table.Value) bool {
			return v.(float64) > 80000
		}}); err != nil {
			t.Fatal(err)
		}
		q := Query{
			Table: "loans", UDFName: "good_credit", UDFArg: "id", Want: true,
			Conjuncts: []Conjunct{{UDFName: "rich", UDFArg: "income", Want: true}},
			Approx:    approx(0.75, 0.75, 0.8), GroupOn: "grade",
		}
		res, err := execute(e, q)
		if err != nil {
			t.Fatal(err)
		}
		check(t, "approx two-pred", res, approxGold)

		// A follow-up single-predicate query on the same engine pins the
		// engine RNG stream: if the conjunction path consumed one extra (or
		// one fewer) split, this diverges.
		res2, err := execute(e, Query{
			Table: "loans", UDFName: "good_credit", UDFArg: "id", Want: true,
			Approx: approx(0.8, 0.8, 0.8), GroupOn: "grade",
		})
		if err != nil {
			t.Fatal(err)
		}
		check(t, "follow-up single-pred", res2, followGold)

		// Exact conjunction on a fresh engine (the warm cache above would
		// change the accounting).
		e2, _, _ := newTestEngine(t, 3000)
		e2.Parallelism = par
		if err := e2.RegisterUDF(UDF{Name: "rich", Body: func(v table.Value) bool {
			return v.(float64) > 80000
		}}); err != nil {
			t.Fatal(err)
		}
		qe := q
		qe.Approx = nil
		qe.GroupOn = ""
		resE, err := execute(e2, qe)
		if err != nil {
			t.Fatal(err)
		}
		check(t, "exact two-pred", resE, exactGold)
	}
}
