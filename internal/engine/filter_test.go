package engine

import (
	"context"
	"math"
	"reflect"
	"testing"

	"repro/internal/table"
)

func filterTestTable(t *testing.T) *table.Table {
	t.Helper()
	tbl := table.New("t", table.MustSchema(
		table.ColumnDef{Name: "n", Type: table.Int},
		table.ColumnDef{Name: "x", Type: table.Float},
		table.ColumnDef{Name: "s", Type: table.String},
	))
	rows := []struct {
		n int64
		x float64
		s string
	}{
		{42, 1.5, "a"},
		{7, 42, "b"},
		{42, 100, "a"},
		{-3, 0.1, "c"},
		{0, math.Copysign(0, -1), "z0"}, // row 4: negative zero
		{1, 0, "p0"},                    // row 5: positive zero
	}
	for _, r := range rows {
		if err := tbl.AppendRow(r.n, r.x, r.s); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

// filterRows materializes the rows passing filters the way the pipeline
// driver does ahead of blocking stages — compile, then drain the fused
// scan — returning nil when there are no filters, meaning "all rows".
func filterRows(tbl *table.Table, filters []Filter) ([]int, error) {
	if len(filters) == 0 {
		return nil, nil
	}
	preds, err := compileFilters(tbl, filters)
	if err != nil {
		return nil, err
	}
	return newScan(tbl, nil, preds, DefaultBatchSize).drain(context.Background())
}

func TestTypedFilterSemantics(t *testing.T) {
	tbl := filterTestTable(t)
	cases := []struct {
		filters []Filter
		want    []int
	}{
		// Typed int comparison.
		{[]Filter{{Column: "n", Value: "42"}}, []int{0, 2}},
		{[]Filter{{Column: "n", Value: "-3"}}, []int{3}},
		// Non-canonical renderings never match (same as the old
		// render-and-compare semantics).
		{[]Filter{{Column: "n", Value: "042"}}, []int{}},
		{[]Filter{{Column: "n", Value: "+42"}}, []int{}},
		{[]Filter{{Column: "n", Value: "4.2"}}, []int{}},
		{[]Filter{{Column: "n", Value: "zap"}}, []int{}},
		// Typed float comparison; FloatColumn renders 42 as "42".
		{[]Filter{{Column: "x", Value: "1.5"}}, []int{0}},
		{[]Filter{{Column: "x", Value: "42"}}, []int{1}},
		{[]Filter{{Column: "x", Value: "1e2"}}, []int{}},
		{[]Filter{{Column: "x", Value: "0.1"}}, []int{3}},
		// Signed zeros render differently ("0" vs "-0") and must not
		// conflate under the typed comparison.
		{[]Filter{{Column: "x", Value: "0"}}, []int{5}},
		{[]Filter{{Column: "x", Value: "-0"}}, []int{4}},
		// Dictionary-code string comparison.
		{[]Filter{{Column: "s", Value: "a"}}, []int{0, 2}},
		{[]Filter{{Column: "s", Value: "z"}}, []int{}},
		// Conjunction of filters.
		{[]Filter{{Column: "n", Value: "42"}, {Column: "s", Value: "a"}, {Column: "x", Value: "100"}}, []int{2}},
	}
	for _, c := range cases {
		got, err := filterRows(tbl, c.filters)
		if err != nil {
			t.Fatalf("%v: %v", c.filters, err)
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Fatalf("filters %v matched %v, want %v", c.filters, got, c.want)
		}
	}
	// No filters means "all rows" signaled as nil.
	got, err := filterRows(tbl, nil)
	if err != nil || got != nil {
		t.Fatalf("no filters: %v, %v", got, err)
	}
	// Unknown column errors.
	if _, err := filterRows(tbl, []Filter{{Column: "nope", Value: "1"}}); err == nil {
		t.Fatal("unknown filter column accepted")
	}
}
