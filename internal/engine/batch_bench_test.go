package engine

import (
	"context"
	"testing"

	"repro/internal/table"
)

// benchFilterTable builds an n-row table with a 3-valued grade column, so
// a grade filter keeps one third of the rows.
func benchFilterTable(b *testing.B, n int) *table.Table {
	b.Helper()
	schema := table.MustSchema(
		table.ColumnDef{Name: "id", Type: table.Int},
		table.ColumnDef{Name: "grade", Type: table.String},
	)
	tbl := table.New("loans", schema)
	grades := []string{"A", "B", "C"}
	for i := 0; i < n; i++ {
		if err := tbl.AppendRow(int64(i), grades[i%3]); err != nil {
			b.Fatal(err)
		}
	}
	return tbl
}

// BenchmarkBatchScanFilter1M compares the two ways of applying cheap
// filters over a 1M-row table: materializing the full survivor list
// (filterRows, what the driver does ahead of blocking stages) versus
// streaming the fused batch scan. The interesting metric is B/op: the
// materialized path allocates proportionally to the TABLE (the survivor
// slice plus its growth reallocations), the fused path proportionally to
// the BATCH (one reused buffer), a ≥5x difference at this shape.
func BenchmarkBatchScanFilter1M(b *testing.B) {
	const n = 1 << 20
	tbl := benchFilterTable(b, n)
	e := New(1)
	if err := e.RegisterTable(tbl); err != nil {
		b.Fatal(err)
	}
	filters := []Filter{{Column: "grade", Value: "B"}}
	want := 0
	for i := 0; i < n; i++ {
		if i%3 == 1 {
			want++
		}
	}

	b.Run("materialized", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rows, err := filterRows(tbl, filters)
			if err != nil {
				b.Fatal(err)
			}
			if len(rows) != want {
				b.Fatalf("%d survivors, want %d", len(rows), want)
			}
		}
	})

	b.Run("fused-batch", func(b *testing.B) {
		b.ReportAllocs()
		ctx := context.Background()
		for i := 0; i < b.N; i++ {
			preds, err := compileFilters(tbl, filters)
			if err != nil {
				b.Fatal(err)
			}
			sc := newScan(tbl, nil, preds, e.batchSize())
			got := 0
			for {
				batch, err := sc.Next(ctx)
				if err != nil {
					b.Fatal(err)
				}
				if batch == nil {
					break
				}
				got += len(batch.Rows)
			}
			if got != want {
				b.Fatalf("%d survivors, want %d", got, want)
			}
		}
	})
}
