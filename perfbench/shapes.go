package main

import (
	"fmt"
	"slices"

	"repro/internal/sqlparse"
)

// shape is one query template of a workload, with the ground truth the
// benchmark derives for it from the generated inputs.
type shape struct {
	name   string
	sql    string
	weight int  // occurrences per schedule cycle
	stream bool // run through QueryStream / NDJSON instead of Query / JSON
	limit  int  // stream limit (0 = none)

	// Derived by bind from the parsed SQL and the generated tables.
	table       string
	approx      bool
	alpha, beta float64
	checkRecall bool // false for BUDGET, which guarantees precision only
	cols        int  // projected column count
	scope       []int
	positive    func(row int) bool
	weightOf    func(row int) float64 // join multiplicity; nil = 1
	truthIDs    []int                 // sorted in-scope positive ids
	exactCost   float64               // o_e × rows in scope, per predicate
}

// udfCost is the per-invocation cost o_e every benchmark UDF registers
// with (the engine default).
const udfCost = 3.0

// bind parses the shape's SQL with the program's own parser and derives
// the scope and ground truth the answer is checked against: the rows that
// pass the equality filters, and among them those whose every UDF verdict
// matches the wanted value.
func (s *shape) bind(tables map[string]*genTable, joins map[string]*joinTable) error {
	stmt, err := sqlparse.Parse(s.sql)
	if err != nil {
		return fmt.Errorf("shape %s: %w", s.name, err)
	}
	q := stmt.Query
	s.table = q.Table
	t, ok := tables[q.Table]
	if !ok {
		return fmt.Errorf("shape %s: no generated table %q", s.name, q.Table)
	}
	type pred struct {
		truth []bool
		want  bool
	}
	preds := []pred{{t.truth[q.UDFName], q.Want}}
	for _, c := range q.Conjuncts {
		preds = append(preds, pred{t.truth[c.UDFName], c.Want})
	}
	for i, p := range preds {
		if p.truth == nil || (i == 0 && q.UDFArg != "id") {
			return fmt.Errorf("shape %s: predicate %d has no ground truth keyed by id", s.name, i)
		}
	}
	s.scope = s.scope[:0]
	for r := 0; r < t.rows; r++ {
		in := true
		for _, f := range q.Filters {
			vals, ok := t.values[f.Column]
			if !ok {
				return fmt.Errorf("shape %s: filter column %q not tracked", s.name, f.Column)
			}
			if vals[r] != f.Value {
				in = false
				break
			}
		}
		if in {
			s.scope = append(s.scope, r)
		}
	}
	s.positive = func(r int) bool {
		for _, p := range preds {
			if p.truth[r] != p.want {
				return false
			}
		}
		return true
	}
	s.truthIDs = s.truthIDs[:0]
	for _, r := range s.scope {
		if s.positive(r) {
			s.truthIDs = append(s.truthIDs, r)
		}
	}
	s.weightOf = nil
	if stmt.Join != nil {
		jt, ok := joins[stmt.Join.Table]
		if !ok {
			return fmt.Errorf("shape %s: no generated join table %q", s.name, stmt.Join.Table)
		}
		s.weightOf = func(r int) float64 { return jt.mult[r] }
	}
	s.approx = q.Approx != nil
	if s.approx {
		s.alpha, s.beta = q.Approx.Precision, q.Approx.Recall
		s.checkRecall = q.Budget == 0
	}
	s.cols = len(q.Columns)
	if s.cols == 0 {
		s.cols = len(t.header)
	}
	s.exactCost = udfCost * float64(len(s.scope)*len(preds))
	return nil
}

// schedule expands shape weights into one deterministic cycle by smooth
// weighted round-robin, so any prefix of the cycle holds every shape
// within one occurrence of its share.
func schedule(shapes []*shape) []*shape {
	total := 0
	for _, s := range shapes {
		total += s.weight
	}
	cur := make([]int, len(shapes))
	out := make([]*shape, 0, total)
	for len(out) < total {
		best := -1
		for i, s := range shapes {
			cur[i] += s.weight
			if best < 0 || cur[i] > cur[best] {
				best = i
			}
		}
		cur[best] -= total
		out = append(out, shapes[best])
	}
	return out
}

// checkRows verifies one answer: row ids strictly ascending (base-table
// order, no duplicates), inside the query's scope, one cell row of the
// projected width per id, and — for exact shapes — exactly the ground
// truth positive ids (the first limit of them for a limited stream).
func (s *shape) checkRows(ids []int, cells [][]string) error {
	if len(cells) != len(ids) {
		return fmt.Errorf("%s: %d cell rows for %d ids", s.name, len(cells), len(ids))
	}
	for i, id := range ids {
		if i > 0 && id <= ids[i-1] {
			return fmt.Errorf("%s: row ids not strictly ascending at %d", s.name, i)
		}
		if len(cells[i]) != s.cols {
			return fmt.Errorf("%s: row %d has %d cells, want %d", s.name, id, len(cells[i]), s.cols)
		}
		if _, in := slices.BinarySearch(s.scope, id); !in {
			return fmt.Errorf("%s: row %d is outside the query's scope", s.name, id)
		}
	}
	if s.approx {
		return nil
	}
	want := s.truthIDs
	if s.limit > 0 && len(want) > s.limit {
		want = want[:s.limit]
	}
	if !slices.Equal(ids, want) {
		return fmt.Errorf("%s: exact answer has %d rows, ground truth %d (or ids differ)", s.name, len(ids), len(want))
	}
	return nil
}
