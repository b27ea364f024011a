package main

import (
	"fmt"
	"time"

	"repro/internal/dataset"
)

// Workload definitions. README.md records why each exists and which
// layer metric it is meant to move.

// paperScale shrinks the four paper datasets for paper-approx so a run
// holds enough queries for stable percentiles at 1 ms per UDF call.
const paperScale = 0.05

// paperApprox is the paper's own traffic: approximate queries over the four
// calibrated stand-ins, a UDF that waits 1 ms per call (the simulated remote
// call) at engine parallelism 8, no outcome cache and no catalog.
func paperApprox(seed uint64) (*libWorkload, error) {
	w := &libWorkload{parallelism: 8, delay: time.Millisecond}
	for _, spec := range dataset.All() {
		t, err := generateTable(spec, paperScale, seed, tableOptions{extraUDFs: spec.Name == "lc"})
		if err != nil {
			return nil, err
		}
		w.tables = append(w.tables, t)
	}
	lc := w.tables[0]
	orders, err := generateJoinTable("orders", lc.rows, seed)
	if err != nil {
		return nil, err
	}
	w.joins = []*joinTable{orders}
	const bounds = "WITH PRECISION 0.8 RECALL 0.8 PROBABILITY 0.9"
	w.shapes = []*shape{
		{name: "pinned", weight: 3, sql: "SELECT id FROM lc WHERE lc_ok(id) = 1 " + bounds + " GROUP ON grade"},
		{name: "pinned-stream", weight: 2, stream: true,
			sql: "SELECT id, grade FROM prosper WHERE prosper_ok(id) = 1 " + bounds + " GROUP ON grade"},
		{name: "auto-column", weight: 1, sql: "SELECT id FROM census WHERE census_ok(id) = 1 " + bounds},
		{name: "virtual-column", weight: 1,
			sql: "SELECT id FROM marketing WHERE marketing_ok(id) = 1 " + bounds + " GROUP ON virtual"},
		{name: "budget", weight: 1, sql: fmt.Sprintf(
			"SELECT id FROM lc WHERE lc_ok(id) = 1 %s GROUP ON grade BUDGET %d", bounds, lc.rows*2)},
		{name: "two-predicate", weight: 3,
			sql: "SELECT id FROM lc WHERE lc_ok(id) = 1 AND lc_recent(id) = 1 " + bounds + " GROUP ON grade"},
		{name: "select-join", weight: 1,
			sql: "SELECT id FROM lc JOIN orders ON lc.id = orders.loan_id WHERE lc_ok(id) = 1 " + bounds + " GROUP ON grade"},
	}
	return w, w.bind()
}

// engineLocal is the same engine with the UDF cost removed: full-scale lc,
// an instant lookup UDF, default parallelism, no cache.
func engineLocal(seed uint64) (*libWorkload, error) {
	w := &libWorkload{}
	lc, err := generateTable(dataset.LendingClub, 1, seed, tableOptions{extraUDFs: true})
	if err != nil {
		return nil, err
	}
	w.tables = []*genTable{lc}
	const bounds = "WITH PRECISION 0.8 RECALL 0.8 PROBABILITY 0.9"
	w.shapes = []*shape{
		{name: "exact-id", weight: 6, sql: "SELECT id FROM lc WHERE lc_ok(id) = 1"},
		{name: "exact-filter", weight: 2, sql: "SELECT id FROM lc WHERE grade = 'B' AND lc_ok(id) = 1"},
		{name: "select-star", weight: 2, sql: "SELECT * FROM lc WHERE lc_ok(id) = 1"},
		{name: "conj3-exact", weight: 2, sql: "SELECT id FROM lc WHERE lc_ok(id) = 1 AND lc_recent(id) = 1 AND lc_big(id) = 1"},
		{name: "stream-limit", weight: 2, stream: true, limit: 500, sql: "SELECT id, grade FROM lc WHERE lc_ok(id) = 1"},
		{name: "approx-pinned", weight: 2, sql: "SELECT id FROM lc WHERE lc_ok(id) = 1 " + bounds + " GROUP ON grade"},
		{name: "approx-auto", weight: 2, sql: "SELECT id FROM lc WHERE lc_ok(id) = 1 " + bounds},
	}
	return w, w.bind()
}

func (w *libWorkload) bind() error {
	tables := map[string]*genTable{}
	for _, t := range w.tables {
		tables[t.name] = t
	}
	joins := map[string]*joinTable{}
	for _, j := range w.joins {
		joins[j.name] = j
	}
	for _, s := range w.shapes {
		if err := s.bind(tables, joins); err != nil {
			return err
		}
	}
	return nil
}
