package main

import (
	"fmt"
	"time"

	predeval "repro"
	"repro/internal/sqlparse"
)

// parsePlanOnce times reps calls of sqlparse.Parse and of Engine.Plan
// (PlanSelectJoin for a join) on one SQL string and returns the medians in
// µs. Planning is static: it never invokes a UDF.
func parsePlanOnce(db *predeval.DB, sql string, reps int) (parseUS, planUS float64, err error) {
	var pt, lt []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		stmt, err := sqlparse.Parse(sql)
		t1 := time.Now()
		if err != nil {
			return 0, 0, err
		}
		if stmt.Join != nil {
			sj, err := stmt.SelectJoin()
			if err != nil {
				return 0, 0, err
			}
			t1 = time.Now()
			_, err = db.Engine().PlanSelectJoin(sj)
		} else {
			_, err = db.Engine().Plan(stmt.Query)
		}
		t2 := time.Now()
		if err != nil {
			return 0, 0, fmt.Errorf("plan: %w", err)
		}
		pt = append(pt, float64(t1.Sub(t0))/1e3)
		lt = append(lt, float64(t2.Sub(t1))/1e3)
	}
	return median(pt), median(lt), nil
}
