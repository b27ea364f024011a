package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	predeval "repro"
	"repro/internal/obs"
)

// udfProbe builds the benchmark's UDF bodies: a ground-truth lookup after
// an optional sleep (the simulated remote call). When instrumented, each
// call also counts itself, sums its busy time and records its interval, so
// the traced run can measure the UDF and worker-pool layers from inside
// the only code the benchmark owns on that path.
type udfProbe struct {
	delay      time.Duration
	instrument bool
	origin     time.Time

	calls, positives, busyNS atomic.Int64
	mu                       sync.Mutex
	ivs                      []interval
}

func (p *udfProbe) body(truth []bool) func(v any) bool {
	if !p.instrument {
		if p.delay == 0 {
			return func(v any) bool { return truth[v.(int64)] }
		}
		return func(v any) bool {
			time.Sleep(p.delay)
			return truth[v.(int64)]
		}
	}
	return func(v any) bool {
		start := time.Since(p.origin)
		if p.delay > 0 {
			time.Sleep(p.delay)
		}
		ok := truth[v.(int64)]
		end := time.Since(p.origin)
		p.calls.Add(1)
		if ok {
			p.positives.Add(1)
		}
		p.busyNS.Add(int64(end - start))
		p.mu.Lock()
		p.ivs = append(p.ivs, interval{int64(start), int64(end)})
		p.mu.Unlock()
		return ok
	}
}

// takeIntervals returns and clears the call intervals recorded so far.
func (p *udfProbe) takeIntervals() []interval {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := p.ivs
	p.ivs = nil
	return out
}

// libWorkload drives the engine in-process through predeval.DB.
type libWorkload struct {
	tables      []*genTable
	joins       []*joinTable
	parallelism int // 0 = engine default (GOMAXPROCS)
	delay       time.Duration
	shapes      []*shape
}

// open is the set-up the workload's setup_s times: a fresh DB, LoadCSV of
// every table and RegisterUDF of every predicate.
func (w *libWorkload) open(seed uint64, probe *udfProbe) (*predeval.DB, error) {
	db := predeval.Open(seed)
	db.SetUDFCache(false)
	if w.parallelism > 0 {
		db.SetParallelism(w.parallelism)
	}
	for _, t := range w.tables {
		if err := db.LoadCSV(t.name, bytes.NewReader(t.csv)); err != nil {
			return nil, fmt.Errorf("load %s: %w", t.name, err)
		}
	}
	for _, j := range w.joins {
		if err := db.LoadCSV(j.name, bytes.NewReader(j.csv)); err != nil {
			return nil, fmt.Errorf("load %s: %w", j.name, err)
		}
	}
	for _, t := range w.tables {
		for _, name := range sortedKeys(t.truth) {
			if err := db.RegisterUDF(name, probe.body(t.truth[name]), udfCost); err != nil {
				return nil, err
			}
		}
	}
	return db, nil
}

// Set-up is repeated within a run and setup_s reports the median: at least
// minSetups times, and on until setupBudget is spent (at most maxSetups).
const (
	minSetups   = 3
	maxSetups   = 40
	setupBudget = 2 * time.Second
)

// setup opens the DB repeatedly and keeps the last one.
func (w *libWorkload) setup(seed uint64, probe *udfProbe) (*predeval.DB, []float64, error) {
	var times []float64
	var db *predeval.DB
	spent := time.Duration(0)
	for len(times) < minSetups || (spent < setupBudget && len(times) < maxSetups) {
		db = nil
		runtime.GC() // earlier DBs are garbage; collect them outside the timing
		start := time.Now()
		var err error
		db, err = w.open(seed, probe)
		if err != nil {
			return nil, nil, err
		}
		d := time.Since(start)
		spent += d
		times = append(times, d.Seconds())
	}
	return db, times, nil
}

func (w *libWorkload) tableRows(s *shape) int {
	for _, t := range w.tables {
		if t.name == s.table {
			return t.rows
		}
	}
	return 0
}

// run executes one query of shape s. With tr non-nil the query runs under
// obs.WithTrace, nested in the benchmark's own bench:query span.
func (w *libWorkload) run(ctx context.Context, db *predeval.DB, s *shape, tr *obs.Trace) (*answer, error) {
	a := &answer{}
	var root *obs.Span
	if tr != nil {
		ctx = obs.WithTrace(ctx, tr)
		root = tr.Start("bench:query")
	}
	start := time.Now()
	if s.stream {
		res, err := db.QueryStream(ctx, s.sql, predeval.StreamOptions{Limit: s.limit},
			func(ids []int, cells [][]string) error {
				sp := tr.Start("bench:emit")
				if a.firstRow == 0 && len(ids) > 0 {
					a.firstRow = time.Since(start)
				}
				a.ids = append(a.ids, ids...)
				a.cells = append(a.cells, cells...)
				sp.End()
				return nil
			})
		if err != nil {
			return nil, err
		}
		a.stats = res.Stats
	} else {
		rows, err := db.QueryContext(ctx, s.sql)
		if err != nil {
			return nil, err
		}
		a.ids = rows.RowIDs()
		a.cells = make([][]string, rows.Len())
		for i := range a.cells {
			a.cells[i] = rows.Row(i)
		}
		a.stats = rows.Stats()
	}
	a.latency = time.Since(start)
	if tr != nil {
		root.End()
		a.spans = exportSpans(tr)
	}
	return a, nil
}

// exportSpans converts a finished trace to the metric math's span form.
func exportSpans(tr *obs.Trace) []span {
	js := tr.Spans()
	out := make([]span, len(js))
	for i, j := range js {
		out[i] = span{Name: j.Name, Start: j.StartUS, End: j.StartUS + j.DurUS}
	}
	return out
}

// libPass is one timed closed loop over the shape schedule.
type libPass struct {
	rec *recorder
	// Instrumented layer totals (traced runs only).
	udfCalls, udfPositives int64
	udfBusyNS              int64
	udfUnionNS             int64
	queryWallNS            int64
	mallocs                uint64
	// Exact shapes only: Σ op:exact-eval + op:conj-waves self time, and
	// the UDF busy time and calls inside those queries.
	invokeUS, invokeBusyNS, invokeCalls int64
}

func (w *libWorkload) loop(ctx context.Context, db *predeval.DB, probe *udfProbe, dur time.Duration, traced bool) (*libPass, error) {
	cycle := schedule(w.shapes)
	pass := &libPass{rec: newRecorder()}
	var ms0 runtime.MemStats
	calls0, pos0, busy0 := probe.calls.Load(), probe.positives.Load(), probe.busyNS.Load()
	if probe.instrument {
		probe.takeIntervals() // drop calls made outside this loop
		runtime.ReadMemStats(&ms0)
	}
	begin := time.Now()
	for i := 0; time.Since(begin) < dur; i++ {
		s := cycle[i%len(cycle)]
		var tr *obs.Trace
		if traced {
			tr = obs.NewTrace()
		}
		qCalls, qBusy := probe.calls.Load(), probe.busyNS.Load()
		a, err := w.run(ctx, db, s, tr)
		pass.rec.ops.record(err)
		if err != nil {
			continue
		}
		if probe.instrument {
			calls, busy := probe.calls.Load()-qCalls, probe.busyNS.Load()-qBusy
			pass.udfUnionNS += unionLength(probe.takeIntervals())
			pass.queryWallNS += int64(a.latency)
			if !s.approx && len(a.spans) > 0 {
				self := selfTimes(a.spans)
				pass.invokeUS += self["op:exact-eval"] + self["op:conj-waves"]
				pass.invokeBusyNS += busy
				pass.invokeCalls += calls
			}
		}
		if err := pass.rec.add(s, a, w.tableRows(s)); err != nil {
			return nil, err
		}
	}
	pass.rec.wall = time.Since(begin) - pass.rec.checkTime
	if probe.instrument {
		var ms1 runtime.MemStats
		runtime.ReadMemStats(&ms1)
		pass.mallocs = ms1.Mallocs - ms0.Mallocs
		pass.udfCalls = probe.calls.Load() - calls0
		pass.udfPositives = probe.positives.Load() - pos0
		pass.udfBusyNS = probe.busyNS.Load() - busy0
	}
	return pass, nil
}

// verifyStreams checks, for every streamed shape, that the concatenated
// QueryStream batches equal Query's rows and cells for the same seed and
// SQL: each side runs as the first query of its own freshly set-up DB, so
// both draw the same random coins.
func (w *libWorkload) verifyStreams(ctx context.Context, seed uint64, probe *udfProbe) error {
	for _, s := range w.shapes {
		if !s.stream {
			continue
		}
		dbQ, err := w.open(seed, probe)
		if err != nil {
			return err
		}
		dbS, err := w.open(seed, probe)
		if err != nil {
			return err
		}
		plain := *s
		plain.stream = false
		want, err := w.run(ctx, dbQ, &plain, nil)
		if err != nil {
			return err
		}
		got, err := w.run(ctx, dbS, s, nil)
		if err != nil {
			return err
		}
		n := len(want.ids)
		if s.limit > 0 && n > s.limit {
			n = s.limit
		}
		if !slices.Equal(got.ids, want.ids[:n]) || !slices.EqualFunc(got.cells, want.cells[:n], slices.Equal) {
			return fmt.Errorf("%w: %s: QueryStream batches differ from Query's rows", errWrongAnswer, s.name)
		}
	}
	return nil
}

// timeParsePlan times sqlparse.Parse and Engine.Plan on every workload SQL
// (median of repeated calls each), returning the means over the SQL in µs.
func timeParsePlan(db *predeval.DB, shapes []*shape) (parseUS, planUS float64, err error) {
	const reps = 200
	var ps, pl []float64
	for _, s := range shapes {
		p, l, err := parsePlanOnce(db, s.sql, reps)
		if err != nil {
			return 0, 0, fmt.Errorf("%s: %w", s.name, err)
		}
		ps = append(ps, p)
		pl = append(pl, l)
	}
	return mean(ps), mean(pl), nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
