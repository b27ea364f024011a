package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro"
	"repro/internal/stats"
)

// streamTestServer is testServer with a configurable batch size and a
// hook around the UDF body, for exercising the NDJSON streaming path.
func streamTestServer(t *testing.T, n, batchSize, parallelism int, wrap func(id int64, verdict bool) bool) (*server, *httptest.Server) {
	t.Helper()
	rng := stats.NewRNG(9)
	var sb strings.Builder
	sb.WriteString("id,grade\n")
	truth := make(map[int64]bool, n)
	grades := []string{"A", "B", "C"}
	sels := []float64{0.9, 0.5, 0.1}
	for i := 0; i < n; i++ {
		truth[int64(i)] = rng.Bernoulli(sels[i%3])
		fmt.Fprintf(&sb, "%d,%s\n", i, grades[i%3])
	}
	db := predeval.Open(1)
	db.SetUDFCache(false)
	db.SetBatchSize(batchSize)
	if parallelism > 0 {
		db.SetParallelism(parallelism)
	}
	if err := db.LoadCSV("loans", strings.NewReader(sb.String())); err != nil {
		t.Fatal(err)
	}
	body := func(v any) bool {
		id := v.(int64)
		verdict := truth[id]
		if wrap != nil {
			verdict = wrap(id, verdict)
		}
		return verdict
	}
	if err := db.RegisterUDF("good_credit", body, 0); err != nil {
		t.Fatal(err)
	}
	srv := newServer(db, serverConfig{})
	ts := httptest.NewServer(srv.handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// postStream POSTs a streaming query and returns the response for
// incremental reading. The caller closes the body.
func postStream(t *testing.T, url string, req queryRequest) *http.Response {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestServerStreamNDJSON(t *testing.T) {
	_, ts := streamTestServer(t, 300, 32, 0, nil)
	resp := postStream(t, ts.URL, queryRequest{
		SQL:    "SELECT * FROM loans WHERE good_credit(id) = 1",
		Stream: true,
	})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type %q, want application/x-ndjson", ct)
	}
	var rows []streamRow
	var done *streamDone
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Bytes()
		if done != nil {
			t.Fatalf("line after the terminal done line: %s", line)
		}
		if bytes.Contains(line, []byte(`"done":true`)) {
			done = new(streamDone)
			if err := json.Unmarshal(line, done); err != nil {
				t.Fatalf("bad done line %s: %v", line, err)
			}
			continue
		}
		var row streamRow
		if err := json.Unmarshal(line, &row); err != nil {
			t.Fatalf("bad row line %s: %v", line, err)
		}
		rows = append(rows, row)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if done == nil {
		t.Fatal("stream ended without a done line")
	}
	if done.RowCount != len(rows) || done.Truncated {
		t.Fatalf("done reports %d rows (truncated=%v), stream carried %d",
			done.RowCount, done.Truncated, len(rows))
	}
	if !done.Stats.Exact || done.Stats.Evaluations != 300 {
		t.Fatalf("stats %+v, want exact with 300 evaluations", done.Stats)
	}
	if len(done.Columns) != 2 || done.Columns[0] != "id" {
		t.Fatalf("columns %v", done.Columns)
	}

	// The streamed rows must match the buffered response bit for bit.
	status, body := mustPostQuery(t, ts.URL, queryRequest{
		SQL: "SELECT * FROM loans WHERE good_credit(id) = 1",
	})
	if status != http.StatusOK {
		t.Fatalf("buffered status %d: %s", status, body)
	}
	var buffered queryResponse
	if err := json.Unmarshal(body, &buffered); err != nil {
		t.Fatal(err)
	}
	if len(rows) != buffered.RowCount {
		t.Fatalf("streamed %d rows, buffered %d", len(rows), buffered.RowCount)
	}
	for i, row := range rows {
		if row.RowID != buffered.RowIDs[i] || !reflect.DeepEqual(row.Row, buffered.Rows[i]) {
			t.Fatalf("row %d: streamed (%d, %v), buffered (%d, %v)",
				i, row.RowID, row.Row, buffered.RowIDs[i], buffered.Rows[i])
		}
	}
}

// TestServerStreamLimitStopsProduction is the limit/stream regression at
// the served layer: the limit stops evaluation, it does not truncate a
// fully evaluated result.
func TestServerStreamLimitStopsProduction(t *testing.T) {
	var calls atomic.Int64
	_, ts := streamTestServer(t, 2000, 16, 1, func(_ int64, v bool) bool {
		calls.Add(1)
		return v
	})
	resp := postStream(t, ts.URL, queryRequest{
		SQL:    "SELECT id FROM loans WHERE good_credit(id) = 1",
		Stream: true,
		Limit:  5,
	})
	defer resp.Body.Close()
	var done *streamDone
	rows := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if bytes.Contains(sc.Bytes(), []byte(`"done":true`)) {
			done = new(streamDone)
			if err := json.Unmarshal(sc.Bytes(), done); err != nil {
				t.Fatal(err)
			}
			continue
		}
		rows++
	}
	if done == nil {
		t.Fatal("no done line")
	}
	if rows != 5 || done.RowCount != 5 || !done.Truncated {
		t.Fatalf("rows=%d done=%+v, want 5 truncated rows", rows, done)
	}
	if c := calls.Load(); c >= 1000 {
		t.Fatalf("limit 5 still evaluated %d of 2000 rows; production was not stopped", c)
	}
	if done.Stats.Evaluations >= 1000 {
		t.Fatalf("Stats.Evaluations = %d, want far below 2000", done.Stats.Evaluations)
	}
}

// TestServerStreamFirstRowBeforeFinalWave is the end-to-end acceptance
// test: the first NDJSON row must reach the client while later UDF waves
// are still running. The UDF blocks on high row ids until the client has
// read the first row line — if streaming buffered the whole result, the
// query could never finish.
func TestServerStreamFirstRowBeforeFinalWave(t *testing.T) {
	gate := make(chan struct{})
	var gateOnce sync.Once
	var timedOut atomic.Bool
	_, ts := streamTestServer(t, 1000, 8, 1, func(id int64, v bool) bool {
		if id >= 500 {
			select {
			case <-gate:
			case <-time.After(20 * time.Second):
				timedOut.Store(true)
			}
		}
		return v
	})
	resp := postStream(t, ts.URL, queryRequest{
		SQL:    "SELECT id FROM loans WHERE good_credit(id) = 1",
		Stream: true,
	})
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	var done *streamDone
	rows := 0
	for sc.Scan() {
		if bytes.Contains(sc.Bytes(), []byte(`"done":true`)) {
			done = new(streamDone)
			if err := json.Unmarshal(sc.Bytes(), done); err != nil {
				t.Fatal(err)
			}
			continue
		}
		rows++
		// First row in hand while rows ≥ 500 are still gated: release them.
		gateOnce.Do(func() { close(gate) })
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if timedOut.Load() {
		t.Fatal("UDF gate timed out: the first row never reached the client before the final waves")
	}
	if done == nil || rows == 0 {
		t.Fatalf("rows=%d done=%v, want a completed stream", rows, done)
	}
	if done.Stats.Evaluations != 1000 {
		t.Fatalf("evaluations = %d, want the full 1000 after the gate opened", done.Stats.Evaluations)
	}
}

func TestServerStreamRejectsExplainAnalyze(t *testing.T) {
	_, ts := streamTestServer(t, 30, 0, 0, nil)
	for _, req := range []queryRequest{
		{SQL: "SELECT id FROM loans WHERE good_credit(id) = 1", Stream: true, Explain: true},
		{SQL: "SELECT id FROM loans WHERE good_credit(id) = 1", Stream: true, Analyze: true},
		{SQL: "EXPLAIN SELECT id FROM loans WHERE good_credit(id) = 1", Stream: true},
	} {
		status, body := mustPostQuery(t, ts.URL, req)
		if status != http.StatusBadRequest {
			t.Fatalf("%+v: status %d (%s), want 400", req, status, body)
		}
	}
}

// TestServerMetricsBatchGauges pins the batch observability surface on
// /metrics: after a query, the peak-batch-rows gauge and total-batches
// counter are live, and nothing is left in flight.
func TestServerMetricsBatchGauges(t *testing.T) {
	_, ts := streamTestServer(t, 300, 64, 0, nil)
	status, body := mustPostQuery(t, ts.URL, queryRequest{
		SQL: "SELECT id FROM loans WHERE good_credit(id) = 1",
	})
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	samples := scrapeMetrics(t, ts.URL)
	if v, ok := samples["predsqld_batches_in_flight"]; !ok || v != 0 {
		t.Errorf("predsqld_batches_in_flight = %v (present=%v), want 0", v, ok)
	}
	if v, ok := samples["predsqld_peak_batch_rows"]; !ok || v <= 0 || v > 64 {
		t.Errorf("predsqld_peak_batch_rows = %v (present=%v), want 1..64", v, ok)
	}
	if v, ok := samples["predsqld_batches_total"]; !ok || v <= 0 {
		t.Errorf("predsqld_batches_total = %v (present=%v), want > 0", v, ok)
	}
}

// TestServerStreamDeterminismMatrix pins the determinism contract at the
// served layer: the NDJSON row lines and final stats are identical across
// parallelism {1, 8} × batch size {1, 64, 4096} on a chaos workload
// (first-attempt transient failures keyed per row id, retried to
// success). elapsed_ms is the only field allowed to differ.
func TestServerStreamDeterminismMatrix(t *testing.T) {
	run := func(parallelism, batchSize int) ([]string, streamDone) {
		t.Helper()
		db := predeval.Open(1)
		db.SetUDFCache(false)
		db.SetParallelism(parallelism)
		db.SetBatchSize(batchSize)
		rng := stats.NewRNG(9)
		var sb strings.Builder
		sb.WriteString("id,grade\n")
		truth := make(map[int64]bool, 600)
		grades := []string{"A", "B", "C"}
		sels := []float64{0.9, 0.5, 0.1}
		for i := 0; i < 600; i++ {
			truth[int64(i)] = rng.Bernoulli(sels[i%3])
			fmt.Fprintf(&sb, "%d,%s\n", i, grades[i%3])
		}
		if err := db.LoadCSV("loans", strings.NewReader(sb.String())); err != nil {
			t.Fatal(err)
		}
		var mu sync.Mutex
		attempts := make(map[int64]int)
		err := db.RegisterUDFErr("good_credit", func(_ context.Context, v any) (bool, error) {
			id := v.(int64)
			mu.Lock()
			attempts[id]++
			first := attempts[id] == 1
			mu.Unlock()
			if id%7 == 3 && first {
				return false, fmt.Errorf("chaos: id %d flaked", id)
			}
			return truth[id], nil
		}, 0)
		if err != nil {
			t.Fatal(err)
		}
		srv := newServer(db, serverConfig{})
		ts := httptest.NewServer(srv.handler())
		defer ts.Close()
		resp := postStream(t, ts.URL, queryRequest{
			SQL:    "SELECT id, grade FROM loans WHERE good_credit(id) = 1",
			Stream: true,
		})
		defer resp.Body.Close()
		var lines []string
		var done streamDone
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			if bytes.Contains(sc.Bytes(), []byte(`"done":true`)) {
				if err := json.Unmarshal(sc.Bytes(), &done); err != nil {
					t.Fatal(err)
				}
				continue
			}
			lines = append(lines, sc.Text())
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		done.ElapsedMS = 0
		return lines, done
	}
	baseLines, baseDone := run(1, 1)
	if len(baseLines) == 0 || baseDone.Stats.Retries == 0 {
		t.Fatalf("baseline carried %d rows, %d retries; the chaos workload should exercise retries",
			len(baseLines), baseDone.Stats.Retries)
	}
	for _, p := range []int{1, 8} {
		for _, b := range []int{1, 64, 4096} {
			if p == 1 && b == 1 {
				continue
			}
			lines, done := run(p, b)
			if !reflect.DeepEqual(lines, baseLines) {
				t.Errorf("p=%d batch=%d: row lines diverged (%d vs %d)", p, b, len(lines), len(baseLines))
			}
			if !reflect.DeepEqual(done, baseDone) {
				t.Errorf("p=%d batch=%d: done line diverged:\n got %+v\nwant %+v", p, b, done, baseDone)
			}
		}
	}
}

// TestServerTruncatedAgreesAcrossModes pins that both response modes
// report truncated only when the limit withheld a row: a limit equal to
// the result size is not truncated, one below it is.
func TestServerTruncatedAgreesAcrossModes(t *testing.T) {
	const sql = "SELECT id FROM loans WHERE good_credit(id) = 1"
	_, ts := streamTestServer(t, 300, 0, 0, nil)
	buffered := func(limit int) queryResponse {
		t.Helper()
		status, body := mustPostQuery(t, ts.URL, queryRequest{SQL: sql, Limit: limit})
		if status != http.StatusOK {
			t.Fatalf("limit %d: status %d: %s", limit, status, body)
		}
		var out queryResponse
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	n := buffered(0).RowCount
	for _, limit := range []int{n - 1, n, n + 1} {
		want := limit < n
		if out := buffered(limit); out.Truncated != want {
			t.Errorf("buffered limit %d of %d rows: truncated=%v, want %v", limit, n, out.Truncated, want)
		}
		resp := postStream(t, ts.URL, queryRequest{SQL: sql, Stream: true, Limit: limit})
		var done streamDone
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			if bytes.Contains(sc.Bytes(), []byte(`"done":true`)) {
				if err := json.Unmarshal(sc.Bytes(), &done); err != nil {
					t.Fatal(err)
				}
			}
		}
		resp.Body.Close()
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		if !done.Done || done.Truncated != want || done.RowCount != min(limit, n) {
			t.Errorf("streamed limit %d of %d rows: done=%+v, want truncated=%v row_count=%d",
				limit, n, done, want, min(limit, n))
		}
	}
}
