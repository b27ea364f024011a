package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"syscall"
	"time"

	predeval "repro"
	"repro/internal/dataset"
	"repro/internal/obs"
)

// serveScale sizes the lc table the server workload loads.
const serveScale = 0.1

// serverStarts is how many cold and how many warm start-ups a run times
// (the two real lives included); setup_s sums the two medians.
const serverStarts = 5

// serveWorkload is the predsqld binary over HTTP: one closed-loop client
// on at most two keep-alive connections, a skewed repeating mix of exact
// and approximate templates as JSON and as NDJSON streams, across two
// server lives sharing one catalog directory.
type serveWorkload struct {
	bin, dir string // built binary; per-run scratch directory
	seed     uint64
	tbl      *genTable
	csvPath  string
	labels   string
	cold     []*shape // templates of the first server life
	warm     []*shape // templates of the second
	client   *http.Client
}

func newServeWorkload(seed uint64) (*serveWorkload, error) {
	lc, err := generateTable(dataset.LendingClub, serveScale, seed, tableOptions{channel: true})
	if err != nil {
		return nil, err
	}
	const bounds = "WITH PRECISION 0.8 RECALL 0.8 PROBABILITY 0.9"
	w := &serveWorkload{seed: seed, tbl: lc}
	exact := []*shape{
		{name: "exact-web", weight: 4, sql: "SELECT id, grade FROM lc WHERE channel = 'web' AND lc_ok(id) = 1"},
		{name: "exact-web-stream", weight: 4, stream: true, limit: 200,
			sql: "SELECT id, grade FROM lc WHERE channel = 'web' AND lc_ok(id) = 1"},
		{name: "exact-star-c", weight: 1, sql: "SELECT * FROM lc WHERE grade = 'C' AND lc_ok(id) = 1"},
		{name: "exact-star-c-stream", weight: 2, stream: true, limit: 50,
			sql: "SELECT * FROM lc WHERE grade = 'C' AND lc_ok(id) = 1"},
		// The heaviest response: every positive row, every column, as one
		// JSON body. It holds the tail's percentile inside one cluster.
		{name: "exact-star-all", weight: 2, sql: "SELECT * FROM lc WHERE lc_ok(id) = 1"},
	}
	approxWeb := &shape{name: "approx-web", weight: 4,
		sql: "SELECT id FROM lc WHERE channel = 'web' AND lc_ok(id) = 1 " + bounds + " GROUP ON grade"}
	// The cold life learns its evidence under the channel = 'web' filter;
	// the warm life re-runs the template without it, over a population the
	// stored evidence does not sample uniformly.
	w.cold = append(slices.Clone(exact), approxWeb,
		&shape{name: "approx-web-stream", weight: 2, stream: true,
			sql: "SELECT id, grade FROM lc WHERE channel = 'web' AND lc_ok(id) = 1 " + bounds + " GROUP ON grade"})
	w.warm = append(slices.Clone(exact), approxWeb,
		&shape{name: "approx-all", weight: 2,
			sql: "SELECT id FROM lc WHERE lc_ok(id) = 1 " + bounds + " GROUP ON grade"},
		&shape{name: "approx-all-stream", weight: 2, stream: true,
			sql: "SELECT id, grade FROM lc WHERE lc_ok(id) = 1 " + bounds + " GROUP ON grade"})
	tables := map[string]*genTable{lc.name: lc}
	for _, s := range append(slices.Clone(w.cold), w.warm...) {
		if err := s.bind(tables, nil); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// server is one live predsqld child process.
type server struct {
	cmd  *exec.Cmd
	addr string
	done chan error // receives cmd.Wait's result once
}

// start launches predsqld on dataDir and returns once /healthz answers,
// with the time that took.
func (w *serveWorkload) start(ctx context.Context, dataDir string) (*server, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	logf, err := os.OpenFile(filepath.Join(w.dir, "predsqld.log"), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, 0, err
	}
	defer logf.Close()
	cmd := exec.Command(w.bin,
		"-addr", addr,
		"-table", "lc="+w.csvPath,
		"-truth", w.labels,
		"-udf", w.tbl.udf,
		"-seed", strconv.FormatUint(w.seed, 10),
		"-data-dir", dataDir,
		"-flush-interval", "0",
		"-udf-delay", "1ms",
		"-parallelism", "8",
		"-udf-retries", "6",
		"-chaos-error-rate", "0.02",
	)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The kernel kills the server if the benchmark dies before reaping it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	begin := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	s := &server{cmd: cmd, addr: addr, done: make(chan error, 1)}
	go func() { s.done <- cmd.Wait() }()
	for {
		if time.Since(begin) > time.Minute {
			s.kill()
			return nil, 0, fmt.Errorf("predsqld not healthy after a minute (see %s)", logf.Name())
		}
		select {
		case err := <-s.done:
			s.done <- err
			return nil, 0, fmt.Errorf("predsqld exited during start-up: %v", err)
		default:
		}
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+addr+"/healthz", nil)
		resp, err := w.client.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(begin), nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop drains the server with SIGTERM (which flushes and compacts the
// catalog) and waits for it to exit.
func (s *server) stop() error {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case err := <-s.done:
		return err
	case <-time.After(time.Minute):
		s.kill()
		return errors.New("predsqld did not drain within a minute")
	}
}

// kill ends the server without a drain and reaps it.
func (s *server) kill() {
	_ = s.cmd.Process.Kill()
	<-s.done
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// wireStats mirrors predsqld's per-query stats object.
type wireStats struct {
	Evaluations int     `json:"evaluations"`
	Sampled     int     `json:"sampled"`
	Cost        float64 `json:"cost"`
	CacheHits   int     `json:"cache_hits"`
	CacheMisses int     `json:"cache_misses"`
	FailedRows  int     `json:"failed_rows"`
	Retries     int     `json:"retries"`
}

func (s wireStats) stats() predeval.Stats {
	return predeval.Stats{Evaluations: s.Evaluations, Sampled: s.Sampled, Cost: s.Cost,
		CacheHits: s.CacheHits, CacheMisses: s.CacheMisses, FailedRows: s.FailedRows, Retries: s.Retries}
}

// wireLine is any line of a JSON or NDJSON query response.
type wireLine struct {
	Rows   [][]string     `json:"rows"`
	RowIDs []int          `json:"row_ids"`
	RowID  *int           `json:"row_id"`
	Row    []string       `json:"row"`
	Done   bool           `json:"done"`
	Error  string         `json:"error"`
	Stats  wireStats      `json:"stats"`
	Trace  []obs.SpanJSON `json:"trace"`
}

// query sends one template and reads the whole response. A transport
// error, a non-2xx status or an error line is a failed operation.
func (w *serveWorkload) query(ctx context.Context, addr string, s *shape, traced bool) (*answer, error) {
	body, err := json.Marshal(map[string]any{
		"sql": s.sql, "stream": s.stream, "limit": s.limit, "trace": traced, "timeout_ms": 60000,
	})
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, "http://"+addr+"/query", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	start := time.Now()
	resp, err := w.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	cr := &countingReader{r: resp.Body}
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(cr)
		return nil, fmt.Errorf("%s: HTTP %d: %s", s.name, resp.StatusCode, bytes.TrimSpace(msg))
	}
	a := &answer{}
	var last wireLine
	if s.stream {
		br := bufio.NewReader(cr)
		for {
			line, err := br.ReadBytes('\n')
			if len(bytes.TrimSpace(line)) > 0 {
				var l wireLine
				if err := json.Unmarshal(line, &l); err != nil {
					return nil, fmt.Errorf("%s: bad NDJSON line: %v", s.name, err)
				}
				switch {
				case l.Error != "":
					return nil, fmt.Errorf("%s: stream error: %s", s.name, l.Error)
				case l.RowID != nil:
					if a.firstRow == 0 {
						a.firstRow = time.Since(start)
					}
					a.ids = append(a.ids, *l.RowID)
					a.cells = append(a.cells, l.Row)
				case l.Done:
					last = l
				}
			}
			if err == io.EOF {
				break
			}
			if err != nil {
				return nil, err
			}
		}
		if !last.Done {
			return nil, fmt.Errorf("%s: stream ended without a done line", s.name)
		}
	} else {
		if err := json.NewDecoder(cr).Decode(&last); err != nil {
			return nil, fmt.Errorf("%s: bad JSON response: %v", s.name, err)
		}
		_, _ = io.Copy(io.Discard, cr)
		a.ids, a.cells = last.RowIDs, last.Rows
	}
	a.latency = time.Since(start)
	a.stats = last.Stats.stats()
	a.bytes = cr.n
	for _, sp := range last.Trace {
		a.spans = append(a.spans, span{Name: sp.Name, Start: sp.StartUS, End: sp.StartUS + sp.DurUS})
	}
	return a, nil
}

type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// scrape reads GET /metrics.
func (w *serveWorkload) scrape(ctx context.Context, addr string) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+addr+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return obs.ParseExposition(resp.Body)
}

// catalogVerdicts reads the outcome-row count from GET /stats.
func (w *serveWorkload) catalogVerdicts(ctx context.Context, addr string) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+addr+"/stats", nil)
	if err != nil {
		return 0, err
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var st struct {
		Catalog *struct {
			OutcomeRows int `json:"outcome_rows"`
		} `json:"catalog"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return 0, err
	}
	if st.Catalog == nil {
		return 0, errors.New("predsqld reports no catalog")
	}
	return st.Catalog.OutcomeRows, nil
}

// servePass is one timed loop against one server life.
type servePass struct {
	rec                 *recorder
	serverSumS, serverN float64 // Δ query-duration histogram
	udfSumS, udfN       float64 // Δ UDF-duration histogram
	clientSumMS         float64
}

// pairCheck holds the first JSON and the first NDJSON answer of each
// exact SQL text: every later stream must repeat its first, and the first
// stream must equal the JSON rows (its limit's worth).
type pairCheck struct {
	json, stream map[string]*answer
}

func (p *pairCheck) observe(s *shape, a *answer) error {
	if s.approx {
		return nil
	}
	m := p.json
	if s.stream {
		m = p.stream
	}
	first, ok := m[s.sql]
	if !ok {
		m[s.sql] = a
		return nil
	}
	if s.stream && (!slices.Equal(first.ids, a.ids) || !slices.EqualFunc(first.cells, a.cells, slices.Equal)) {
		return fmt.Errorf("%w: %s: NDJSON rows changed between runs of the same exact template", errWrongAnswer, s.name)
	}
	return nil
}

func (p *pairCheck) final() error {
	for sql, st := range p.stream {
		js, ok := p.json[sql]
		if !ok {
			continue
		}
		n := len(st.ids)
		if n > len(js.ids) || !slices.Equal(st.ids, js.ids[:n]) || !slices.EqualFunc(st.cells, js.cells[:n], slices.Equal) {
			return fmt.Errorf("%w: NDJSON rows differ from the JSON rows of %q", errWrongAnswer, sql)
		}
	}
	return nil
}

// loop runs one timed closed loop against a server life, accumulating
// into pass (both lives of a run share one pass).
func (w *serveWorkload) loop(ctx context.Context, addr string, shapes []*shape, dur time.Duration, traced bool, pairs *pairCheck, pass *servePass) error {
	cycle := schedule(shapes)
	m0, err := w.scrape(ctx, addr)
	if err != nil {
		return err
	}
	checks0 := pass.rec.checkTime
	begin := time.Now()
	for i := 0; time.Since(begin) < dur; i++ {
		s := cycle[i%len(cycle)]
		a, err := w.query(ctx, addr, s, traced)
		pass.rec.ops.record(err)
		if err != nil {
			continue
		}
		pass.clientSumMS += ms(a.latency)
		if err := pass.rec.add(s, a, w.tbl.rows); err != nil {
			return err
		}
		if err := pairs.observe(s, a); err != nil {
			return err
		}
	}
	pass.rec.wall += time.Since(begin) - (pass.rec.checkTime - checks0)
	m1, err := w.scrape(ctx, addr)
	if err != nil {
		return err
	}
	udf := `{udf="` + w.tbl.udf + `"}`
	pass.serverSumS += m1["predsqld_query_duration_seconds_sum"] - m0["predsqld_query_duration_seconds_sum"]
	pass.serverN += m1["predsqld_query_duration_seconds_count"] - m0["predsqld_query_duration_seconds_count"]
	pass.udfSumS += m1["predsqld_udf_duration_seconds_sum"+udf] - m0["predsqld_udf_duration_seconds_sum"+udf]
	pass.udfN += m1["predsqld_udf_duration_seconds_count"+udf] - m0["predsqld_udf_duration_seconds_count"+udf]
	return nil
}

// runServe runs the serve-repeat workload: build predsqld, then a cold
// life that writes verdicts and evidence, a SIGTERM drain that flushes and
// compacts the catalog, and a warm life that reads them back.
func runServe(ctx context.Context, root string, seed uint64, dur time.Duration, traced bool) (*result, error) {
	w, err := newServeWorkload(seed)
	if err != nil {
		return nil, err
	}
	scratch := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, err
	}
	w.dir, err = os.MkdirTemp(scratch, "serve-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(w.dir)
	w.bin = filepath.Join(w.dir, "predsqld")
	build := exec.Command("go", "build", "-o", w.bin, "./cmd/predsqld")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("building predsqld: %v\n%s", err, out)
	}
	if w.csvPath, w.labels, err = writeInputs(w.dir, w.tbl); err != nil {
		return nil, err
	}
	w.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2, MaxConnsPerHost: 2}}
	defer w.client.CloseIdleConnections()

	// Extra start-ups give setup_s its medians; each probe runs on its own
	// data directory (a copy of the cold life's, for warm probes) and is
	// drained at once.
	probe := func(dataDir string) (time.Duration, error) {
		s, d, err := w.start(ctx, dataDir)
		if err != nil {
			return 0, err
		}
		return d, s.stop()
	}
	live := filepath.Join(w.dir, "catalog")
	var coldStarts, warmStarts []float64
	for i := 0; i < serverStarts-1; i++ {
		d, err := probe(filepath.Join(w.dir, fmt.Sprintf("cold-probe-%d", i)))
		if err != nil {
			return nil, err
		}
		coldStarts = append(coldStarts, d.Seconds())
	}

	pairs := &pairCheck{json: map[string]*answer{}, stream: map[string]*answer{}}
	plain, tracedPass := &servePass{rec: newRecorder()}, &servePass{rec: newRecorder()}
	var rssMB float64
	verdicts := 0
	life := func(dataDir string, starts *[]float64, warm bool) error {
		shapes := w.cold
		if warm {
			shapes = w.warm
		}
		s, d, err := w.start(ctx, dataDir)
		if err != nil {
			return err
		}
		defer func() {
			if s != nil {
				s.kill()
			}
		}()
		*starts = append(*starts, d.Seconds())
		if warm {
			if verdicts, err = w.catalogVerdicts(ctx, s.addr); err != nil {
				return err
			}
		}
		if err := w.loop(ctx, s.addr, shapes, dur/2, false, pairs, plain); err != nil {
			return err
		}
		if traced {
			if err := w.loop(ctx, s.addr, shapes, dur/2, true, pairs, tracedPass); err != nil {
				return err
			}
		}
		rss, err := peakRSSMB(strconv.Itoa(s.cmd.Process.Pid))
		if err != nil {
			return err
		}
		rssMB = max(rssMB, rss)
		err = s.stop()
		s = nil
		return err
	}
	if err := life(live, &coldStarts, false); err != nil {
		return nil, err
	}
	catalogBytes, err := dirBytes(live)
	if err != nil {
		return nil, err
	}
	for i := 0; i < serverStarts-1; i++ {
		probeDir := filepath.Join(w.dir, fmt.Sprintf("warm-probe-%d", i))
		if err := os.CopyFS(probeDir, os.DirFS(live)); err != nil {
			return nil, err
		}
		d, err := probe(probeDir)
		if err != nil {
			return nil, err
		}
		warmStarts = append(warmStarts, d.Seconds())
	}
	if err := life(live, &warmStarts, true); err != nil {
		return nil, err
	}
	res := &result{ops: plain.rec.ops, notes: plain.rec.shapeNotes()}
	if err := pairs.final(); err != nil {
		return res, err
	}
	res.ops.Attempted += tracedPass.rec.ops.Attempted
	res.ops.Failed += tracedPass.rec.ops.Failed
	if !traced {
		res.metrics = endToEnd(plain.rec, median(coldStarts)+median(warmStarts),
			fmt.Sprintf("(median of %d cold + median of %d warm starts to /healthz)", len(coldStarts), len(warmStarts)), rssMB)
		return res, nil
	}
	res.metrics, err = w.perLayer(plain, tracedPass, median(warmStarts), float64(catalogBytes), float64(verdicts))
	return res, err
}

func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}

// perLayer assembles the server workload's per-layer metrics.
func (w *serveWorkload) perLayer(plain, traced *servePass, warmStartS, catalogBytes, verdicts float64) ([]metric, error) {
	db := predeval.Open(w.seed)
	if err := db.LoadCSV(w.tbl.name, bytes.NewReader(w.tbl.csv)); err != nil {
		return nil, err
	}
	truth := w.tbl.truth[w.tbl.udf]
	if err := db.RegisterUDF(w.tbl.udf, func(v any) bool { return truth[v.(int64)] }, udfCost); err != nil {
		return nil, err
	}
	parseUS, planUS, err := timeParsePlan(db, append(slices.Clone(w.cold), w.warm...))
	if err != nil {
		return nil, err
	}
	l := layers{parseUS: parseUS, planUS: planUS}
	l.fromSpans(plain.rec, traced.rec)
	queries := float64(len(plain.rec.latencyMS))
	l.udfCallsPerQuery = ratio(plain.udfN, queries)
	l.udfBusyMS = ratio(plain.udfSumS*1e3, queries)
	l.catalogReopenMS = warmStartS * 1e3
	l.bytesPerVerdict = ratio(catalogBytes, verdicts)
	l.serverMS = ratio(plain.serverSumS*1e3, plain.serverN)
	l.wireMS = ratio(plain.clientSumMS, queries) - l.serverMS
	l.bytesPerRow = ratio(plain.rec.respBytes, plain.rec.rowsReturned)
	return l.metrics(), nil
}
