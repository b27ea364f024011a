// Command perfbench is the repository benchmark. It generates every input
// from the workload seed, drives the system only through its public entry
// points (predeval.DB, sqlparse.Parse, Engine.Plan, obs.WithTrace and the
// predsqld binary over HTTP), checks every answer against the ground truth
// it keeps, and prints its metrics. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//	perfbench --workload engine-local --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the workload
// untraced and then traced, and reports the per-layer metrics and the
// tracing overhead. Run it through run.sh, which builds it first. See
// README.md for the workloads and the metric definitions.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// metric is one reported value.
type metric struct {
	Name  string
	Unit  string
	Value float64
	Note  string // extra detail for the human-readable report
}

// result is what one invocation reports.
type result struct {
	ops     outcomes
	metrics []metric
	notes   []string // extra report lines
}

// errWrongAnswer marks a correctness-check failure: the run reports
// correct=false and exits non-zero.
var errWrongAnswer = errors.New("wrong answer")

func main() {
	os.Exit(run())
}

func run() int {
	var (
		workload = flag.String("workload", "", "paper-approx, engine-local or serve-repeat")
		seed     = flag.Uint64("seed", 1, "workload seed: every table and label file is generated from it")
		seconds  = flag.Int("seconds", 10, "length of each timed loop")
		trace    = flag.Int("trace", 0, "1 = report per-layer metrics from an untraced and a traced pass")
		root     = flag.String("root", ".", "repository checkout (source of the predsqld build, home of scratch files)")
	)
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be ≥ 1 and --trace 0 or 1")
		return 2
	}
	ctx := context.Background()
	dur := time.Duration(*seconds) * time.Second
	traced := *trace == 1
	fmt.Printf("perfbench workload=%s seed=%d seconds=%d trace=%d\n", *workload, *seed, *seconds, *trace)
	fmt.Printf("env nproc=%d GOMAXPROCS=%d go=%s git_rev=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), gitRev(*root))

	var res *result
	var err error
	switch *workload {
	case "paper-approx":
		res, err = runLib(ctx, paperApprox, *seed, dur, traced)
	case "engine-local":
		res, err = runLib(ctx, engineLocal, *seed, dur, traced)
	case "serve-repeat":
		res, err = runServe(ctx, *root, *seed, dur, traced)
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		return 2
	}
	correct := true
	if err != nil {
		if !errors.Is(err, errWrongAnswer) {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		correct = false
		if res == nil {
			res = &result{}
		}
	}
	return report(res, correct)
}

// report prints the human-readable table and the final JSON line.
func report(res *result, correct bool) int {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{correct, res.ops.Attempted, res.ops.Failed, map[string]value{}}
	fmt.Printf("  %-34s %14s  %s\n", "failed_frac", fmtValue(res.ops.failedFrac())+" ratio",
		fmt.Sprintf("(%d of %d operations)", res.ops.Failed, res.ops.Attempted))
	for _, n := range res.notes {
		fmt.Println("  " + n)
	}
	for _, m := range res.metrics {
		fmt.Printf("  %-34s %14s  %s\n", m.Name, fmtValue(m.Value)+" "+m.Unit, m.Note)
		out.Metrics[m.Name] = value{m.Value, m.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(b))
	if !correct || out.Attempted == 0 {
		return 1
	}
	return 0
}

func fmtValue(v float64) string { return strconv.FormatFloat(v, 'g', 6, 64) }

// gitRev names the checked-out revision, or "unknown" outside a git
// checkout.
func gitRev(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// peakRSSMB reads a process's peak resident set size (VmHWM) from /proc.
func peakRSSMB(pid string) (float64, error) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// endToEnd turns an untraced pass into the end-to-end metrics every
// workload reports.
func endToEnd(rec *recorder, setupS float64, setupNote string, rssMB float64) []metric {
	acc := summarizeAccuracy(rec.acc)
	tl := tailPercentile(rec.latencyMS, 10)
	return []metric{
		{Name: "setup_s", Unit: "s", Value: setupS, Note: setupNote},
		{Name: "queries_per_s", Unit: "1/s", Value: float64(len(rec.latencyMS)) / rec.wall.Seconds(),
			Note: fmt.Sprintf("(%d queries in %.2fs, closed loop, 1 client)", len(rec.latencyMS), rec.wall.Seconds())},
		{Name: "query_p50_ms", Unit: "ms", Value: median(rec.latencyMS)},
		{Name: "query_tail_ms", Unit: "ms", Value: tl.Value,
			Note: fmt.Sprintf("(p%.1f: %d samples beyond, %d samples)", tl.Percentile, tl.Beyond, tl.Samples)},
		{Name: "first_row_ms", Unit: "ms", Value: median(rec.firstRowMS), Note: fmt.Sprintf("(%d streams)", len(rec.firstRowMS))},
		{Name: "udf_evals_per_query", Unit: "count", Value: mean(rec.evals)},
		{Name: "cost_ratio", Unit: "ratio", Value: ratio(rec.approxCost, rec.exactCost),
			Note: fmt.Sprintf("(%d approximate queries)", acc.Queries)},
		{Name: "precision_mean", Unit: "ratio", Value: acc.PrecisionMean},
		{Name: "recall_mean", Unit: "ratio", Value: acc.RecallMean},
		{Name: "guarantee_met_frac", Unit: "ratio", Value: acc.MetFrac},
		{Name: "peak_rss_mb", Unit: "MB", Value: rssMB},
	}
}

// runLib runs an in-process workload.
func runLib(ctx context.Context, build func(uint64) (*libWorkload, error), seed uint64, dur time.Duration, traced bool) (*result, error) {
	w, err := build(seed)
	if err != nil {
		return nil, err
	}
	probe := &udfProbe{delay: w.delay, instrument: traced, origin: time.Now()}
	db, setups, err := w.setup(seed, probe)
	if err != nil {
		return nil, err
	}
	plain, err := w.loop(ctx, db, probe, dur, false)
	if err != nil {
		return nil, err
	}
	res := &result{ops: plain.rec.ops, notes: plain.rec.shapeNotes()}
	if err := w.verifyStreams(ctx, seed, probe); err != nil {
		return res, err
	}
	if !traced {
		rss, err := peakRSSMB("self")
		if err != nil {
			return nil, err
		}
		res.metrics = endToEnd(plain.rec, median(setups), fmt.Sprintf("(median of %d set-ups)", len(setups)), rss)
		return res, nil
	}
	tpass, err := w.loop(ctx, db, probe, dur, true)
	if err != nil {
		return nil, err
	}
	res.ops.Attempted += tpass.rec.ops.Attempted
	res.ops.Failed += tpass.rec.ops.Failed
	parseUS, planUS, err := timeParsePlan(db, w.shapes)
	if err != nil {
		return nil, err
	}
	res.metrics = w.perLayer(plain, tpass, parseUS, planUS)
	return res, nil
}
