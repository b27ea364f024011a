package main

import (
	"math"
	"sort"
)

// The metric math of the benchmark: pure functions over recorded samples,
// kept apart from the runners so metrics_test.go can pin each rule.

// median returns the middle of xs (the mean of the two middles for an even
// count), or 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean returns the arithmetic mean of xs, or 0 for no samples.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// tail is a latency percentile picked by the "highest percentile with at
// least minBeyond samples beyond it" rule.
type tail struct {
	Value      float64 // the sample at that percentile
	Percentile float64 // share of samples at or below Value, in percent
	Beyond     int     // samples strictly above the percentile's rank
	Samples    int     // total samples
}

// tailPercentile applies the rule: with n samples sorted ascending, the
// sample at rank n-1-minBeyond is the highest one that still has minBeyond
// samples beyond it, and its percentile is (n-minBeyond)/n. With too few
// samples for the rule the maximum is returned with Beyond < minBeyond, so
// the caller can see the rule did not hold.
func tailPercentile(xs []float64, minBeyond int) tail {
	n := len(xs)
	if n == 0 {
		return tail{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	idx := n - 1 - minBeyond
	if idx < 0 {
		idx = n - 1
	}
	return tail{
		Value:      s[idx],
		Percentile: 100 * float64(idx+1) / float64(n),
		Beyond:     n - 1 - idx,
		Samples:    n,
	}
}

// interval is a half-open time range [Start, End) in nanoseconds.
type interval struct{ Start, End int64 }

// unionLength returns the total time covered by at least one interval:
// overlapping calls (parallel UDF workers) count once.
func unionLength(ivs []interval) int64 {
	if len(ivs) == 0 {
		return 0
	}
	s := append([]interval(nil), ivs...)
	sort.Slice(s, func(i, j int) bool { return s[i].Start < s[j].Start })
	var total int64
	cur := s[0]
	for _, iv := range s[1:] {
		if iv.Start <= cur.End {
			if iv.End > cur.End {
				cur.End = iv.End
			}
			continue
		}
		total += cur.End - cur.Start
		cur = iv
	}
	return total + cur.End - cur.Start
}

// span is one finished trace span: a name and its [Start, End) in
// microseconds from the trace origin.
type span struct {
	Name       string
	Start, End int64
}

// spanSlackUS absorbs the rounding of exported span offsets: a span's
// start and duration are truncated to whole microseconds separately, so a
// child's computed end can exceed its parent's by one.
const spanSlackUS = 1

// selfTimes returns each span name's summed self time in microseconds: a
// span's duration minus the part of it that its direct children cover.
// Traces carry no parent links, so nesting is recovered from the
// intervals: a span's parent is the innermost earlier span enclosing it.
func selfTimes(spans []span) map[string]int64 {
	order := make([]int, len(spans))
	for i := range order {
		order[i] = i
	}
	// Parents sort before their children: by start, then longest first.
	sort.SliceStable(order, func(a, b int) bool {
		sa, sb := spans[order[a]], spans[order[b]]
		if sa.Start != sb.Start {
			return sa.Start < sb.Start
		}
		return sa.End-sa.Start > sb.End-sb.Start
	})
	children := make(map[int][]interval, len(spans))
	var stack []int
	for _, i := range order {
		sp := spans[i]
		for len(stack) > 0 {
			top := spans[stack[len(stack)-1]]
			if sp.Start >= top.Start && sp.End <= top.End+spanSlackUS {
				break
			}
			stack = stack[:len(stack)-1]
		}
		if len(stack) > 0 {
			p := stack[len(stack)-1]
			end := min(sp.End, spans[p].End)
			children[p] = append(children[p], interval{sp.Start, end})
		}
		stack = append(stack, i)
	}
	out := make(map[string]int64)
	for i, sp := range spans {
		self := sp.End - sp.Start - unionLength(children[i])
		out[sp.Name] += max(self, 0)
	}
	return out
}

// accuracy is one approximate query's realized quality against ground
// truth.
type accuracy struct {
	Precision, Recall float64
	Met               bool
}

// realizedAccuracy scores a returned row set. inScope lists every row the
// query ranges over, positive marks the ground-truth answer rows and
// weight gives each row's multiplicity (nil = 1 each; joins weight a base
// row by its join matches, since their guarantee is at the join-result
// level). An empty result has precision 1; a query with no positive row
// has recall 1. Met requires precision ≥ alpha and, when checkRecall is
// set, recall ≥ beta (BUDGET queries guarantee precision only).
func realizedAccuracy(returned, inScope []int, positive func(int) bool, weight func(int) float64, alpha, beta float64, checkRecall bool) accuracy {
	w := func(r int) float64 {
		if weight == nil {
			return 1
		}
		return weight(r)
	}
	var got, tp, pos float64
	for _, r := range returned {
		got += w(r)
		if positive(r) {
			tp += w(r)
		}
	}
	for _, r := range inScope {
		if positive(r) {
			pos += w(r)
		}
	}
	a := accuracy{Precision: 1, Recall: 1}
	if got > 0 {
		a.Precision = tp / got
	}
	if pos > 0 {
		a.Recall = tp / pos
	}
	a.Met = a.Precision >= alpha && (!checkRecall || a.Recall >= beta)
	return a
}

// accuracySummary folds per-query accuracies into the reported means and
// the share of queries that met their guarantee.
type accuracySummary struct {
	PrecisionMean, RecallMean, MetFrac float64
	Queries                            int
}

func summarizeAccuracy(as []accuracy) accuracySummary {
	if len(as) == 0 {
		return accuracySummary{}
	}
	var p, r, met float64
	for _, a := range as {
		p += a.Precision
		r += a.Recall
		if a.Met {
			met++
		}
	}
	n := float64(len(as))
	return accuracySummary{PrecisionMean: p / n, RecallMean: r / n, MetFrac: met / n, Queries: len(as)}
}

// outcomes counts operations of the timed loop. A failure is an error, a
// timeout or a non-2xx response; a wrong answer is not counted here — it
// fails the whole run.
type outcomes struct {
	Attempted, Failed int
}

func (o *outcomes) record(err error) {
	o.Attempted++
	if err != nil {
		o.Failed++
	}
}

// failedFrac is failed ÷ attempted, 0 when nothing was attempted.
func (o outcomes) failedFrac() float64 {
	if o.Attempted == 0 {
		return 0
	}
	return float64(o.Failed) / float64(o.Attempted)
}

// ratio is num ÷ den, 0 when den is 0 (a layer the workload never used).
func ratio(num, den float64) float64 {
	if den == 0 || math.IsNaN(den) {
		return 0
	}
	return num / den
}
