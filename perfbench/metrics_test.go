package main

import (
	"errors"
	"math"
	"testing"
)

func TestTailPercentileHighestWithTenBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 100..1, unsorted on purpose
	}
	got := tailPercentile(xs, 10)
	if got.Value != 90 || got.Percentile != 90 || got.Beyond != 10 || got.Samples != 100 {
		t.Fatalf("100 samples: got %+v, want value 90 at p90 with 10 beyond", got)
	}
	// 250 samples: the 11th largest, p96, with exactly 10 beyond it.
	xs = xs[:0]
	for i := 1; i <= 250; i++ {
		xs = append(xs, float64(i))
	}
	got = tailPercentile(xs, 10)
	if got.Value != 240 || got.Percentile != 96 || got.Beyond != 10 {
		t.Fatalf("250 samples: got %+v, want value 240 at p96", got)
	}
	// Exactly 11 samples: the minimum still has 10 beyond it.
	got = tailPercentile(xs[:11], 10)
	if got.Value != 1 || got.Beyond != 10 {
		t.Fatalf("11 samples: got %+v, want the minimum with 10 beyond", got)
	}
	// Too few samples: the maximum, and Beyond shows the rule did not hold.
	got = tailPercentile([]float64{3, 1, 2}, 10)
	if got.Value != 3 || got.Beyond != 0 || got.Percentile != 100 {
		t.Fatalf("3 samples: got %+v, want the maximum with 0 beyond", got)
	}
	if got := tailPercentile(nil, 10); got.Samples != 0 {
		t.Fatalf("no samples: got %+v", got)
	}
}

func TestUnionOfOverlappingCallsAtParallelism8(t *testing.T) {
	// Eight workers, each running one 1000ns call, staggered by 100ns: the
	// calls overlap, so the union is 0..1700, not 8 × 1000.
	var ivs []interval
	for w := int64(0); w < 8; w++ {
		ivs = append(ivs, interval{w * 100, w*100 + 1000})
	}
	if got := unionLength(ivs); got != 1700 {
		t.Fatalf("staggered workers: union %d, want 1700", got)
	}
	// Eight fully simultaneous calls count once.
	same := make([]interval, 8)
	for i := range same {
		same[i] = interval{50, 150}
	}
	if got := unionLength(same); got != 100 {
		t.Fatalf("simultaneous calls: union %d, want 100", got)
	}
	// Gaps are not covered; touching intervals join; order does not matter.
	mixed := []interval{{20, 30}, {0, 10}, {5, 15}, {30, 40}, {100, 101}}
	if got := unionLength(mixed); got != 15+20+1 {
		t.Fatalf("mixed: union %d, want 36", got)
	}
	if got := unionLength(nil); got != 0 {
		t.Fatalf("empty: union %d", got)
	}
}

func TestSelfTimeWithNestedChildren(t *testing.T) {
	spans := []span{
		{Name: "bench:query", Start: 0, End: 100},
		{Name: "op:exact-eval", Start: 10, End: 40},
		{Name: "op:scan", Start: 15, End: 25},
		{Name: "op:exact-eval", Start: 50, End: 90},
		{Name: "op:scan", Start: 55, End: 61},
		{Name: "op:scan", Start: 70, End: 80},
		// Rounding: a child may end one µs past its parent.
		{Name: "materialize", Start: 90, End: 101},
	}
	got := selfTimes(spans)
	want := map[string]int64{
		"bench:query":   100 - 30 - 40 - 10, // children: both evals + materialize (clipped)
		"op:exact-eval": (30 - 10) + (40 - 6 - 10),
		"op:scan":       10 + 6 + 10,
		"materialize":   11,
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self(%s) = %d, want %d (all: %v)", name, got[name], w, got)
		}
	}
	// Spans listed out of start order nest the same way.
	rev := make([]span, len(spans))
	for i, s := range spans {
		rev[len(spans)-1-i] = s
	}
	for name, w := range want {
		if g := selfTimes(rev)[name]; g != w {
			t.Errorf("reversed input: self(%s) = %d, want %d", name, g, w)
		}
	}
}

func TestRealizedAccuracyAndGuarantee(t *testing.T) {
	scope := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	positive := func(r int) bool { return r < 6 } // 6 positives in scope
	returned := []int{0, 1, 2, 6}                 // 3 true positives, 1 false
	a := realizedAccuracy(returned, scope, positive, nil, 0.7, 0.5, true)
	if a.Precision != 0.75 || a.Recall != 0.5 || !a.Met {
		t.Fatalf("got %+v, want precision .75 recall .5 met", a)
	}
	if a := realizedAccuracy(returned, scope, positive, nil, 0.7, 0.6, true); a.Met {
		t.Fatalf("recall .5 < β .6 must not meet: %+v", a)
	}
	if a := realizedAccuracy(returned, scope, positive, nil, 0.7, 0.6, false); !a.Met {
		t.Fatalf("a BUDGET query guarantees precision only: %+v", a)
	}
	// Join weights: row 6 (false) matches 3 join rows, the rest one each.
	w := func(r int) float64 {
		if r == 6 {
			return 3
		}
		return 1
	}
	if a := realizedAccuracy(returned, scope, positive, w, 0.7, 0.5, true); a.Precision != 0.5 || a.Met {
		t.Fatalf("weighted: got %+v, want precision .5, not met", a)
	}
	if a := realizedAccuracy(nil, scope, positive, nil, 0.9, 0.9, true); a.Precision != 1 || a.Recall != 0 {
		t.Fatalf("empty answer: got %+v, want precision 1 recall 0", a)
	}
	sum := summarizeAccuracy([]accuracy{
		{Precision: 1, Recall: 0.5, Met: false},
		{Precision: 0.8, Recall: 1, Met: true},
		{Precision: 0.9, Recall: 0.9, Met: true},
		{Precision: 0.9, Recall: 0.6, Met: true},
	})
	if math.Abs(sum.PrecisionMean-0.9) > 1e-12 || math.Abs(sum.RecallMean-0.75) > 1e-12 || sum.MetFrac != 0.75 || sum.Queries != 4 {
		t.Fatalf("summary: got %+v", sum)
	}
}

func TestFailedFracAccounting(t *testing.T) {
	var o outcomes
	if o.failedFrac() != 0 {
		t.Fatal("nothing attempted must read 0")
	}
	for _, err := range []error{nil, errors.New("HTTP 504"), nil, nil, errors.New("timeout")} {
		o.record(err)
	}
	if o.Attempted != 5 || o.Failed != 2 || o.failedFrac() != 0.4 {
		t.Fatalf("got %+v frac %v, want 2 of 5", o, o.failedFrac())
	}
}

func TestScheduleKeepsEveryPrefixNearItsShare(t *testing.T) {
	shapes := []*shape{{name: "a", weight: 6}, {name: "b", weight: 2}, {name: "c", weight: 1}}
	cycle := schedule(shapes)
	if len(cycle) != 9 {
		t.Fatalf("cycle length %d, want 9", len(cycle))
	}
	counts := map[string]int{}
	for i, s := range cycle {
		counts[s.name]++
		for _, sh := range shapes {
			share := float64(sh.weight) * float64(i+1) / 9
			if math.Abs(float64(counts[sh.name])-share) > 1 {
				t.Fatalf("prefix %d holds %d of %s, share %.2f", i+1, counts[sh.name], sh.name, share)
			}
		}
	}
	if counts["a"] != 6 || counts["b"] != 2 || counts["c"] != 1 {
		t.Fatalf("counts %v", counts)
	}
}
