package core

import (
	"context"
	"errors"
	"sync"
	"testing"

	"repro/internal/exec"
	"repro/internal/resilience"
)

// fallibleFunc adapts a func to FallibleUDF.
type fallibleFunc func(ctx context.Context, row int) (bool, error)

func (f fallibleFunc) EvalErr(ctx context.Context, row int) (bool, error) { return f(ctx, row) }

func TestResilientMeterFailureMemoizedOnce(t *testing.T) {
	var calls, failures int
	var mu sync.Mutex
	m := NewResilientMeter(fallibleFunc(func(_ context.Context, row int) (bool, error) {
		mu.Lock()
		calls++
		mu.Unlock()
		if row == 7 {
			return false, errors.New("broken row")
		}
		return true, nil
	}), nil, nil, func(row int, err error) {
		mu.Lock()
		failures++
		mu.Unlock()
		if row != 7 {
			t.Errorf("onFailure for row %d, want 7", row)
		}
	})

	ctx := context.Background()
	for i := 0; i < 3; i++ {
		v, failed := m.EvalFallible(ctx, 7)
		if v || !failed {
			t.Fatalf("pass %d: got (%v, %v), want failed with verdict false", i, v, failed)
		}
	}
	if v, failed := m.EvalFallible(ctx, 8); !v || failed {
		t.Fatalf("healthy row: got (%v, %v)", v, failed)
	}
	if failures != 1 {
		t.Errorf("onFailure fired %d times, want once (failed-final memoization)", failures)
	}
	if calls != 2 {
		t.Errorf("body invoked %d times, want 2 (row 7 once + row 8 once)", calls)
	}
	if got := m.Calls(); got != 1 {
		t.Errorf("Calls() = %d, want 1 — failed rows are never charged", got)
	}
}

func TestResilientMeterFailureNotStoredInSharedCache(t *testing.T) {
	cache := NewSharedEvalCache()
	m := NewResilientMeter(fallibleFunc(func(_ context.Context, row int) (bool, error) {
		if row == 3 {
			return false, errors.New("flaky")
		}
		return true, nil
	}), cache, nil, nil)
	ctx := context.Background()
	m.EvalFallible(ctx, 3)
	m.EvalFallible(ctx, 4)
	if _, ok := cache.Lookup(3); ok {
		t.Error("failed row leaked into the shared cache")
	}
	if v, ok := cache.Lookup(4); !ok || !v {
		t.Error("healthy row missing from the shared cache")
	}
}

func TestResilientMeterCancellationForgetsRow(t *testing.T) {
	var calls int
	m := NewResilientMeter(fallibleFunc(func(ctx context.Context, _ int) (bool, error) {
		calls++
		if err := ctx.Err(); err != nil {
			return false, err
		}
		return true, nil
	}), nil, nil, func(int, error) {
		t.Error("cancellation must not fire onFailure")
	})

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, failed := m.EvalFallible(ctx, 1); !failed {
		t.Fatal("cancelled evaluation should report failed (withheld)")
	}
	// A fresh context re-evaluates: the row was forgotten, not failed-final.
	if v, failed := m.EvalFallible(context.Background(), 1); !v || failed {
		t.Fatalf("re-run after cancel: got (%v, %v), want a fresh successful evaluation", v, failed)
	}
	if calls != 2 {
		t.Errorf("body invoked %d times, want 2", calls)
	}
}

func TestResolveDeniedServesMemoAndCache(t *testing.T) {
	cache := NewSharedEvalCache()
	cache.Store(5, true)
	var denied []int
	m := NewResilientMeter(fallibleFunc(func(_ context.Context, _ int) (bool, error) {
		return true, nil
	}), cache, nil, func(row int, err error) {
		if !errors.Is(err, resilience.ErrBreakerOpen) {
			t.Errorf("onFailure err = %v, want ErrBreakerOpen", err)
		}
		denied = append(denied, row)
	})

	// Row 1: evaluated first, then denied — memo serves it.
	m.EvalFallible(context.Background(), 1)
	if v, failed := m.ResolveDenied(1); !v || failed {
		t.Fatalf("memoized row denied: got (%v, %v), want served from memo", v, failed)
	}
	// Row 5: cached cross-query — cache serves it.
	if v, failed := m.ResolveDenied(5); !v || failed {
		t.Fatalf("cached row denied: got (%v, %v), want served from cache", v, failed)
	}
	// Row 9: unknown — fails, onFailure fires with ErrBreakerOpen.
	if v, failed := m.ResolveDenied(9); v || !failed {
		t.Fatalf("unknown row denied: got (%v, %v), want failure", v, failed)
	}
	// The failure is final: a later gated segment that would admit row 9
	// still sees it failed (per-query consistency).
	if v, failed := m.EvalFallible(context.Background(), 9); v || !failed {
		t.Fatalf("row 9 after denial: got (%v, %v), want the memoized failure", v, failed)
	}
	if len(denied) != 1 || denied[0] != 9 {
		t.Errorf("onFailure rows = %v, want [9]", denied)
	}
}

func TestMeterKnownFailedRowIsUnknown(t *testing.T) {
	m := NewResilientMeter(fallibleFunc(func(context.Context, int) (bool, error) {
		return false, errors.New("down")
	}), nil, nil, nil)
	if v, failed := m.EvalFallible(context.Background(), 4); v || !failed {
		t.Fatalf("EvalFallible = (%v, %v), want (false, true)", v, failed)
	}
	if v, ok := m.Known(4); ok {
		t.Fatalf("Known(failed row) = (%v, %v), want not known", v, ok)
	}
}

func TestEvalRowsResilientWithBreakerDeterministic(t *testing.T) {
	// 60 rows; rows 10..29 fail. The breaker (window 8, min 4, rate 0.5,
	// segment 8) trips during the failure run; denied rows resolve as
	// failures. At any parallelism the verdict/failed slices and the trip
	// count must match, because Plan/Record run on the batch spine.
	rows := make([]int, 60)
	for i := range rows {
		rows[i] = i
	}
	run := func(workers int) ([]bool, []bool, int64) {
		b := resilience.NewBreaker(resilience.BreakerConfig{
			Window: 8, MinCalls: 4, FailureRate: 0.5, Cooldown: 8, Probes: 2, Segment: 8,
		})
		m := NewResilientMeter(fallibleFunc(func(_ context.Context, row int) (bool, error) {
			if row >= 10 && row < 30 {
				return false, errors.New("down")
			}
			return true, nil
		}), nil, b, nil)
		v, f, err := EvalRowsResilient(context.Background(), exec.NewPool(workers), rows, m)
		if err != nil {
			t.Fatal(err)
		}
		return v, f, b.Trips()
	}
	v1, f1, trips1 := run(1)
	v8, f8, trips8 := run(8)
	if trips1 == 0 {
		t.Fatal("breaker never tripped — the scenario is miscalibrated")
	}
	if trips1 != trips8 {
		t.Fatalf("trips differ across parallelism: %d vs %d", trips1, trips8)
	}
	for i := range rows {
		if v1[i] != v8[i] || f1[i] != f8[i] {
			t.Fatalf("row %d differs across parallelism: (%v,%v) vs (%v,%v)", i, v1[i], f1[i], v8[i], f8[i])
		}
	}
	// Healthy prefix evaluated normally.
	for i := 0; i < 10; i++ {
		if !v1[i] || f1[i] {
			t.Fatalf("healthy row %d: (%v, %v)", i, v1[i], f1[i])
		}
	}
	// Every row in the failure run is excluded, one way or the other.
	for i := 10; i < 30; i++ {
		if v1[i] || !f1[i] {
			t.Fatalf("failing row %d: (%v, %v), want failed", i, v1[i], f1[i])
		}
	}
}
