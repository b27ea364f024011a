package rules

import (
	"go/ast"
	"go/types"

	"repro/internal/lint"
	"repro/internal/lint/cfg"
)

// Batchalias enforces the PR 9 batch reuse contract
// (internal/engine/batch.go): a *Batch handed out by an operator's Next
// — and therefore its Rows/Sel selection vectors — is owned by the
// producer and valid only until the producer's next Next call. A
// consumer may borrow it for the duration of the call (iterate, pass
// down, evaluate) but may not retain it: no field or global stores, no
// channel sends, no appends of the slice value into longer-lived
// slices, no returns, no closure captures, no goroutine hand-offs.
// Retention must copy the rows first (append([]int(nil), b.Rows...)),
// which the escape lattice recognizes as laundering.
var Batchalias = &lint.Analyzer{
	Name: "batchalias",
	Doc: "a *Batch (or its row slices) obtained from a child operator's Next must not escape the call — " +
		"the producer reuses the backing arrays, so retained references go stale (PR 9 reuse contract)",
	Run: runBatchalias,
}

func runBatchalias(pass *lint.Pass) error {
	for _, f := range pass.Files {
		eachFunc(f, func(_ ast.Node, body *ast.BlockStmt) {
			if !mentionsNextCall(body) {
				return
			}
			g := cfg.New(body)
			escs := cfg.Escapes(g, cfg.TaintConfig{
				Info:   pass.Info,
				Seed:   func(call *ast.CallExpr) bool { return isBatchNextCall(pass.Info, call) },
				Tracks: isBatchCarrier,
			})
			for _, e := range escs {
				pass.Reportf(e.Pos,
					"batch obtained from a Next call escapes (%s): the producing operator reuses its "+
						"selection vector across Next calls, so the reference goes stale — copy the rows "+
						"first (append([]int(nil), b.Rows...)); see the reuse contract in internal/engine/batch.go",
					e.Kind)
			}
		})
	}
	return nil
}

// mentionsNextCall is a cheap pre-filter: only functions that call a
// .Next method can seed the analysis.
func mentionsNextCall(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Next" {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// isBatchNextCall matches a call to a method named Next whose first
// result is a pointer to a Batch-shaped struct (named Batch, with a
// Rows or Sel slice field). Matching on shape instead of the concrete
// engine type keeps the analyzer exercisable from testdata and immune
// to interface indirection.
func isBatchNextCall(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Next" {
		return false
	}
	t := info.TypeOf(call)
	if t == nil {
		return false
	}
	if tup, ok := t.(*types.Tuple); ok {
		if tup.Len() == 0 {
			return false
		}
		t = tup.At(0).Type()
	}
	return isBatchPtr(t)
}

func isBatchPtr(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	return isBatchStruct(ptr.Elem())
}

func isBatchStruct(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Name() != "Batch" {
		return false
	}
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if f.Name() != "Rows" && f.Name() != "Sel" {
			continue
		}
		if _, ok := f.Type().Underlying().(*types.Slice); ok {
			return true
		}
	}
	return false
}

// isBatchCarrier reports whether a type can hold (directly or
// transitively) a batch or one of its row slices: *Batch, Batch,
// integer slices (the selection vectors) and slices/pointers nesting
// them. Everything else — error results, scalars, strings — cannot
// carry taint, which keeps tuple assignments like `b, err := Next()`
// from poisoning err.
func isBatchCarrier(t types.Type) bool {
	switch u := t.(type) {
	case *types.Pointer:
		return isBatchCarrier(u.Elem())
	case *types.Named:
		if isBatchStruct(u) {
			return true
		}
		return isBatchCarrier(u.Underlying())
	case *types.Slice:
		if b, ok := u.Elem().Underlying().(*types.Basic); ok {
			return b.Info()&types.IsInteger != 0
		}
		return isBatchCarrier(u.Elem())
	case *types.Array:
		return isBatchCarrier(u.Elem())
	}
	return false
}
