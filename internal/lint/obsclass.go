package lint

import (
	"go/ast"
	"go/types"
)

// ObsClass enforces the deterministic/runtime observability class split from
// PR 5 structurally: a value derived from the runtime class — obs.Now(),
// Gauge.Value(), trace Span.Duration(), or the Value() of a handle created by
// Registry.RuntimeCounter/RuntimeHistogram — must never flow into the
// arguments of a deterministic-class sink (Counter.Add / Histogram.Observe
// on a handle created by Registry.Counter/Histogram).
// Deterministic counters are the Snapshot surface whose bytes must be
// bit-identical across runs and worker counts; one wall-clock-derived
// increment silently breaks that contract for every consumer.
//
// The analysis is intraprocedural and taint-style: handles are classified by
// their creation call inside the function (det: r.Counter/r.Histogram;
// runtime: r.RuntimeCounter/r.RuntimeHistogram), taint seeds at runtime-class
// reads and propagates through assignments to fixpoint, and sink arguments
// are checked for taint. Handles that arrive as parameters or live in struct
// fields are unclassified and therefore not sinks — a deliberate
// false-negative bias that keeps the rule quiet on code it cannot prove
// wrong. Taint does cross closure boundaries within one declaration, since
// closures share the enclosing scope.
var ObsClass = &Analyzer{
	Name: "obsclass",
	Doc:  "runtime-class observability values (obs.Now, gauges, runtime counters) must not flow into deterministic-class Counter.Add/Histogram.Observe",
	Run:  runObsClass,
}

func runObsClass(pass *Pass) {
	if !isInternalPkg(pass) {
		return
	}
	for _, file := range pass.Files {
		if pass.IsTestFile(file.Pos()) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			fn, ok := n.(*ast.FuncDecl)
			if ok && fn.Body != nil {
				checkObsFlow(pass, fn.Body)
			}
			return true
		})
	}
}

// obsHandles classifies Counter/Histogram handles created in this body by
// the Registry method that made them.
type obsHandles struct {
	det     map[types.Object]bool // r.Counter / r.Histogram results
	runtime map[types.Object]bool // r.RuntimeCounter / r.RuntimeHistogram results
}

func checkObsFlow(pass *Pass, body *ast.BlockStmt) {
	h := classifyHandles(pass, body)
	tainted := taintFixpoint(pass, body, h)
	// Sink check: deterministic-handle Add/Observe whose argument carries
	// runtime taint.
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, recv := obsMethod(pass, call)
		if sel == "" {
			return true
		}
		isSink := (sel == "Add" || sel == "Observe") &&
			(isObsType(pass, recv, "Counter") || isObsType(pass, recv, "Histogram"))
		if !isSink {
			return true
		}
		base := baseIdent(call.Fun.(*ast.SelectorExpr).X)
		if base == nil || !h.det[identObj(pass, base)] {
			return true // unclassified or runtime handle: not a det sink
		}
		for _, arg := range call.Args {
			if exprRuntimeTainted(pass, arg, h, tainted) {
				pass.Reportf(arg.Pos(), "runtime-class observability value flows into deterministic counter/histogram %s.%s; deterministic snapshots must stay bit-identical across runs — record it on a Runtime* handle instead", base.Name, sel)
			}
		}
		return true
	})
}

// classifyHandles finds `c := r.Counter(...)`-style bindings and sorts them
// into deterministic vs runtime class by the Registry method name.
func classifyHandles(pass *Pass, body *ast.BlockStmt) *obsHandles {
	h := &obsHandles{det: map[types.Object]bool{}, runtime: map[types.Object]bool{}}
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			call, ok := rhs.(*ast.CallExpr)
			if !ok {
				continue
			}
			sel, recv := obsMethod(pass, call)
			if !isObsType(pass, recv, "Registry") {
				continue
			}
			id, ok := as.Lhs[i].(*ast.Ident)
			if !ok {
				continue
			}
			obj := identObj(pass, id)
			if obj == nil {
				continue
			}
			switch sel {
			case "Counter", "Histogram":
				h.det[obj] = true
			case "RuntimeCounter", "RuntimeHistogram":
				h.runtime[obj] = true
			}
		}
		return true
	})
	return h
}

// taintFixpoint propagates runtime taint through assignments: any LHS whose
// RHS carries taint becomes tainted, to fixpoint.
func taintFixpoint(pass *Pass, body *ast.BlockStmt, h *obsHandles) map[types.Object]bool {
	tainted := map[types.Object]bool{}
	for changed := true; changed; {
		changed = false
		ast.Inspect(body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			for i, rhs := range as.Rhs {
				if i >= len(as.Lhs) || !exprRuntimeTainted(pass, rhs, h, tainted) {
					continue
				}
				base := baseIdent(as.Lhs[i])
				if base == nil || base.Name == "_" {
					continue
				}
				obj := identObj(pass, base)
				if obj != nil && !tainted[obj] {
					tainted[obj] = true
					changed = true
				}
			}
			return true
		})
	}
	return tainted
}

// exprRuntimeTainted reports whether evaluating expr can observe a
// runtime-class value: a tainted identifier, obs.Now(), Gauge.Value(),
// trace Span.Duration(), or Value() on a runtime-classified handle.
func exprRuntimeTainted(pass *Pass, expr ast.Expr, h *obsHandles, tainted map[types.Object]bool) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.Ident:
			if tainted[identObj(pass, e)] {
				found = true
			}
		case *ast.CallExpr:
			if isRuntimeSourceCall(pass, e, h) {
				found = true
			}
		}
		return !found
	})
	return found
}

// isRuntimeSourceCall reports whether call reads the runtime observability
// class.
func isRuntimeSourceCall(pass *Pass, call *ast.CallExpr, h *obsHandles) bool {
	// obs.Now() — the module's one wall-clock seam.
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if pkg, ok := sel.X.(*ast.Ident); ok && sel.Sel.Name == "Now" {
			if obj := identObj(pass, pkg); obj != nil {
				if pn, ok := obj.(*types.PkgName); ok && pn.Imported().Path() == pass.Module+"/internal/obs" {
					return true
				}
			}
		}
	}
	sel, recv := obsMethod(pass, call)
	switch {
	case sel == "Value" && isObsType(pass, recv, "Gauge"):
		return true
	case sel == "Duration" && isTraceType(pass, recv, "Span"):
		// A trace span's wall-clock duration is runtime-class by
		// construction; it may never feed a deterministic sink.
		return true
	case sel == "Quantile" && isObsType(pass, recv, "Histogram"):
		// Quantile estimates are interpolated float reads meant for latency
		// reporting — runtime-class by definition, whatever the handle's
		// class, so they may never feed a deterministic sink.
		return true
	case sel == "Value" && (isObsType(pass, recv, "Counter") || isObsType(pass, recv, "Histogram")):
		// Runtime-classified handle reads are tainted; det and unclassified
		// reads are not.
		if s, ok := call.Fun.(*ast.SelectorExpr); ok {
			if base := baseIdent(s.X); base != nil {
				return h.runtime[identObj(pass, base)]
			}
		}
	}
	return false
}

// obsMethod returns the selector name and receiver type if call is a method
// call; otherwise ("", nil).
func obsMethod(pass *Pass, call *ast.CallExpr) (string, types.Type) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", nil
	}
	return sel.Sel.Name, exprType(pass, sel.X)
}

// isObsType reports whether t is <module>/internal/obs.<name>.
func isObsType(pass *Pass, t types.Type, name string) bool {
	return isModuleType(pass, t, "/internal/obs", name)
}
