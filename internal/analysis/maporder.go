package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// BarbicanSchedulers names the types through which a call schedules
// simulator events: the kernel itself and the host, whose stack,
// sockets and card all run on it. A map range that hands either to a
// call lets the iteration order decide event order.
var BarbicanSchedulers = []string{
	"barbican/internal/sim.Kernel",
	"barbican/internal/stack.Host",
}

// Maporder returns the analyzer for the classic nondeterminism leak:
// ranging over a map and letting the iteration order escape — by
// appending to a slice that outlives the loop, by writing output from
// inside the body, or by making a call whose receiver or an argument
// is one of the scheduler types (fully qualified "import/path.Type",
// as a value or a pointer): such a call may schedule simulator events,
// so the iteration order becomes event order. Go randomizes map
// iteration per process, so any such path breaks the byte-identical
// artifact contract.
//
// The analyzer understands the standard repair: if the slice the loop
// fills is passed to a sort (sort.*, slices.Sort*, or any local
// helper whose name contains "sort") later in the same function, the
// order was laundered and the loop is fine. Writes from inside the
// body have no such repair — the bytes are already out — so they are
// always flagged, as are scheduler calls (//barbican:allow maporder
// documents the exceptions, e.g. an order-free aggregate or a getter).
func Maporder(schedulers []string) *Analyzer {
	sched := make(map[string]bool, len(schedulers))
	for _, s := range schedulers {
		sched[s] = true
	}
	return &Analyzer{
		Name: "maporder",
		Doc:  "flag map iteration whose order escapes into slices, output or scheduled simulator events without a sort",
		Run:  func(pass *Pass) error { return runMaporder(pass, sched) },
	}
}

func runMaporder(pass *Pass, sched map[string]bool) error {
	for _, f := range pass.Files() {
		parents := buildParents(f)
		ast.Inspect(f, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			tv, ok := pass.Info().Types[rs.X]
			if !ok {
				return true
			}
			if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
				return true
			}
			checkMapRange(pass, rs, parents, sched)
			return true
		})
	}
	return nil
}

func checkMapRange(pass *Pass, rs *ast.RangeStmt, parents map[ast.Node]ast.Node, sched map[string]bool) {
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.RangeStmt:
			// Nested map ranges report on their own.
			if n != rs {
				if tv, ok := pass.Info().Types[n.X]; ok {
					if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
						return false
					}
				}
			}
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				call, ok := rhs.(*ast.CallExpr)
				if !ok || !isBuiltinAppend(pass, call) || i >= len(n.Lhs) {
					continue
				}
				id, ok := n.Lhs[i].(*ast.Ident)
				if !ok {
					continue
				}
				obj := pass.Info().ObjectOf(id)
				if obj == nil || within(obj.Pos(), rs) {
					continue // loop-local accumulation dies with the loop
				}
				if sortedAfter(pass, rs, obj, parents) {
					continue
				}
				pass.Reportf(n.Pos(),
					"map iteration order escapes into %q, which is never sorted afterwards in this function; sort it or //barbican:allow maporder with a reason",
					id.Name)
			}
		case *ast.CallExpr:
			if name, ok := writerCall(pass, n); ok {
				pass.Reportf(n.Pos(),
					"%s inside a map range writes output in iteration order; collect and sort first, or //barbican:allow maporder with a reason",
					name)
			}
			if typ, ok := schedulerCall(pass, n, sched); ok {
				pass.Reportf(n.Pos(),
					"call %s inside a map range is handed a %s, so iteration order can become simulator event order; range over a fixed order, or //barbican:allow maporder with a reason",
					types.ExprString(n.Fun), typ)
			}
		}
		return true
	})
}

// isBuiltinAppend reports whether call invokes the append builtin.
func isBuiltinAppend(pass *Pass, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := pass.Info().Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}

// writerCall reports whether call is an output write (fmt.Fprint*,
// fmt.Print*, or a Write*/Print* method) and names it for the report.
func writerCall(pass *Pass, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	name := sel.Sel.Name
	writer := strings.HasPrefix(name, "Write") || strings.HasPrefix(name, "Print") || strings.HasPrefix(name, "Fprint")
	if !writer {
		return "", false
	}
	if isPackageRef(pass, sel.X, "fmt") || isPackageRef(pass, sel.X, "os") {
		return "fmt-style call " + name, true
	}
	// A method named Write*/Print* on any value (strings.Builder,
	// io.Writer, exporters).
	if _, isMethod := pass.Info().Selections[sel]; isMethod {
		return "call to method " + name, true
	}
	return "", false
}

// schedulerCall reports whether call's method receiver or one of its
// arguments has a scheduler type, and names that type for the report.
func schedulerCall(pass *Pass, call *ast.CallExpr, sched map[string]bool) (string, bool) {
	exprs := call.Args
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if _, isMethod := pass.Info().Selections[sel]; isMethod {
			exprs = append([]ast.Expr{sel.X}, exprs...)
		}
	}
	for _, e := range exprs {
		tv, ok := pass.Info().Types[e]
		if !ok {
			continue
		}
		t := tv.Type
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		named, ok := t.(*types.Named)
		if !ok || named.Obj().Pkg() == nil {
			continue
		}
		if name := named.Obj().Pkg().Path() + "." + named.Obj().Name(); sched[name] {
			return types.TypeString(tv.Type, nil), true
		}
	}
	return "", false
}

// sortedAfter reports whether obj is passed to a sorting call in any
// statement that follows the range loop inside its enclosing blocks,
// up to the function boundary.
func sortedAfter(pass *Pass, rs *ast.RangeStmt, obj types.Object, parents map[ast.Node]ast.Node) bool {
	var child ast.Node = rs
	for node := parents[rs]; node != nil; node = parents[node] {
		if stmts := blockStmts(node); stmts != nil {
			after := false
			for _, s := range stmts {
				if after && containsSortOf(pass, s, obj) {
					return true
				}
				if s == child {
					after = true
				}
			}
		}
		if _, isFunc := node.(*ast.FuncDecl); isFunc {
			return false
		}
		if _, isFunc := node.(*ast.FuncLit); isFunc {
			return false
		}
		child = node
	}
	return false
}

// blockStmts returns the statement list of block-like nodes.
func blockStmts(n ast.Node) []ast.Stmt {
	switch n := n.(type) {
	case *ast.BlockStmt:
		return n.List
	case *ast.CaseClause:
		return n.Body
	case *ast.CommClause:
		return n.Body
	}
	return nil
}

// containsSortOf reports whether the statement contains a sorting call
// that references obj: a call into package sort or slices, or a call
// to anything whose name mentions "sort" (local helpers).
func containsSortOf(pass *Pass, stmt ast.Stmt, obj types.Object) bool {
	found := false
	ast.Inspect(stmt, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || found {
			return !found
		}
		if !isSortingCallee(pass, call.Fun) {
			return true
		}
		for _, arg := range call.Args {
			if mentionsObject(pass, arg, obj) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

func isSortingCallee(pass *Pass, fun ast.Expr) bool {
	switch fun := fun.(type) {
	case *ast.SelectorExpr:
		if isPackageRef(pass, fun.X, "sort") || isPackageRef(pass, fun.X, "slices") {
			return true
		}
		return strings.Contains(strings.ToLower(fun.Sel.Name), "sort")
	case *ast.Ident:
		return strings.Contains(strings.ToLower(fun.Name), "sort")
	}
	return false
}

func mentionsObject(pass *Pass, expr ast.Expr, obj types.Object) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && pass.Info().ObjectOf(id) == obj {
			found = true
		}
		return !found
	})
	return found
}

// within reports whether pos falls inside node's source range.
func within(pos token.Pos, node ast.Node) bool {
	return node.Pos() <= pos && pos < node.End()
}

// buildParents maps every node in f to its parent.
func buildParents(f *ast.File) map[ast.Node]ast.Node {
	parents := make(map[ast.Node]ast.Node)
	var stack []ast.Node
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
	return parents
}
