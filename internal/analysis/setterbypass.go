package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// A SetterSpec names one struct field whose writes must all funnel
// through a designated setter method on the same type. The analyzer
// flags any other assignment to the field — the "setter bypass" that
// silently breaks whatever invariant the setter maintains.
type SetterSpec struct {
	// TypePath is the fully qualified struct type, "import/path.TypeName".
	TypePath string
	// Field is the guarded field's name.
	Field string
	// Setter is the only method allowed to assign the field.
	Setter string
	// Reason, when set, names the invariant the setter maintains; it
	// is folded into the finding message so a bypass report explains
	// what the direct write would break.
	Reason string
}

// BarbicanSetters is the repository's enforced setter contracts, all
// guarding the same invariant from different angles: the per-flow
// verdict cache must never outlive the state that produced its
// verdicts. The NIC's active rule set may change only through setRules,
// and its conntrack table only through setConntrack — cached verdicts
// are keyed by the conn-state classification the old table produced, so
// swapping the table without flushing the cache serves stale state.
var BarbicanSetters = []SetterSpec{
	{TypePath: "barbican/internal/nic.NIC", Field: "rules", Setter: "setRules",
		Reason: "invalidates the flow cache"},
	{TypePath: "barbican/internal/nic.NIC", Field: "ct", Setter: "setConntrack",
		Reason: "invalidates the flow cache, whose verdicts are keyed by the old table's conn-state classification"},
}

// Setterbypass returns the analyzer that enforces setter contracts:
// every assignment to a guarded field outside its designated setter
// method is a finding (//barbican:allow setterbypass documents any
// deliberate exception, with a reason).
func Setterbypass(specs []SetterSpec) *Analyzer {
	return &Analyzer{
		Name: "setterbypass",
		Doc:  "flag direct writes to setter-guarded struct fields outside their designated setter",
		Run: func(pass *Pass) error {
			for _, spec := range specs {
				checkSetterSpec(pass, spec)
			}
			return nil
		},
	}
}

// checkSetterSpec flags writes to the spec's field in this package.
// Packages that cannot see the guarded type are skipped; in practice
// only the defining package can write an unexported field at all.
func checkSetterSpec(pass *Pass, spec SetterSpec) {
	named := lookupNamed(pass, spec.TypePath)
	if named == nil {
		return
	}
	field := structField(named, spec.Field)
	if field == nil {
		return
	}
	for _, f := range pass.Files() {
		// The setter's declaration ranges in this file; assignments
		// inside them (including in function literals the setter
		// defines) are the sanctioned writes.
		var setters []*ast.FuncDecl
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && isMethodOn(pass, fd, named, spec.Setter) {
				setters = append(setters, fd)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			for _, lhs := range as.Lhs {
				pos, ok := guardedFieldWrite(pass, lhs, field)
				if !ok || insideAny(pos, setters) {
					continue
				}
				why := spec.Reason
				if why == "" {
					why = "maintains an invariant the direct write skips"
				}
				pass.Reportf(pos,
					"direct write to %s.%s bypasses %s, which %s; call the setter or //barbican:allow setterbypass with a reason",
					named.Obj().Name(), spec.Field, spec.Setter, why)
			}
			return true
		})
	}
}

// lookupNamed resolves "import/path.TypeName" against the pass's
// package and its imports, returning nil when the type is not visible
// from this package.
func lookupNamed(pass *Pass, typePath string) *types.Named {
	dot := strings.LastIndex(typePath, ".")
	if dot < 0 || pass.Types() == nil {
		return nil
	}
	pkgPath, typeName := typePath[:dot], typePath[dot+1:]
	var defPkg *types.Package
	if pass.Types().Path() == pkgPath {
		defPkg = pass.Types()
	} else {
		for _, imp := range pass.Types().Imports() {
			if imp.Path() == pkgPath {
				defPkg = imp
				break
			}
		}
	}
	if defPkg == nil {
		return nil
	}
	tn, ok := defPkg.Scope().Lookup(typeName).(*types.TypeName)
	if !ok {
		return nil
	}
	named, ok := tn.Type().(*types.Named)
	if !ok {
		return nil
	}
	return named
}

// structField returns the named type's direct struct field, nil if the
// underlying type is not a struct or has no such field.
func structField(named *types.Named, name string) *types.Var {
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return nil
	}
	for i := 0; i < st.NumFields(); i++ {
		if f := st.Field(i); f.Name() == name {
			return f
		}
	}
	return nil
}

// guardedFieldWrite reports whether lhs selects exactly the guarded
// field (object identity, so embedding-promoted selections of the same
// field still match) and returns the position to report.
func guardedFieldWrite(pass *Pass, lhs ast.Expr, field *types.Var) (token.Pos, bool) {
	sel, ok := lhs.(*ast.SelectorExpr)
	if !ok {
		return token.NoPos, false
	}
	s, ok := pass.Info().Selections[sel]
	if !ok || s.Kind() != types.FieldVal || s.Obj() != field {
		return token.NoPos, false
	}
	return sel.Pos(), true
}

// isMethodOn reports whether fd declares the named method on the given
// type (value or pointer receiver).
func isMethodOn(pass *Pass, fd *ast.FuncDecl, named *types.Named, name string) bool {
	if fd.Name.Name != name || fd.Recv == nil {
		return false
	}
	fn, ok := pass.Info().Defs[fd.Name].(*types.Func)
	if !ok {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	rn, ok := t.(*types.Named)
	return ok && rn.Obj() == named.Obj()
}

// insideAny reports whether pos falls within any of the declarations.
func insideAny(pos token.Pos, decls []*ast.FuncDecl) bool {
	for _, d := range decls {
		if within(pos, d) {
			return true
		}
	}
	return false
}
