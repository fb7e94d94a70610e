package analysis

import (
	"go/ast"
	"go/constant"
	"go/types"
	"sort"
	"strings"
)

// EnumSpec names one enum type whose constant set must be handled
// exhaustively wherever the code switches over it or builds a keyed
// table from it.
type EnumSpec struct {
	// TypePath is the fully qualified type, "import/path.TypeName".
	TypePath string
	// Sentinels lists constant names excluded from the coverage
	// requirement (array-sizing markers like NumDropReasons).
	Sentinels []string
}

// BarbicanEnums is the repository's enforced taxonomy set: the drop
// reasons behind the nic_drops_total aggregates and Fig. 3 flood
// accounting, the firewall linter's finding kinds, the NIC's
// degraded-mode fail policy and state machine, and the conntrack
// taxonomies (TCP states, eviction policies, commit outcomes, the
// firewall's connection states, and the degraded-recovery policy for
// orphaned state). A constant added to any of these enums without
// updating every switch and export table fails the lint gate instead
// of silently vanishing from artifacts.
var BarbicanEnums = []EnumSpec{
	{TypePath: "barbican/internal/obs/tracing.DropReason", Sentinels: []string{"NumDropReasons"}},
	{TypePath: "barbican/internal/fw/sem.FindingKind", Sentinels: nil},
	{TypePath: "barbican/internal/fw.ConnState", Sentinels: []string{"NumConnStates"}},
	{TypePath: "barbican/internal/nic.FailMode", Sentinels: []string{"NumFailModes"}},
	{TypePath: "barbican/internal/nic.MatchPath", Sentinels: []string{"NumMatchPaths"}},
	{TypePath: "barbican/internal/nic.DegradedState", Sentinels: []string{"NumDegradedStates"}},
	{TypePath: "barbican/internal/nic.StateRecovery", Sentinels: []string{"NumStateRecoveries"}},
	{TypePath: "barbican/internal/nic/conntrack.TCPState", Sentinels: []string{"NumTCPStates"}},
	{TypePath: "barbican/internal/nic/conntrack.EvictPolicy", Sentinels: []string{"NumEvictPolicies"}},
	{TypePath: "barbican/internal/nic/conntrack.CommitStatus", Sentinels: []string{"NumCommitStatuses"}},
	{TypePath: "barbican/internal/obs/profile.Phase", Sentinels: []string{"NumPhases"}},
	{TypePath: "barbican/internal/telemetry.AlertState", Sentinels: []string{"NumAlertStates"}},
	{TypePath: "barbican/internal/fw/sem.RegionClass", Sentinels: []string{"NumRegionClasses"}},
}

// Exhaustive returns the analyzer that enforces full constant coverage
// for the given enums in two syntactic shapes:
//
//   - switch statements whose tag has the enum type. A switch without
//     a default clause is always checked; one with a default is only
//     checked when annotated //barbican:exhaustive (fallback-rendering
//     switches like String methods opt in so new constants cannot hide
//     behind the default).
//   - keyed composite literals (arrays, slices, maps) indexed by the
//     enum's constants — the export-table shape. Any literal using at
//     least one enum constant as a key must use them all.
func Exhaustive(enums []EnumSpec) *Analyzer {
	return &Analyzer{
		Name: "exhaustive",
		Doc:  "require switches and keyed tables over taxonomy enums to handle every constant",
		Run: func(pass *Pass) error {
			for _, spec := range enums {
				checkEnum(pass, spec)
			}
			return nil
		},
	}
}

// enumConstants resolves the spec against the pass's package and its
// imports, returning the enum's named type and its non-sentinel
// constants in value order. Packages that never import the enum's
// package return ok=false and are skipped.
func enumConstants(pass *Pass, spec EnumSpec) (types.Type, []*types.Const, bool) {
	dot := strings.LastIndex(spec.TypePath, ".")
	if dot < 0 || pass.Types() == nil {
		return nil, nil, false
	}
	pkgPath, typeName := spec.TypePath[:dot], spec.TypePath[dot+1:]

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
		return nil, nil, false
	}
	tn, ok := defPkg.Scope().Lookup(typeName).(*types.TypeName)
	if !ok {
		return nil, nil, false
	}
	sentinel := make(map[string]bool, len(spec.Sentinels))
	for _, s := range spec.Sentinels {
		sentinel[s] = true
	}
	var consts []*types.Const
	scope := defPkg.Scope()
	for _, name := range scope.Names() {
		c, ok := scope.Lookup(name).(*types.Const)
		if !ok || sentinel[name] || !types.Identical(c.Type(), tn.Type()) {
			continue
		}
		consts = append(consts, c)
	}
	sort.Slice(consts, func(i, j int) bool {
		vi, _ := constant.Int64Val(consts[i].Val())
		vj, _ := constant.Int64Val(consts[j].Val())
		if vi != vj {
			return vi < vj
		}
		return consts[i].Name() < consts[j].Name()
	})
	return tn.Type(), consts, len(consts) > 0
}

func checkEnum(pass *Pass, spec EnumSpec) {
	enumType, consts, ok := enumConstants(pass, spec)
	if !ok {
		return
	}
	for _, f := range pass.Files() {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SwitchStmt:
				checkSwitch(pass, spec, enumType, consts, n)
			case *ast.CompositeLit:
				checkKeyedLiteral(pass, spec, enumType, consts, n)
			}
			return true
		})
	}
}

func checkSwitch(pass *Pass, spec EnumSpec, enumType types.Type, consts []*types.Const, sw *ast.SwitchStmt) {
	if sw.Tag == nil {
		return
	}
	tv, ok := pass.Info().Types[sw.Tag]
	if !ok || !types.Identical(tv.Type, enumType) {
		return
	}
	covered := make(map[string]bool)
	hasDefault := false
	for _, stmt := range sw.Body.List {
		cc, ok := stmt.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			hasDefault = true
			continue
		}
		for _, expr := range cc.List {
			if c := constObject(pass, expr); c != nil {
				covered[c.Name()] = true
			}
		}
	}
	if hasDefault && !pass.Annotated(sw.Pos(), "exhaustive") {
		return
	}
	if missing := missingNames(consts, covered); len(missing) != 0 {
		pass.Reportf(sw.Pos(), "switch over %s is missing cases: %s",
			spec.TypePath, strings.Join(missing, ", "))
	}
}

func checkKeyedLiteral(pass *Pass, spec EnumSpec, enumType types.Type, consts []*types.Const, lit *ast.CompositeLit) {
	covered := make(map[string]bool)
	enumKeys := 0
	for _, elt := range lit.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		c := constObject(pass, kv.Key)
		if c == nil || !types.Identical(c.Type(), enumType) {
			continue
		}
		enumKeys++
		covered[c.Name()] = true
	}
	if enumKeys == 0 {
		return
	}
	if missing := missingNames(consts, covered); len(missing) != 0 {
		pass.Reportf(lit.Pos(), "table keyed by %s is missing entries: %s",
			spec.TypePath, strings.Join(missing, ", "))
	}
}

// constObject resolves an expression (ident or pkg.Sel) to the
// constant it names, or nil.
func constObject(pass *Pass, expr ast.Expr) *types.Const {
	var id *ast.Ident
	switch expr := expr.(type) {
	case *ast.Ident:
		id = expr
	case *ast.SelectorExpr:
		id = expr.Sel
	default:
		return nil
	}
	c, _ := pass.Info().Uses[id].(*types.Const)
	return c
}

func missingNames(consts []*types.Const, covered map[string]bool) []string {
	var missing []string
	for _, c := range consts {
		if !covered[c.Name()] {
			missing = append(missing, c.Name())
		}
	}
	return missing
}
