package analysis

import (
	"go/types"
	"path/filepath"
	"strings"
	"testing"
)

func TestExhaustiveFixture(t *testing.T) {
	dir := filepath.Join("testdata", "src", "exhaustive")
	spec := EnumSpec{TypePath: "exhaustive.Reason", Sentinels: []string{"NumReasons"}}
	RunFixture(t, dir, "exhaustive", Exhaustive([]EnumSpec{spec}))
}

// TestBarbicanEnumConfig: the enforced set keeps its core taxonomies,
// and every entry resolves in the module to a defined type with at
// least one constant to cover and every sentinel it names. The gate
// skips a type that no package defines, so a stale entry would
// otherwise pass in silence.
func TestBarbicanEnumConfig(t *testing.T) {
	want := map[string]bool{
		"barbican/internal/obs/tracing.DropReason": true,
		"barbican/internal/fw/sem.FindingKind":     true,
		"barbican/internal/nic.FailMode":           true,
		"barbican/internal/nic.DegradedState":      true,
	}
	for _, spec := range BarbicanEnums {
		delete(want, spec.TypePath)
	}
	for missing := range want {
		t.Errorf("BarbicanEnums is missing %s", missing)
	}

	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	modPath, err := ModulePath(root)
	if err != nil {
		t.Fatal(err)
	}
	l := NewLoader()
	l.SetModule(root, modPath)
	for _, spec := range BarbicanEnums {
		dot := strings.LastIndex(spec.TypePath, ".")
		pkgPath, typeName := spec.TypePath[:dot], spec.TypePath[dot+1:]
		rel, ok := strings.CutPrefix(pkgPath, modPath+"/")
		if !ok {
			t.Errorf("%s: not a package of module %s", spec.TypePath, modPath)
			continue
		}
		pkg, err := l.Load(filepath.Join(root, filepath.FromSlash(rel)), pkgPath)
		if err != nil {
			t.Errorf("%s: %v", spec.TypePath, err)
			continue
		}
		tn, ok := pkg.Types.Scope().Lookup(typeName).(*types.TypeName)
		if !ok || tn.IsAlias() {
			t.Errorf("%s: %s defines no such type", spec.TypePath, pkgPath)
			continue
		}
		if _, _, ok := enumConstants(&Pass{Pkg: pkg}, spec); !ok {
			t.Errorf("%s: no non-sentinel constant of the type", spec.TypePath)
		}
		for _, name := range spec.Sentinels {
			c, ok := pkg.Types.Scope().Lookup(name).(*types.Const)
			if !ok || !types.Identical(c.Type(), tn.Type()) {
				t.Errorf("%s: sentinel %s is not a constant of the type", spec.TypePath, name)
			}
		}
	}
}
