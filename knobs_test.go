package barbican_test

import (
	"bytes"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"unicode"
)

var update = flag.Bool("update", false, "rewrite testdata/knobs.golden and testdata/metrics.golden")

// knobStruct reports whether an exported type name is one of the
// configuration shapes whose fields are settable values: a *Config,
// *Options or *Scenario struct, or a Profile.
func knobStruct(name string) bool {
	return ast.IsExported(name) && (name == "Profile" ||
		strings.HasSuffix(name, "Config") ||
		strings.HasSuffix(name, "Options") ||
		strings.HasSuffix(name, "Scenario"))
}

// setter reports whether an exported method name is a setter: Set
// followed by an upper-case letter (SetTracer, not Setup).
func setter(name string) bool {
	return strings.HasPrefix(name, "Set") && len(name) > 3 && unicode.IsUpper(rune(name[3]))
}

// knobInventory lists every field of every knob struct in the
// module's production Go — test files, testdata and the separate
// perfbench module excluded — as "<dir>.<Type>.<Field>", and every
// setter method of an exported type as "<dir>.<Type>.<Method>()",
// sorted.
func knobInventory(root string) ([]string, error) {
	var knobs []string
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (strings.HasPrefix(name, ".") || name == "testdata" || name == "perfbench") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok {
				if fn.Recv != nil && setter(fn.Name.Name) {
					if recv := embeddedName(fn.Recv.List[0].Type); ast.IsExported(recv) {
						knobs = append(knobs, fmt.Sprintf("%s.%s.%s()", dir, recv, fn.Name.Name))
					}
				}
				continue
			}
			gen, ok := decl.(*ast.GenDecl)
			if !ok || gen.Tok != token.TYPE {
				continue
			}
			for _, spec := range gen.Specs {
				ts := spec.(*ast.TypeSpec)
				st, ok := ts.Type.(*ast.StructType)
				if !ok || !knobStruct(ts.Name.Name) {
					continue
				}
				for _, field := range st.Fields.List {
					names := field.Names
					if len(names) == 0 { // embedded: the field is named by its type
						names = []*ast.Ident{{Name: embeddedName(field.Type)}}
					}
					for _, n := range names {
						knobs = append(knobs, fmt.Sprintf("%s.%s.%s", dir, ts.Name.Name, n.Name))
					}
				}
			}
		}
		return nil
	})
	sort.Strings(knobs)
	return knobs, err
}

// embeddedName names an embedded field or a method receiver by its
// type, without package or pointer.
func embeddedName(e ast.Expr) string {
	switch t := e.(type) {
	case *ast.StarExpr:
		return embeddedName(t.X)
	case *ast.SelectorExpr:
		return t.Sel.Name
	case *ast.Ident:
		return t.Name
	}
	return fmt.Sprintf("%T", e)
}

// TestKnobInventory pins the settable values of the production code:
// every field of an exported *Config, *Options, *Scenario or Profile
// struct, and every Set* method of an exported type. A new knob, or one that goes, shows up as a diff against
// testdata/knobs.golden; `go test -run TestKnobInventory . -update`
// rewrites it, and `wc -l testdata/knobs.golden` counts them.
func TestKnobInventory(t *testing.T) {
	knobs, err := knobInventory(".")
	if err != nil {
		t.Fatal(err)
	}
	got := []byte(strings.Join(knobs, "\n") + "\n")
	golden := filepath.Join("testdata", "knobs.golden")
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("knob inventory differs from %s (rerun with -update after a deliberate change):\n%s",
			golden, lineDiff(string(want), string(got)))
	}
	t.Logf("%d settable values", len(knobs))
}

// lineDiff lists the lines only in want (-) and only in got (+).
func lineDiff(want, got string) string {
	in := func(s string) map[string]bool {
		m := map[string]bool{}
		for _, l := range strings.Split(strings.TrimSpace(s), "\n") {
			m[l] = true
		}
		return m
	}
	w, g := in(want), in(got)
	var b strings.Builder
	for _, l := range strings.Split(strings.TrimSpace(want), "\n") {
		if !g[l] {
			fmt.Fprintf(&b, "- %s\n", l)
		}
	}
	for _, l := range strings.Split(strings.TrimSpace(got), "\n") {
		if !w[l] {
			fmt.Fprintf(&b, "+ %s\n", l)
		}
	}
	return b.String()
}
