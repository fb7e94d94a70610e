package analysis

import (
	"path/filepath"
	"testing"
)

func TestExhaustiveFixture(t *testing.T) {
	dir := filepath.Join("testdata", "src", "exhaustive")
	spec := EnumSpec{TypePath: "exhaustive.Reason", Sentinels: []string{"NumReasons"}}
	RunFixture(t, dir, "exhaustive", Exhaustive([]EnumSpec{spec}))
}

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
}
