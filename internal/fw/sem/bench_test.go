package sem

import (
	"fmt"
	"math/rand"
	"testing"

	"barbican/internal/fw"
)

// BenchmarkSemEquiv tracks the cost of an exhaustive equivalence proof
// over the paper's experimental rule-set shape (depth-1 pad rules plus
// the action rule) at the Fig. 2 sweep's low and high depths. Exact
// verification runs at policy-push time when enabled, so its cost is a
// hot path like any other and regresses through the bench gate.
func BenchmarkSemEquiv(b *testing.B) {
	for _, depth := range []int{64, 512} {
		b.Run(fmt.Sprintf("depth%d", depth), func(b *testing.B) {
			mk := func() *fw.RuleSet {
				rs, err := fw.DepthRuleSet(fw.Deny, depth, 0, fw.AllowAllRule())
				if err != nil {
					b.Fatal(err)
				}
				return rs
			}
			v1, v2 := mk(), mk()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := Diff(v1, v2, DiffOptions{StrictIndex: true})
				if err != nil {
					b.Fatal(err)
				}
				if !res.Equivalent {
					b.Fatal("identical depth sets reported inequivalent")
				}
			}
		})
	}
}

// BenchmarkSemVerifyCompiled tracks the exhaustive compiled-vs-walk
// proof at the same depths.
func BenchmarkSemVerifyCompiled(b *testing.B) {
	for _, depth := range []int{64, 512} {
		b.Run(fmt.Sprintf("depth%d", depth), func(b *testing.B) {
			rs, err := fw.DepthRuleSet(fw.Deny, depth, 0, fw.AllowAllRule())
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := VerifyCompiled(rs, VerifyOptions{})
				if err != nil {
					b.Fatal(err)
				}
				if !res.OK() {
					b.Fatalf("proof failed: %+v", res)
				}
			}
		})
	}
}

// BenchmarkLint tracks the single lint walk on the paper's depth sets
// and on a generated set whose contested boundaries make the region
// decomposition wide.
func BenchmarkLint(b *testing.B) {
	for _, depth := range []int{64, 512} {
		b.Run(fmt.Sprintf("depth%d", depth), func(b *testing.B) {
			rs, err := fw.DepthRuleSet(fw.Deny, depth, 0, fw.AllowAllRule())
			if err != nil {
				b.Fatal(err)
			}
			benchLint(b, rs)
		})
	}
	b.Run("generate128", func(b *testing.B) {
		benchLint(b, Generate(rand.New(rand.NewSource(1)), GenOptions{Rules: 128}))
	})
}

func benchLint(b *testing.B, rs *fw.RuleSet) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Lint(rs, 16)
	}
}
