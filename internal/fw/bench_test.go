package fw

import (
	"fmt"
	"testing"

	"barbican/internal/packet"
)

// BenchmarkEvalByDepth is the paper's depth cliff in benchmark form:
// the linear walk's cost grows with the action rule's position, while
// the compiled matcher's stays ~flat (the "modern NIC" fast path). Both
// paths must hold 0 allocs/op.
func BenchmarkEvalByDepth(b *testing.B) {
	s := tcpSummary("10.0.0.1", "10.0.0.2", 4242, 80)
	for _, depth := range []int{1, 8, 64, 512} {
		rs, err := DepthRuleSet(Deny, depth, 0, AllowAllRule())
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("depth%d", depth), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if v := rs.Eval(s, In); v.Action != Allow {
					b.Fatal("unexpected deny")
				}
			}
		})
		c := Compile(rs)
		b.Run(fmt.Sprintf("compiled-depth%d", depth), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if v := c.EvalState(s, In, StateNone); v.Action != Allow {
					b.Fatal("unexpected deny")
				}
			}
		})
	}
}

// BenchmarkCompile prices the one-time compilation a policy install
// pays for depth-independent lookups.
func BenchmarkCompile(b *testing.B) {
	for _, depth := range []int{64, 512} {
		rs, err := DepthRuleSet(Deny, depth, 0, AllowAllRule())
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("depth%d", depth), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if Compile(rs) == nil {
					b.Fatal("nil compile")
				}
			}
		})
	}
}

func BenchmarkRuleMatch(b *testing.B) {
	r := Rule{
		Action: Allow, Direction: In, Proto: packet.ProtoTCP,
		Src: packet.MustPrefix("10.0.0.0/8"), Dst: packet.MustPrefix("10.0.0.2/32"),
		DstPorts: Ports(80, 90),
	}
	s := tcpSummary("10.0.0.1", "10.0.0.2", 4242, 85)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !r.Matches(s, In) {
			b.Fatal("no match")
		}
	}
}
