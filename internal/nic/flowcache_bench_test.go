package nic

import (
	"fmt"
	"testing"

	"barbican/internal/fw"
	"barbican/internal/packet"
)

func benchSummary(srcLast byte, sport uint16) packet.Summary {
	return packet.Summary{
		Proto: packet.ProtoTCP,
		Src:   packet.IP{10, 0, 0, srcLast}, Dst: packet.IP{10, 0, 1, 1},
		SrcPort: sport, DstPort: 80, HasPorts: true, IPLen: 40,
	}
}

// BenchmarkFlowCache prices the two cache outcomes the NextGen cost
// model charges for: a hit (one index probe + counter replay — flat at
// any rule depth, 0 allocs/op) and a miss under churn (failed lookup +
// compiled eval + bounded insert with eviction, also 0 allocs/op).
func BenchmarkFlowCache(b *testing.B) {
	for _, depth := range []int{1, 64, 512} {
		rs, err := fw.DepthRuleSet(fw.Deny, depth, 0, fw.AllowAllRule())
		if err != nil {
			b.Fatal(err)
		}
		c := fw.Compile(rs)
		fc := newFlowCache(4096)
		s := benchSummary(1, 4242)
		fc.insert(s, fw.Out, fw.StateNone, c.EvalState(s, fw.Out, fw.StateNone))
		b.Run(fmt.Sprintf("hit-depth%d", depth), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				v, ok := fc.lookup(s, fw.Out, fw.StateNone)
				if !ok || v.Action != fw.Allow {
					b.Fatal("unexpected miss")
				}
				rs.Record(v)
			}
		})
	}

	// Churn: 8192 distinct flows over a 4096-entry cache, so the
	// round-robin clock displaces every flow before it returns — each
	// packet pays the full miss path.
	rs, err := fw.DepthRuleSet(fw.Deny, 64, 0, fw.AllowAllRule())
	if err != nil {
		b.Fatal(err)
	}
	c := fw.Compile(rs)
	fc := newFlowCache(4096)
	flows := make([]packet.Summary, 8192)
	for i := range flows {
		flows[i] = benchSummary(byte(i), uint16(1000+i))
	}
	b.Run("miss-churn-depth64", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s := flows[i&8191]
			if _, ok := fc.lookup(s, fw.Out, fw.StateNone); !ok {
				fc.insert(s, fw.Out, fw.StateNone, c.EvalState(s, fw.Out, fw.StateNone))
			}
		}
	})
}
