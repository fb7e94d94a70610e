package conntrack

import (
	"testing"
	"time"

	"barbican/internal/fw"
	"barbican/internal/packet"
)

// BenchmarkConntrack measures the table's three temperatures: the hit
// path (every packet of every established flow — must stay at 0
// allocs/op, it runs inside the card's noalloc ingress), the miss that
// classifies INVALID (the ACK-flood drop path, also alloc-free), and
// insert/evict churn per policy (the SYN-flood path: the flat index is
// sized once in New, so churn is also 0 allocs/op).
func BenchmarkConntrack(b *testing.B) {
	now := time.Second
	establish := func(tab *Table, src packet.IP, sport uint16) packet.Summary {
		syn := tcpPkt(src, ipS, sport, 80, packet.FlagSYN)
		tab.Classify(syn, now)
		tab.Commit(syn, now)
		synack := tcpPkt(ipS, src, 80, sport, packet.FlagSYN|packet.FlagACK)
		tab.Classify(synack, now)
		ack := tcpPkt(src, ipS, sport, 80, packet.FlagACK)
		tab.Classify(ack, now)
		return tcpPkt(src, ipS, sport, 80, packet.FlagACK|packet.FlagPSH)
	}

	b.Run("lookup-hit", func(b *testing.B) {
		tab := New(Config{Cap: 1024, Seed: 1})
		data := establish(tab, ipC, 40000)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if cs := tab.Classify(data, now); cs != fw.StateEstablished {
				b.Fatalf("classified %v", cs)
			}
		}
	})

	b.Run("lookup-miss-invalid", func(b *testing.B) {
		tab := New(Config{Cap: 1024, Seed: 1})
		ack := tcpPkt(ipC, ipS, 41000, 80, packet.FlagACK)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if cs := tab.Classify(ack, now); cs != fw.StateInvalid {
				b.Fatalf("classified %v", cs)
			}
		}
	})

	for _, policy := range []EvictPolicy{EvictLRU, EvictRandom, EvictSYNDrop} {
		b.Run("insert-churn/"+policy.String(), func(b *testing.B) {
			tab := New(Config{Cap: 1024, Policy: policy, Seed: 1})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s := tcpPkt(packet.IP{10, byte(i >> 16), byte(i >> 8), byte(i)}, ipS,
					uint16(i%1024)+1, 80, packet.FlagSYN)
				if st := tab.Commit(s, now); st == CommitFull {
					b.Fatal("commit full")
				}
			}
			b.StopTimer()
			if tab.Len() > tab.Cap() {
				b.Fatalf("len %d exceeds cap", tab.Len())
			}
		})
	}
}
