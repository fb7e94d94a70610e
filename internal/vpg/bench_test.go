package vpg

import (
	"fmt"
	"testing"

	"barbican/internal/packet"
)

func benchGroup(b *testing.B) *Group {
	b.Helper()
	g, err := NewGroup("bench", DeriveKey("bench"), alice, bob)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// BenchmarkSeal seals into one reused buffer, as the card seals into
// its frame buffer: nothing allocates.
func BenchmarkSeal(b *testing.B) {
	g := benchGroup(b)
	for _, size := range []int{64, 512, 1460} {
		payload := make([]byte, size)
		env := make([]byte, 0, size+Overhead(len(g.Name())))
		b.Run(fmt.Sprintf("%dB", size), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(size))
			var err error
			for i := 0; i < b.N; i++ {
				if env, err = g.Seal(env[:0], alice, bob, packet.ProtoTCP, payload, uint64(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkOpen opens into one reused buffer, as the card opens into
// the inner frame's buffer: nothing allocates.
func BenchmarkOpen(b *testing.B) {
	g := benchGroup(b)
	for _, size := range []int{64, 1460} {
		env, err := g.Seal(nil, alice, bob, packet.ProtoTCP, make([]byte, size), 1)
		if err != nil {
			b.Fatal(err)
		}
		pt := make([]byte, 0, size)
		b.Run(fmt.Sprintf("%dB", size), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(size))
			var err error
			for i := 0; i < b.N; i++ {
				if _, pt, _, err = g.Open(pt[:0], alice, bob, env); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkReplayWindow(b *testing.B) {
	var w ReplayWindow
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w.Check(uint64(i))
	}
}
